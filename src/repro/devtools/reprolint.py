"""The per-file REP pass of ``repro audit``: rules plus disable comments.

:func:`check_file` runs the :mod:`repro.devtools.rules` AST checks that
apply to one already-parsed file and honours ``# reprolint: disable=``
escape hatches; ``repro audit`` calls it once per file of the tree it
parsed (which rules apply where is ``[tool.reproaudit]``'s
``rule_paths`` / ``rule_exclude`` / ``rep004_strict_paths``).
:func:`lint_source` parses and checks one source string.

The repo's scoping encodes the architecture: REP001 covers the dataset
/ measurement / inference layers where draws are lazy or lookup-ordered,
but not ``world/`` -- the world builder owns one serial RNG *by
contract* (single-threaded, fixed construction order) -- and not
``net/rng.py``, which implements the keyed helpers themselves.

Escape hatch
------------
``# reprolint: disable=REP001 -- justification`` on the finding's line
(or alone on the line above) suppresses that rule there.  The
justification is mandatory: a bare ``disable=`` suppresses nothing and
is itself reported as REP000, so every exception is a documented one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.rules import Finding, RuleContext, file_rule_codes, run_rule
from repro.devtools.source import parse_python

__all__ = ["check_file", "lint_source"]


# ----------------------------------------------------------------------
# disable comments
# ----------------------------------------------------------------------

_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Z0-9,\s]+?)"
    r"(?:\s+--\s*(?P<why>\S.*))?\s*$"
)


@dataclass(frozen=True)
class _Disable:
    line: int
    codes: Tuple[str, ...]
    justified: bool
    standalone: bool  # the line holds only the comment


def _scan_disables(source_lines: Sequence[str]) -> List[_Disable]:
    disables: List[_Disable] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        codes = tuple(
            c.strip() for c in match.group("codes").split(",") if c.strip()
        )
        disables.append(
            _Disable(
                line=lineno,
                codes=codes,
                justified=match.group("why") is not None,
                standalone=text.lstrip().startswith("#"),
            )
        )
    return disables


def _apply_disables(
    findings: Sequence[Finding],
    disables: Sequence[_Disable],
    path: str,
) -> List[Finding]:
    """Suppress justified disables; report unjustified ones as REP000."""
    suppressing: Dict[int, Set[str]] = {}
    out: List[Finding] = []
    for d in disables:
        if not d.justified:
            out.append(
                Finding(
                    code="REP000",
                    path=path,
                    line=d.line,
                    col=0,
                    message=(
                        "disable comment without a justification: write "
                        "`# reprolint: disable="
                        + ",".join(d.codes)
                        + " -- <why this exception is sound>` (an "
                        "unjustified disable suppresses nothing)"
                    ),
                    fix_hint="append ` -- <justification>` or fix the "
                    "underlying finding",
                )
            )
            continue
        suppressing.setdefault(d.line, set()).update(d.codes)
        if d.standalone:
            # A comment alone on a line covers the next line.
            suppressing.setdefault(d.line + 1, set()).update(d.codes)
    for f in findings:
        if f.code in suppressing.get(f.line, ()):
            continue
        out.append(f)
    return out


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


def check_file(
    path: str,
    tree: ast.Module,
    source_lines: Tuple[str, ...],
    codes: Sequence[str],
    *,
    strict_clocks: bool = False,
) -> List[Finding]:
    """Run ``codes`` over one parsed file, then apply its disables."""
    ctx = RuleContext(path=path, tree=tree, strict_clocks=strict_clocks)
    findings: List[Finding] = []
    for code in codes:
        findings.extend(run_rule(code, ctx))
    return _apply_disables(findings, _scan_disables(source_lines), path)


def lint_source(
    source: str,
    path: str = "<string>",
    codes: Optional[Sequence[str]] = None,
    *,
    strict_clocks: bool = False,
) -> List[Finding]:
    """Parse and check one source string (default: every REP rule)."""
    tree, failure = parse_python(source, path)
    if tree is None:
        return [failure] if failure is not None else []
    return check_file(
        path,
        tree,
        tuple(source.splitlines()),
        file_rule_codes() if codes is None else codes,
        strict_clocks=strict_clocks,
    )
