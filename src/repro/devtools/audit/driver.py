"""The ``repro audit`` CLI: one walk, every pass, one report.

Configured by ``[tool.reproaudit]`` in ``pyproject.toml``
(:mod:`repro.devtools.config`), rendered as GCC-style text or JSON,
with the exit-code contract 0 clean / 1 findings / 2 usage or config
errors or unparseable source::

    PYTHONPATH=src python -m repro audit
    PYTHONPATH=src python -m repro audit --format json
    PYTHONPATH=src python -m repro audit --update-locks
    PYTHONPATH=src python -m repro audit --list-rules

``--update-locks`` rewrites ``schemas.lock.json`` / ``api.lock.json``
to match the live tree, which is the one sanctioned way to change a
serialized surface or a public API: the lockfile diff then sits in the
same review as the code change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.devtools.audit.apilock import extract_api
from repro.devtools.audit.importgraph import build_graph, check_layering
from repro.devtools.audit.schemalock import (
    canonical_json,
    diff_locked,
    extract_schemas,
)
from repro.devtools.config import AuditConfig, load_audit_config
from repro.devtools.reprolint import check_file
from repro.devtools.rules import RULES, Finding
from repro.devtools.source import SourceTree, load_tree

__all__ = ["main", "render_json", "render_text", "run_audit"]


def _load_lock(path: str) -> Optional[Any]:
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _schema_surface_paths(package_root: str) -> Dict[str, str]:
    return {
        "record_log": f"{package_root}/core/stages.py",
        "shard_wire": f"{package_root}/measure/executor.py",
        "bench_report": f"{package_root}/bench/report.py",
        "span_record": f"{package_root}/obs/span.py",
    }


def _check_rules(source: SourceTree, config: AuditConfig) -> List[Finding]:
    """The per-file REP rules over every parsed file, as scoped."""
    findings: List[Finding] = []
    for parsed in source.files.values():
        codes = config.codes_for(parsed.path)
        if parsed.tree is None or not codes:
            continue
        findings.extend(
            check_file(
                parsed.path,
                parsed.tree,
                parsed.lines,
                codes,
                strict_clocks=config.strict_clocks(parsed.path),
            )
        )
    return findings


def run_audit(
    config: AuditConfig, *, update_locks: bool = False
) -> Tuple[List[Finding], int]:
    """Run every pass over one parse of the tree; (findings, files).

    With ``update_locks=True`` both lockfiles are rewritten from the
    live tree instead of being diffed against it (every other finding
    is still reported -- a lock update must not launder a forbidden
    edge).  A tree with an unparseable file skips both lockfile passes:
    its surfaces are partial, so a diff would report the broken module
    again as drift and an update would drop it from the lockfiles.
    """
    source = load_tree(config.root, config.package_root)
    findings: List[Finding] = list(source.failures)
    findings.extend(
        check_layering(
            build_graph(source), config.layer_modules, config.may_import
        )
    )
    findings.extend(_check_rules(source, config))
    if source.failures:
        return findings, len(source.files)
    live_schemas, schema_findings = extract_schemas(source)
    findings.extend(schema_findings)
    live_api, api_findings = extract_api(source, config.api_packages)
    findings.extend(api_findings)

    schema_lock_path = os.path.join(config.root, config.schema_lock)
    api_lock_path = os.path.join(config.root, config.api_lock)
    if update_locks:
        with open(schema_lock_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(live_schemas))
        with open(api_lock_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(live_api))
    else:
        locked_schemas = _load_lock(schema_lock_path)
        if locked_schemas is None:
            findings.append(
                Finding(
                    code="SCH001",
                    path=config.schema_lock,
                    line=1,
                    col=0,
                    message="schema lockfile missing or unreadable",
                    fix_hint="run `repro audit --update-locks` and commit "
                    "the lockfile",
                )
            )
        else:
            findings.extend(
                diff_locked(
                    locked_schemas,
                    live_schemas,
                    config.schema_lock,
                    code="SCH002",
                    surface_paths=_schema_surface_paths(config.package_root),
                    update_hint="if this change is intended, run `repro "
                    "audit --update-locks` and commit the lockfile diff",
                )
            )
        locked_api = _load_lock(api_lock_path)
        if locked_api is None:
            findings.append(
                Finding(
                    code="API001",
                    path=config.api_lock,
                    line=1,
                    col=0,
                    message="API lockfile missing or unreadable",
                    fix_hint="run `repro audit --update-locks` and commit "
                    "the lockfile",
                )
            )
        else:
            findings.extend(
                diff_locked(
                    locked_api,
                    live_api,
                    config.api_lock,
                    code="API002",
                    surface_paths={
                        pkg: f"{config.package_root}/{pkg}/__init__.py"
                        for pkg in config.api_packages
                    },
                    update_hint="if this change is intended, run `repro "
                    "audit --update-locks` and commit the lockfile diff",
                )
            )
    return findings, len(source.files)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Finding count per rule code, sorted by code."""
    counts: Dict[str, int] = {}
    for finding in sorted(findings, key=lambda f: f.code):
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return counts


def render_text(findings: Sequence[Finding], *, files_checked: int = 0) -> str:
    """GCC-style ``path:line:col: CODE message`` lines plus a summary."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
    lines: List[str] = []
    for f in ordered:
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.code} {f.message}")
        lines.append(f"    hint: {f.fix_hint}")
    if findings:
        per_rule = ", ".join(
            f"{code} x{count}" for code, count in _summarize(findings).items()
        )
        lines.append("")
        lines.append(
            f"reproaudit: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s) "
            f"({files_checked} checked): {per_rule}"
        )
    else:
        lines.append(f"reproaudit: clean ({files_checked} file(s) checked)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *, files_checked: int = 0) -> str:
    """Stable machine-readable output for CI annotation tooling."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
    counts = _summarize(findings)
    payload = {
        "version": 1,
        "tool": "reproaudit",
        "files_checked": files_checked,
        "counts": counts,
        "rules": {
            code: {"title": RULES[code].title, "rationale": RULES[code].rationale}
            for code in counts
        },
        "findings": [f.as_dict() for f in ordered],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description=(
            "Static auditor: import-graph layering, serialized-schema and "
            "public-API lockfiles, and the REP determinism rules (see "
            "DESIGN.md 6.1 and 6.5)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--config",
        type=str,
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.reproaudit] from "
        "(default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--update-locks",
        action="store_true",
        help="rewrite schemas.lock.json and api.lock.json from the live "
        "tree instead of diffing against them",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the finding catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, spec in sorted(RULES.items()):
            print(f"{code}  {spec.title}")
            print(f"        why: {spec.rationale}")
            print(f"        fix: {spec.fix_hint}")
        return 0
    try:
        config = load_audit_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"repro audit: cannot read config: {exc}", file=sys.stderr)
        return 2
    findings, files_checked = run_audit(
        config, update_locks=args.update_locks
    )
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings, files_checked=files_checked))
    if any(f.fatal for f in findings):
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
