"""The one walk and the one parse behind every ``repro audit`` pass.

:func:`load_tree` reads each ``.py`` file under the package root once
and parses it once; the import-graph, schema-lock and API-lock passes
and the per-file REP rules all read the resulting :class:`SourceTree`.
An unparseable file (a syntax error, bytes that are not valid in the
file's encoding, or a ``ValueError`` such as a NUL byte in the source)
becomes exactly one fatal AUD001 finding, never a traceback, and every
pass skips it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.devtools.rules import Finding

__all__ = ["SourceFile", "SourceTree", "load_tree", "parse_python"]


@dataclass(frozen=True)
class SourceFile:
    """One file: its repo-relative ``/`` path, lines and parse tree."""

    path: str
    lines: Tuple[str, ...]
    #: ``None`` when the file does not parse.
    tree: Optional[ast.Module]


@dataclass(frozen=True)
class SourceTree:
    """Every file under ``root/package_root``, parsed once."""

    root: str
    package_root: str
    #: by repo-relative path, in sorted order.
    files: Mapping[str, SourceFile]
    #: one fatal AUD001 finding per unparseable file.
    failures: Tuple[Finding, ...]

    def module(self, path: str) -> Optional[ast.Module]:
        """The parse tree of ``path``, or ``None`` if absent or broken."""
        source = self.files.get(path)
        return source.tree if source is not None else None


def parse_python(
    source: Union[str, bytes], path: str
) -> Tuple[Optional[ast.Module], Optional[Finding]]:
    """``(tree, None)``, or ``(None, finding)`` with a fatal AUD001.

    A fatal finding means the file cannot be audited at all, so the run
    exits 2 (a broken input, distinct from exit 1's "checks ran and
    found violations").  Raw bytes are decoded by ``ast.parse`` itself
    (PEP 263), which reports an undecodable file as a ``SyntaxError``;
    ``ValueError`` covers non-syntax rejections such as NUL bytes.
    """
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            code="AUD001",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}",
            fix_hint="fix the syntax error; AST-based checks need a "
            "valid parse",
            fatal=True,
        )
    except ValueError as exc:
        return None, Finding(
            code="AUD001",
            path=path,
            line=1,
            col=0,
            message=f"file does not parse: {exc}",
            fix_hint="the source is not valid Python text (e.g. embedded "
            "NUL bytes); repair or remove the file",
            fatal=True,
        )


def load_tree(root: str, package_root: str) -> SourceTree:
    """Walk ``root/package_root`` once, reading and parsing each file."""
    rel_paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, package_root)):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel_paths.append(rel.replace(os.sep, "/"))
    files: Dict[str, SourceFile] = {}
    failures: List[Finding] = []
    for rel in sorted(rel_paths):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        tree, failure = parse_python(data, rel)
        if failure is not None:
            failures.append(failure)
        # The lines only feed the escape-hatch comment scans.
        lines = tuple(data.decode("utf-8", "replace").splitlines())
        files[rel] = SourceFile(path=rel, lines=lines, tree=tree)
    return SourceTree(
        root=root,
        package_root=package_root,
        files=files,
        failures=tuple(failures),
    )
