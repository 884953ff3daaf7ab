"""Pass 3: the public API surface against the committed ``api.lock.json``.

For each audited package (``core``, ``measure``, ``datasets``,
``bench``, ``obs`` by default) the surface is

* the package ``__init__``'s ``__all__`` (what ``from repro.measure
  import *`` means -- the curated re-export list downstream code and
  the tests lean on), and
* every non-underscore module-level ``def``/``class`` of each module
  (what a reader can reach by full path).

Like the schema lock, extraction is purely syntactic; renaming,
removing, or adding a public name without ``repro audit
--update-locks`` is a finding, so API changes are always deliberate and
visible in the diff of ``api.lock.json``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.devtools.rules import Finding
from repro.devtools.source import SourceTree

__all__ = ["API_LOCK_VERSION", "extract_api"]

API_LOCK_VERSION = 1


def _module_all(tree: ast.Module) -> Optional[List[str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                return None
            return sorted(str(name) for name in value)
    return None


def _public_defs(tree: ast.Module) -> List[str]:
    names: List[str] = []
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and not node.name.startswith("_"):
            names.append(node.name)
    return sorted(names)


def extract_api(
    source: SourceTree, packages: Tuple[str, ...]
) -> Tuple[Dict[str, Any], List[Finding]]:
    """The public surface of each audited package, plus findings."""
    findings: List[Finding] = []
    surface: Dict[str, Any] = {"version": API_LOCK_VERSION}
    for package in sorted(packages):
        pkg_dir = f"{source.package_root}/{package}/"
        entry: Dict[str, Any] = {"all": None, "modules": {}}
        names = [
            rel[len(pkg_dir) :]
            for rel in source.files
            if rel.startswith(pkg_dir) and "/" not in rel[len(pkg_dir) :]
        ]
        if not names:
            findings.append(
                Finding(
                    code="API002",
                    path=pkg_dir.rstrip("/"),
                    line=1,
                    col=0,
                    message="audited package has no modules",
                    fix_hint="restore the package or update "
                    "[tool.reproaudit]'s api_packages",
                )
            )
        for name in names:
            tree = source.module(pkg_dir + name)
            if tree is None:
                continue
            if name == "__init__.py":
                entry["all"] = _module_all(tree)
                continue
            public = _public_defs(tree)
            if public:
                entry["modules"][name[: -len(".py")]] = public
        surface[package] = entry
    return surface, findings
