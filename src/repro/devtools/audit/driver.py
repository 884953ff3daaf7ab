"""The ``repro audit`` CLI: config, pass orchestration, and reporting.

Follows reprolint's driver pattern exactly -- a frozen config mirrored
from ``pyproject.toml`` (``[tool.reproaudit]``), text/JSON renderers
shared via :mod:`repro.devtools.report`, and the exit-code contract
0 clean / 1 findings / 2 usage, config, or parse errors::

    PYTHONPATH=src python -m repro audit
    PYTHONPATH=src python -m repro audit --format json
    PYTHONPATH=src python -m repro audit --update-locks
    PYTHONPATH=src python -m repro audit --with-lint   # + reprolint findings

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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devtools.audit.apilock import extract_api
from repro.devtools.audit.importgraph import build_graph, check_layering
from repro.devtools.audit.schemalock import (
    canonical_json,
    diff_locked,
    extract_schemas,
)
from repro.devtools.config import load_tool_section
from repro.devtools.report import render_json, render_text
from repro.devtools.rules import RULES, Finding, RuleSpec

__all__ = [
    "AUDIT_RULES",
    "AuditConfig",
    "DEFAULT_AUDIT_CONFIG",
    "load_audit_config",
    "main",
    "run_audit",
]


def _spec(code: str, title: str, rationale: str, fix_hint: str) -> RuleSpec:
    # Audit findings come from whole-program passes, not per-file
    # checkers, so the RuleSpec carries identity only.
    return RuleSpec(
        code=code,
        title=title,
        rationale=rationale,
        fix_hint=fix_hint,
        check=lambda ctx: [],
    )


AUDIT_RULES: Mapping[str, RuleSpec] = {
    spec.code: spec
    for spec in (
        _spec(
            "AUD000",
            "unjustified allow-edge comment",
            "an escape hatch without a recorded reason is an undocumented "
            "architecture exception",
            "append ` -- <justification>` or remove the import",
        ),
        _spec(
            "AUD001",
            "unparseable source file",
            "a file the auditor cannot parse is a file no contract covers",
            "fix the syntax error; AST-based checks need a valid parse",
        ),
        _spec(
            "ARC001",
            "runtime import cycle",
            "cycles make import order load-bearing and undermine the "
            "layering the inference chain depends on",
            "break the cycle with a TYPE_CHECKING or function-level import",
        ),
        _spec(
            "ARC002",
            "forbidden cross-layer import",
            "an edge outside the declared may_import lists couples layers "
            "the architecture keeps apart",
            "move the shared code down a layer or invert the dependency",
        ),
        _spec(
            "ARC003",
            "layer-skipping import",
            "the dependency exists but bypasses the declared seam, hiding "
            "it from the layer in between",
            "route through the intermediate layer or declare the direct "
            "edge in may_import",
        ),
        _spec(
            "ARC004",
            "module assigned to no layer",
            "an unassigned module is exempt from the whole contract",
            "add its package to a layer in [tool.reproaudit.layers]",
        ),
        _spec(
            "SCH001",
            "schema lockfile missing",
            "without schemas.lock.json no serialized surface is pinned",
            "run `repro audit --update-locks` and commit the lockfile",
        ),
        _spec(
            "SCH002",
            "serialized schema drifted from lockfile",
            "checkpoints, shard wire tuples, bench reports, and span rows "
            "outlive the process that wrote them; silent drift breaks "
            "resume and regression gating",
            "if intended, run `repro audit --update-locks` and commit the "
            "lockfile diff alongside the change",
        ),
        _spec(
            "SCH003",
            "schema surface not statically extractable",
            "a surface the auditor cannot see is a surface it cannot pin",
            "keep the serialization sites in their documented shapes",
        ),
        _spec(
            "API001",
            "API lockfile missing",
            "without api.lock.json the public surface is unpinned",
            "run `repro audit --update-locks` and commit the lockfile",
        ),
        _spec(
            "API002",
            "public API drifted from lockfile",
            "renamed or removed public names break downstream callers "
            "without a visible diff",
            "if intended, run `repro audit --update-locks` and commit the "
            "lockfile diff alongside the change",
        ),
    )
}


@dataclass(frozen=True)
class AuditConfig:
    """The whole-program contract, mirrored from ``[tool.reproaudit]``."""

    root: str = "."
    package_root: str = "src/repro"
    schema_lock: str = "schemas.lock.json"
    api_lock: str = "api.lock.json"
    api_packages: Tuple[str, ...] = (
        "bench",
        "core",
        "datasets",
        "measure",
        "obs",
    )
    layer_modules: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    may_import: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)


#: The repo's layering, mirrored from ``pyproject.toml`` so the tool
#: behaves identically without one (kept in sync by tests/test_audit.py).
#: ``util`` (errors.py, fsutil.py) sits under everything; ``obs`` is
#: instrumentation importable from the measurement plane up; ``app``
#: (cli, package root) may import anything; ``devtools`` sees only
#: ``util`` -- the auditors never couple to the runtime they audit.
_DEFAULT_LAYERS: Mapping[str, Mapping[str, Tuple[str, ...]]] = {
    "util": {
        "modules": ("repro.errors", "repro.fsutil"),
        "may_import": (),
    },
    "net": {"modules": ("repro.net",), "may_import": ("util",)},
    "obs": {"modules": ("repro.obs",), "may_import": ("util",)},
    "world": {"modules": ("repro.world",), "may_import": ("net", "util")},
    "datasets": {
        "modules": ("repro.datasets",),
        "may_import": ("world", "net", "util"),
    },
    "measure": {
        "modules": ("repro.measure",),
        "may_import": ("datasets", "world", "net", "obs", "util"),
    },
    "core": {
        "modules": ("repro.core",),
        "may_import": ("measure", "datasets", "world", "net", "obs", "util"),
    },
    "analysis": {
        "modules": ("repro.analysis",),
        "may_import": ("core", "datasets", "world", "net", "util"),
    },
    "bdrmap": {
        "modules": ("repro.bdrmap",),
        "may_import": ("core", "measure", "datasets", "world", "net", "util"),
    },
    "bench": {
        "modules": ("repro.bench",),
        "may_import": (
            "core",
            "measure",
            "datasets",
            "world",
            "net",
            "obs",
            "util",
        ),
    },
    "devtools": {"modules": ("repro.devtools",), "may_import": ("util",)},
    "app": {
        "modules": ("repro",),
        "may_import": (
            "analysis",
            "bdrmap",
            "bench",
            "core",
            "datasets",
            "devtools",
            "measure",
            "net",
            "obs",
            "world",
            "util",
        ),
    },
}

DEFAULT_AUDIT_CONFIG = AuditConfig(
    layer_modules={
        name: tuple(spec["modules"]) for name, spec in _DEFAULT_LAYERS.items()
    },
    may_import={
        name: tuple(spec["may_import"])
        for name, spec in _DEFAULT_LAYERS.items()
    },
)


def load_audit_config(pyproject_path: Optional[str] = None) -> AuditConfig:
    """Read ``[tool.reproaudit]``, or fall back to the builtin mirror."""
    section, root = load_tool_section("reproaudit", pyproject_path)
    if section is None:
        return DEFAULT_AUDIT_CONFIG
    layers = section.get("layers", {})
    return AuditConfig(
        root=root,
        package_root=str(
            section.get("package_root", DEFAULT_AUDIT_CONFIG.package_root)
        ),
        schema_lock=str(
            section.get("schema_lock", DEFAULT_AUDIT_CONFIG.schema_lock)
        ),
        api_lock=str(section.get("api_lock", DEFAULT_AUDIT_CONFIG.api_lock)),
        api_packages=tuple(
            section.get("api_packages", DEFAULT_AUDIT_CONFIG.api_packages)
        ),
        layer_modules={
            name: tuple(spec.get("modules", ()))
            for name, spec in layers.items()
        },
        may_import={
            name: tuple(spec.get("may_import", ()))
            for name, spec in layers.items()
        },
    )


# ----------------------------------------------------------------------
# pass orchestration
# ----------------------------------------------------------------------


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


def run_audit(
    config: Optional[AuditConfig] = None,
    *,
    update_locks: bool = False,
) -> Tuple[List[Finding], int]:
    """Run all three passes; returns (findings, modules_checked).

    With ``update_locks=True`` both lockfiles are rewritten from the
    live tree instead of being diffed against it (layering findings are
    still reported -- a lock update must not launder a forbidden edge).
    """
    config = config or DEFAULT_AUDIT_CONFIG
    findings: List[Finding] = []

    graph = build_graph(config.root, config.package_root)
    findings.extend(
        check_layering(graph, config.layer_modules, config.may_import)
    )

    live_schemas, schema_findings = extract_schemas(
        config.root, config.package_root
    )
    findings.extend(schema_findings)
    live_api, api_findings = extract_api(
        config.root, config.package_root, config.api_packages
    )
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
    return findings, len(graph.modules)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description=(
            "Whole-program auditor: import-graph layering, serialized-"
            "schema lockfile, and public-API lockfile (see DESIGN.md "
            "'Architecture & schema contracts')"
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
        "(default: ./pyproject.toml if present)",
    )
    parser.add_argument(
        "--update-locks",
        action="store_true",
        help="rewrite schemas.lock.json and api.lock.json from the live "
        "tree instead of diffing against them",
    )
    parser.add_argument(
        "--with-lint",
        action="store_true",
        help="also run repro lint and fold its findings into one report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the finding catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(AUDIT_RULES):
            spec = AUDIT_RULES[code]
            print(f"{code}  {spec.title}")
            print(f"        why: {spec.rationale}")
            print(f"        fix: {spec.fix_hint}")
        return 0
    try:
        config = load_audit_config(args.config)
    except OSError as exc:
        print(f"repro audit: cannot read config: {exc}", file=sys.stderr)
        return 2
    findings, files_checked = run_audit(
        config, update_locks=args.update_locks
    )
    catalog: Dict[str, RuleSpec] = dict(AUDIT_RULES)
    if args.with_lint:
        from repro.devtools.reprolint import lint_paths, load_config

        try:
            lint_config = load_config(args.config)
        except OSError as exc:
            print(f"repro audit: cannot read config: {exc}", file=sys.stderr)
            return 2
        lint_findings, lint_files = lint_paths(config=lint_config)
        findings.extend(lint_findings)
        files_checked = max(files_checked, lint_files)
        catalog.update(RULES)
    if args.format == "json":
        print(
            render_json(
                findings,
                files_checked=files_checked,
                tool="reproaudit",
                catalog=catalog,
            )
        )
    else:
        print(
            render_text(
                findings, files_checked=files_checked, tool="reproaudit"
            )
        )
    if any(f.fatal for f in findings):
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
