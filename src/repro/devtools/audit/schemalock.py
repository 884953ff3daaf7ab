"""Pass 2: serialized surfaces against the committed ``schemas.lock.json``.

Four formats cross a process or filesystem boundary and must survive a
release without drifting, or crash-safe resume and bench regression
gating silently break:

* ``record_log`` -- the on-disk checkpoint records (``fsutil``'s record
  files, written by the shard journals and the stage store): format
  version, the header, row and codec keys, the fixed stage order, and
  the ordered fields of every registered stage-payload dataclass;
* ``shard_wire`` -- the packed tuple workers send back (the exact
  ``_pack_result`` return expression, plus the index span rows ride
  at);
* ``bench_report`` -- the ``repro-bench-v1`` document: schema string,
  required keys, and the report dataclass's fields;
* ``span_record`` -- SpanRecord's fields and the PackedSpan row type.

Everything is extracted *statically* (``ast`` only): the schema of a
surface is what its source says, not what an import happens to produce,
so the audit works on a tree that does not import (and costs nothing).
Drift against the lockfile is a hard failure until the change is made
deliberate with ``repro audit --update-locks``.
"""

from __future__ import annotations

import ast
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.devtools.rules import Finding
from repro.devtools.source import SourceTree

__all__ = [
    "SCHEMA_LOCK_VERSION",
    "canonical_json",
    "diff_locked",
    "extract_schemas",
]

SCHEMA_LOCK_VERSION = 1


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _module(
    source: SourceTree, rel_path: str, findings: List[Finding]
) -> Optional[ast.Module]:
    """A locked surface's parse tree; SCH003 when the module is missing.

    An unparseable module yields ``None`` with no finding here: the
    tree already reported it (AUD001).
    """
    if rel_path not in source.files:
        findings.append(
            Finding(
                code="SCH003",
                path=rel_path,
                line=1,
                col=0,
                message="locked surface module missing",
                fix_hint="restore the module or update [tool.reproaudit]'s "
                "package_root",
            )
        )
    return source.module(rel_path)


def _assigned_constant(tree: ast.Module, name: str) -> Any:
    """The literal value of a module-level ``NAME = <literal>``."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                try:
                    return ast.literal_eval(value)
                except ValueError:
                    return ast.unparse(value)
    return None


def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_fields(cls: ast.ClassDef) -> List[Dict[str, str]]:
    """Ordered ``{name, type}`` for every annotated field of a dataclass."""
    fields: List[Dict[str, str]] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            fields.append(
                {
                    "name": node.target.id,
                    "type": ast.unparse(node.annotation),
                }
            )
    return fields


def _imported_from(tree: ast.Module) -> Dict[str, str]:
    """name -> defining module, from the module's ImportFrom statements."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _dict_literal_keys(*trees: ast.Module) -> List[List[str]]:
    """Every all-string-key dict literal's key tuple, sorted and unique.

    A serialization module's write sites are dict literals; their key
    sets *are* the record schema.  Single-key dicts are noise and are
    skipped.
    """
    seen: Dict[Tuple[str, ...], None] = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Dict) or len(node.keys) < 2:
            continue
        keys: List[str] = []
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
            else:
                break
        else:
            seen[tuple(keys)] = None
    return sorted(list(k) for k in seen)


def _function_def(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


# ----------------------------------------------------------------------
# per-surface extractors
# ----------------------------------------------------------------------


def _extract_record_log(
    source: SourceTree, findings: List[Finding]
) -> Optional[Dict[str, Any]]:
    package_root = source.package_root
    fsutil_rel = f"{package_root}/fsutil.py"
    rel = f"{package_root}/core/stages.py"
    trees: Dict[str, ast.Module] = {}
    for path in (fsutil_rel, f"{package_root}/measure/checkpoint.py", rel):
        tree = _module(source, path, findings)
        if tree is None:
            return None
        trees[path] = tree
    tree = trees[rel]
    # _REGISTERED_TYPES is a tuple of *names*; pull the identifier list
    # straight from the AST.
    names: List[str] = []
    for node in tree.body:
        target_names = []
        value = None
        if isinstance(node, ast.Assign):
            target_names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            target_names = [node.target.id]
            value = node.value
        if "_REGISTERED_TYPES" in target_names and isinstance(
            value, ast.Tuple
        ):
            names = [
                e.id for e in value.elts if isinstance(e, ast.Name)
            ]
    imports = _imported_from(tree)
    dataclasses: Dict[str, List[Dict[str, str]]] = {}
    module_cache: Dict[str, Optional[ast.Module]] = {}
    for name in names:
        module = imports.get(name)
        if module is None:
            cls = _class_def(tree, name)
        else:
            if module not in module_cache:
                mod_rel = (
                    package_root.split("/")[0]
                    + "/"
                    + module.replace(".", "/")
                    + ".py"
                )
                module_cache[module] = _module(source, mod_rel, findings)
            mod_tree = module_cache[module]
            cls = _class_def(mod_tree, name) if mod_tree else None
        if cls is None:
            findings.append(
                Finding(
                    code="SCH003",
                    path=rel,
                    line=1,
                    col=0,
                    message=f"registered stage payload type {name} could "
                    "not be located statically",
                    fix_hint="keep _REGISTERED_TYPES entries as plain "
                    "imported dataclass names",
                )
            )
            continue
        dataclasses[name] = _dataclass_fields(cls)
    return {
        "format_version": _assigned_constant(
            trees[fsutil_rel], "RECORD_FORMAT_VERSION"
        ),
        # header, journal-row, stage-row and codec keys
        "record_keys": _dict_literal_keys(*trees.values()),
        "stage_order": list(_assigned_constant(tree, "STAGE_ORDER") or ()),
        "registered_dataclasses": dataclasses,
    }


def _extract_shard_wire(
    source: SourceTree, findings: List[Finding]
) -> Optional[Dict[str, Any]]:
    rel = f"{source.package_root}/measure/executor.py"
    tree = _module(source, rel, findings)
    if tree is None:
        return None
    pack = _function_def(tree, "_pack_result")
    pack_shape = None
    if pack is not None:
        for node in ast.walk(pack):
            if isinstance(node, ast.Return) and node.value is not None:
                pack_shape = ast.unparse(node.value)
                break
    span_index = None
    spans = _function_def(tree, "_packed_spans")
    if spans is not None:
        # The optional span element rides at the index the guard tests:
        # `len(packed) > N and packed[N]`.
        for node in ast.walk(spans):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.ops[0], ast.Gt)
                and isinstance(node.comparators[0], ast.Constant)
            ):
                span_index = node.comparators[0].value
                break
    if pack_shape is None:
        findings.append(
            Finding(
                code="SCH003",
                path=rel,
                line=1,
                col=0,
                message="_pack_result's return expression not found; the "
                "shard wire tuple cannot be locked",
                fix_hint="keep _pack_result a single-return function",
            )
        )
    return {
        "pack_result": pack_shape,
        "span_row_index": span_index,
    }


def _extract_bench_report(
    source: SourceTree, findings: List[Finding]
) -> Optional[Dict[str, Any]]:
    tree = _module(source, f"{source.package_root}/bench/report.py", findings)
    if tree is None:
        return None
    cls = _class_def(tree, "BenchReport")
    return {
        "schema": _assigned_constant(tree, "BENCH_SCHEMA"),
        "required_keys": list(
            _assigned_constant(tree, "_REQUIRED_KEYS") or ()
        ),
        "fields": _dataclass_fields(cls) if cls is not None else [],
    }


def _extract_span_record(
    source: SourceTree, findings: List[Finding]
) -> Optional[Dict[str, Any]]:
    tree = _module(source, f"{source.package_root}/obs/span.py", findings)
    if tree is None:
        return None
    cls = _class_def(tree, "SpanRecord")
    packed = None
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "PackedSpan"
                for t in node.targets
            )
        ):
            packed = ast.unparse(node.value)
    return {
        "fields": _dataclass_fields(cls) if cls is not None else [],
        "packed_span": packed,
    }


_EXTRACTORS = {
    "record_log": _extract_record_log,
    "shard_wire": _extract_shard_wire,
    "bench_report": _extract_bench_report,
    "span_record": _extract_span_record,
}


def extract_schemas(
    source: SourceTree,
) -> Tuple[Dict[str, Any], List[Finding]]:
    """All surfaces' live schemas, plus extraction findings."""
    findings: List[Finding] = []
    schemas: Dict[str, Any] = {"version": SCHEMA_LOCK_VERSION}
    for name, extract in sorted(_EXTRACTORS.items()):
        surface = extract(source, findings)
        if surface is not None:
            schemas[name] = surface
    return schemas, findings


# ----------------------------------------------------------------------
# lockfile comparison
# ----------------------------------------------------------------------


def canonical_json(data: Any) -> str:
    """The one serialization committed lockfiles use."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _diff_paths(
    locked: Any, live: Any, prefix: str, out: List[Tuple[str, str]]
) -> None:
    if isinstance(locked, dict) and isinstance(live, dict):
        for key in sorted(set(locked) | set(live)):
            where = f"{prefix}.{key}" if prefix else key
            if key not in locked:
                out.append((where, "added (not in lockfile)"))
            elif key not in live:
                out.append((where, "removed (still in lockfile)"))
            else:
                _diff_paths(locked[key], live[key], where, out)
        return
    if locked != live:
        out.append(
            (prefix, f"locked {_compact(locked)} != live {_compact(live)}")
        )


def _compact(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 120 else text[:117] + "..."


def diff_locked(
    locked: Any,
    live: Any,
    lock_path: str,
    *,
    code: str,
    surface_paths: Dict[str, str],
    update_hint: str,
) -> List[Finding]:
    """One finding per drifted top-level surface (stable order)."""
    findings: List[Finding] = []
    paths: List[Tuple[str, str]] = []
    _diff_paths(locked, live, "", paths)
    by_surface: Dict[str, List[Tuple[str, str]]] = {}
    for where, what in paths:
        surface = where.split(".", 1)[0]
        by_surface.setdefault(surface, []).append((where, what))
    for surface in sorted(by_surface):
        details = "; ".join(
            f"{where}: {what}" for where, what in by_surface[surface][:4]
        )
        extra = len(by_surface[surface]) - 4
        if extra > 0:
            details += f"; (+{extra} more)"
        findings.append(
            Finding(
                code=code,
                path=surface_paths.get(surface, lock_path),
                line=1,
                col=0,
                message=f"locked surface '{surface}' drifted: {details}",
                fix_hint=update_hint,
            )
        )
    return findings
