"""``[tool.reproaudit]``: the one configuration of ``repro audit``.

The section of the repo's ``pyproject.toml`` is the only source -- there
is no builtin mirror -- and every path in it is a repo-relative,
``/``-separated prefix resolved against the ``pyproject.toml``'s
directory:

* ``package_root`` -- the tree every pass walks;
* ``schema_lock`` / ``api_lock`` / ``api_packages`` -- the lockfiles and
  the packages whose public API is locked;
* ``layers.<name>.modules`` / ``layers.<name>.may_import`` -- the
  import-graph layering;
* ``rule_paths.<REP>`` / ``rule_exclude.<REP>`` -- where each per-file
  rule applies (a rule with no ``rule_paths`` entry applies to every
  file);
* ``rep004_strict_paths`` -- the part of REP004's scope where every
  clock read is a finding (the adaptive control plane).
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.devtools.rules import file_rule_codes

__all__ = ["AuditConfig", "load_audit_config", "path_matches"]


def path_matches(rel_path: str, prefixes: Tuple[str, ...]) -> bool:
    """Is ``rel_path`` equal to, or nested under, any prefix?"""
    for prefix in prefixes:
        p = prefix.rstrip("/")
        if rel_path == p or rel_path.startswith(p + "/"):
            return True
    return False


@dataclass(frozen=True)
class AuditConfig:
    """The parsed ``[tool.reproaudit]`` section (see the module doc)."""

    root: str
    package_root: str
    schema_lock: str
    api_lock: str
    api_packages: Tuple[str, ...]
    layer_modules: Mapping[str, Tuple[str, ...]]
    may_import: Mapping[str, Tuple[str, ...]]
    rule_paths: Mapping[str, Tuple[str, ...]]
    rule_exclude: Mapping[str, Tuple[str, ...]]
    rep004_strict_paths: Tuple[str, ...]

    def codes_for(self, rel_path: str) -> Tuple[str, ...]:
        """The per-file rule codes that apply to one repo-relative path."""
        codes: List[str] = []
        for code in file_rule_codes():
            applies = self.rule_paths.get(code)
            if applies and not path_matches(rel_path, applies):
                continue
            if path_matches(rel_path, self.rule_exclude.get(code, ())):
                continue
            codes.append(code)
        return tuple(codes)

    def strict_clocks(self, rel_path: str) -> bool:
        """Is ``rel_path`` under REP004's strict scope?"""
        return path_matches(rel_path, self.rep004_strict_paths)


def _path_table(table: Mapping[str, Any]) -> Mapping[str, Tuple[str, ...]]:
    return {key: tuple(paths) for key, paths in table.items()}


def load_audit_config(pyproject_path: Optional[str] = None) -> AuditConfig:
    """Read ``[tool.reproaudit]`` (default: ``./pyproject.toml``).

    Raises ``OSError`` for an unreadable file and ``ValueError`` for
    invalid TOML or a missing section or key; the CLI reports both as
    usage errors (exit 2).
    """
    path = pyproject_path or os.path.join(os.getcwd(), "pyproject.toml")
    with open(path, "rb") as fh:
        data = tomllib.load(fh)
    section = data.get("tool", {}).get("reproaudit")
    if not isinstance(section, Mapping):
        raise ValueError(f"{path} has no [tool.reproaudit] table")
    try:
        layers = section["layers"]
        return AuditConfig(
            root=os.path.dirname(os.path.abspath(path)),
            package_root=str(section["package_root"]),
            schema_lock=str(section["schema_lock"]),
            api_lock=str(section["api_lock"]),
            api_packages=tuple(section["api_packages"]),
            layer_modules={
                name: tuple(spec["modules"]) for name, spec in layers.items()
            },
            may_import={
                name: tuple(spec["may_import"])
                for name, spec in layers.items()
            },
            rule_paths=_path_table(section.get("rule_paths", {})),
            rule_exclude=_path_table(section.get("rule_exclude", {})),
            rep004_strict_paths=tuple(section.get("rep004_strict_paths", ())),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: [tool.reproaudit] lacks {exc}") from None
