"""The ``BENCH_<scenario>.json`` report schema and file helpers.

A report is a frozen record of one scenario run.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so two runs
with identical content produce byte-identical files and ``git diff``
shows only real changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Union

#: Bump when the report shape changes; ``--compare`` refuses to diff
#: reports with different schemas.
BENCH_SCHEMA = "repro-bench-v1"

#: Top-level keys every report file must carry.
_REQUIRED_KEYS = (
    "schema",
    "scenario",
    "params",
    "digest",
    "counters",
    "efficiency",
    "timings",
)


@dataclass(frozen=True)
class BenchReport:
    """One scenario's folded results.

    ``counters`` hold exact integers, ``efficiency`` lower-is-better
    floats, ``timings`` informational wall-clock seconds (see the
    package docstring for how each section regresses).
    """

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    efficiency: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    schema: str = BENCH_SCHEMA

    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, stable indentation."""
        payload = {
            "schema": self.schema,
            "scenario": self.scenario,
            "params": dict(self.params),
            "digest": self.digest,
            "counters": dict(self.counters),
            "efficiency": dict(self.efficiency),
            "timings": dict(self.timings),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        """Parse and validate one report document.

        Raises ``ValueError`` on anything that is not a well-formed
        report: wrong schema string, missing sections, or sections of
        the wrong shape.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("bench report must be a JSON object")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise ValueError(f"bench report missing key(s): {', '.join(missing)}")
        if data["schema"] != BENCH_SCHEMA:
            raise ValueError(
                f"unsupported bench schema {data['schema']!r} "
                f"(this build reads {BENCH_SCHEMA!r})"
            )
        for section, kind in (
            ("params", object),
            ("counters", int),
            ("efficiency", float),
            ("timings", float),
        ):
            mapping = data[section]
            if not isinstance(mapping, dict):
                raise ValueError(f"bench report {section!r} must be an object")
            if kind is int:
                bad = sorted(
                    k for k, v in mapping.items()
                    if not isinstance(v, int) or isinstance(v, bool)
                )
                if bad:
                    raise ValueError(
                        f"counter(s) must be integers: {', '.join(bad)}"
                    )
            elif kind is float:
                bad = sorted(
                    k for k, v in mapping.items()
                    if isinstance(v, bool) or not isinstance(v, (int, float))
                )
                if bad:
                    raise ValueError(
                        f"{section} value(s) must be numbers: {', '.join(bad)}"
                    )
        if not isinstance(data["scenario"], str) or not data["scenario"]:
            raise ValueError("bench report scenario must be a non-empty string")
        if not isinstance(data["digest"], str):
            raise ValueError("bench report digest must be a string")
        return cls(
            scenario=data["scenario"],
            params=dict(data["params"]),
            digest=data["digest"],
            counters={k: int(v) for k, v in data["counters"].items()},
            efficiency={k: float(v) for k, v in data["efficiency"].items()},
            timings={k: float(v) for k, v in data["timings"].items()},
            schema=data["schema"],
        )


# ----------------------------------------------------------------------


def bench_path(scenario: str, root: Union[str, Path] = ".") -> Path:
    """Where ``scenario``'s report lives: ``<root>/BENCH_<scenario>.json``."""
    return Path(root) / f"BENCH_{scenario}.json"


def write_report(report: BenchReport, root: Union[str, Path] = ".") -> Path:
    """Write ``report`` to its canonical path and return that path."""
    path = bench_path(report.scenario, root)
    path.write_text(report.to_json())
    return path


def read_report(path: Union[str, Path]) -> BenchReport:
    """Load and validate one ``BENCH_*.json`` file."""
    return BenchReport.from_json(Path(path).read_text())
