"""Frozen study configuration.

:class:`StudyConfig` is the one way to configure
``AmazonPeeringStudy(world, StudyConfig(...))``.  It is immutable (safe
to share with worker processes and to record on the ``StudyResult`` for
provenance) and carries every knob the end-to-end run honours --
including the resilience surface: an optional
:class:`~repro.measure.faults.FaultPlan` (the study's one fault plan,
carried by its engine), the per-shard timeout (the one wait horizon for
a pooled shard) and retry bounds, and the checkpoint directory that
makes a killed campaign resumable.

A config can also live in a TOML file (``repro study --config study.toml``,
with CLI flags as overrides): :meth:`StudyConfig.from_file` /
:meth:`StudyConfig.from_toml` read one, :meth:`StudyConfig.to_toml`
writes one, and the pair round-trips every field -- fault plans travel as
their compact ``parse()`` spec strings.  A key that is not a field fails
loudly ("unknown config key"), so a file that still sets a knob a later
version removed must drop it.
"""

from __future__ import annotations

import dataclasses
import json
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.datasets.datafaults import DataFaultPlan
from repro.measure.faults import FaultPlan


@dataclass(frozen=True)
class StudyConfig:
    """Every knob of the end-to-end study, in one immutable record.

    ``scale`` is informational provenance: the world is built separately,
    so ``None`` means "whatever the world was built with".
    """

    scale: Optional[float] = None
    seed: int = 0
    expansion_stride: int = 1
    crossval_folds: int = 10
    run_vpi: bool = True
    run_crossval: bool = True
    workers: int = 1

    # --- resilience / chaos --------------------------------------------
    #: deterministic fault schedule, carried by the study's engine: its
    #: observation side shapes traces, its transport side fires per shard.
    fault_plan: Optional[FaultPlan] = None
    #: seconds before a silent pooled shard attempt is abandoned and
    #: retried inline (None = wait forever).
    shard_timeout: Optional[float] = None
    #: retries per shard before quarantine (0 = fail fast).
    max_retries: int = 2
    #: first retry backoff; doubles per retry.
    retry_backoff_s: float = 0.05
    #: directory for per-campaign shard journals (None = no checkpoints).
    checkpoint_dir: Optional[str] = None
    #: replay finished shards from ``checkpoint_dir`` instead of
    #: re-probing them (requires ``checkpoint_dir``).
    resume: bool = False

    # --- adaptive resilience (DESIGN.md §6.6) ---------------------------
    #: engage the health ledger + circuit breakers + probe governor and
    #: append the bounded re-probe recovery stage.  Off by default: the
    #: non-adaptive digest is bit-identical to the historical golden.
    adaptive: bool = False
    #: consecutive rate-limit fingerprints that trip a region's breaker.
    breaker_threshold: int = 3
    #: bounded re-probe rounds appended after round 2 (0 = defer-only;
    #: deferred probes then heal via the salt-0 fallback).
    recovery_rounds: int = 1

    # --- supervision ----------------------------------------------------
    #: wall-clock budget for the whole study; exceeding it raises a
    #: *resumable* interrupt (DeadlineExceeded), never a failure.
    deadline_s: Optional[float] = None
    #: study-wide cap on shard retries across all campaigns (None =
    #: unbounded; the per-shard ``max_retries`` always applies too).
    retry_budget: Optional[int] = None

    # --- data quality ---------------------------------------------------
    #: deterministic dataset-degradation schedule (dirty BGP/WHOIS/
    #: as2org/IXP views); None = pristine datasets.
    data_fault_plan: Optional[DataFaultPlan] = None
    #: annotation-confidence floor below which CBIs, confirmed ABIs, and
    #: pins are flagged in the data-quality report (0 = no flagging).
    min_confidence: float = 0.0

    # --- observability --------------------------------------------------
    #: record fine-grained worker-side spans (probe batches, fault
    #: delays, wire packing).  Coarse spans (study/stage/campaign/shard)
    #: are always recorded; tracing never affects the digest.
    trace: bool = False
    #: write the study's span stream here after the run (``*.jsonl`` ->
    #: JSONL, anything else -> Chrome trace JSON).  Implies ``trace``.
    trace_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.expansion_stride < 1:
            raise ValueError(
                f"expansion_stride must be >= 1, got {self.expansion_stride}"
            )
        if self.crossval_folds < 2:
            raise ValueError(
                f"crossval_folds must be >= 2, got {self.crossval_folds}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume=True requires checkpoint_dir")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.recovery_rounds < 0:
            raise ValueError(
                f"recovery_rounds must be >= 0, got {self.recovery_rounds}"
            )

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "StudyConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    # --- TOML config files ---------------------------------------------

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "StudyConfig":
        """Build a config from a plain mapping (parsed TOML).

        Fault plans may be given as compact spec strings (the
        ``FaultPlan.parse`` / ``DataFaultPlan.parse`` grammar) or as
        already-built plan objects.  Unknown keys raise ``ValueError`` so
        a typo in a config file fails loudly instead of silently running
        the defaults.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs: Dict[str, Any] = dict(data)
        plan = kwargs.get("fault_plan")
        if isinstance(plan, str):
            kwargs["fault_plan"] = FaultPlan.parse(plan)
        data_plan = kwargs.get("data_fault_plan")
        if isinstance(data_plan, str):
            kwargs["data_fault_plan"] = DataFaultPlan.parse(data_plan)
        return cls(**kwargs)

    @classmethod
    def from_toml(cls, text: str) -> "StudyConfig":
        """Parse a TOML document of flat ``key = value`` config entries."""
        return cls.from_mapping(tomllib.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "StudyConfig":
        """Load a config from a TOML file (see ``to_toml`` for the shape)."""
        return cls.from_toml(Path(path).read_text())

    def to_toml(self) -> str:
        """This config as a TOML document ``from_toml`` round-trips.

        ``None`` fields are omitted (TOML has no null; absence means
        "default"), and fault plans are serialized as their canonical
        ``to_spec()`` strings.
        """
        lines = ["# repro study configuration (repro study --config <file>)"]
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            if isinstance(value, (FaultPlan, DataFaultPlan)):
                value = value.to_spec()
            lines.append(f"{field.name} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"


def _toml_value(value: Any) -> str:
    """Render one scalar as a TOML literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as TOML: {value!r}")
