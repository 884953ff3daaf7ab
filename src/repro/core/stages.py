"""Stage-level checkpointing for the end-to-end study.

PR 2 made individual probing campaigns crash-safe (shard journals); this
module extends the same contract to the whole pipeline.  Each of the
study's stages (validate -> round1 -> ... -> quality) serializes its
output into a :class:`StageStore` under ``--checkpoint-dir``, so a study
killed *between* campaigns -- during pinning, grouping, or VPI detection
-- resumes by loading completed stages instead of recomputing them, and
still reproduces the clean run's digest bit-for-bit.

Three pieces:

* a **canonical codec** (:func:`encode` / :func:`decode`) mapping every
  stage-payload type -- the result dataclasses, sets of interfaces,
  tuple-keyed dicts, ``Counter`` s -- onto tagged JSON.  Sets are sorted
  at encode time and dict order is preserved, so the serialized bytes
  are deterministic and a decoded payload drives downstream stages to
  byte-identical outputs;
* a :class:`StageStore`: one ``stage_<name>.json`` record file
  (:mod:`repro.fsutil`) per stage, its header carrying the stage's chain
  fingerprint and its one row the payload with a sha256 over the payload
  bytes.  Each save is fsynced; a missing, torn, stale or tampered file
  is recomputed rather than trusted;
* a :class:`StageChain` of fingerprints: each stage's identity covers
  the study inputs (world scale/seed, study seed, strides, fault-plan
  signatures) *plus every upstream stage's payload digest*, so editing
  anything upstream invalidates everything downstream.  Execution knobs
  that never change content -- worker count, retry policy, tracing --
  are deliberately excluded, which is what lets a study killed under
  ``workers=4`` resume under ``workers=1`` with an identical digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.errors import DataError
from repro.fsutil import RecordLog, read_records, safe_name
from repro.core.aliasverify import AliasOwnership, VerificationResult
from repro.core.anchors import AnchorSet
from repro.core.borders import ObservatoryStats, SegmentRecord
from repro.core.crossval import CrossValidationResult, FoldResult
from repro.core.graph import ICGSummary
from repro.core.grouping import GroupingResult, PeeringRecord
from repro.core.heuristics import HeuristicOutcome
from repro.core.pinning import PinnedLocation, PinningResult, RegionalAssignment
from repro.core.results import DataQualityReport, InterfaceCensus
from repro.core.vpi import VPIDetectionResult
from repro.datasets.datafaults import DataFaultPlan
from repro.datasets.validate import DatasetValidationReport
from repro.measure.adapt import DeferredTarget, RecoveryReport
from repro.measure.campaign import CampaignStats
from repro.measure.health import BreakerEvent, CircuitBreaker

if TYPE_CHECKING:
    from repro.core.config import StudyConfig

#: The fixed stage order of ``AmazonPeeringStudy.run`` (§3 through §7).
#: Each name ``<stage>`` is computed by ``AmazonPeeringStudy._compute_<stage>``;
#: :func:`stages_for` says which of them a configuration runs.
STAGE_ORDER = (
    "validate",
    "round1",
    "round2",
    "recovery",
    "heuristics",
    "alias",
    "pinning",
    "crossval",
    "vpi",
    "grouping",
    "icg",
    "quality",
)


def stages_for(config: StudyConfig) -> Tuple[str, ...]:
    """The stages ``config`` runs, in :data:`STAGE_ORDER`.

    Three stages are optional: ``recovery`` runs only with
    ``adaptive``, ``crossval`` only with ``run_crossval``, and ``vpi``
    only with ``run_vpi``; every other stage always runs.
    """
    skipped: Set[str] = set()
    if not config.adaptive:
        skipped.add("recovery")
    if not config.run_crossval:
        skipped.add("crossval")
    if not config.run_vpi:
        skipped.add("vpi")
    return tuple(name for name in STAGE_ORDER if name not in skipped)


#: Every dataclass a stage payload may contain.  The codec refuses
#: anything not listed here -- an unknown type in a payload is a bug,
#: not something to pickle silently.  Changing one's fields means
#: bumping :data:`repro.fsutil.RECORD_FORMAT_VERSION`, so a record
#: written under the old shape is recomputed, not decoded with defaults.
_REGISTERED_TYPES: Tuple[Type[Any], ...] = (
    AliasOwnership,
    AnchorSet,
    BreakerEvent,
    CampaignStats,
    CircuitBreaker,
    CrossValidationResult,
    DataFaultPlan,
    DataQualityReport,
    DatasetValidationReport,
    DeferredTarget,
    FoldResult,
    GroupingResult,
    HeuristicOutcome,
    ICGSummary,
    InterfaceCensus,
    ObservatoryStats,
    PeeringRecord,
    PinnedLocation,
    PinningResult,
    RecoveryReport,
    RegionalAssignment,
    SegmentRecord,
    VerificationResult,
    VPIDetectionResult,
)

_REGISTRY: Dict[str, Type[Any]] = {cls.__name__: cls for cls in _REGISTERED_TYPES}

Encoded = Union[None, bool, int, float, str, List[Any], Dict[str, Any]]


def _sorted_members(value: Any) -> List[Any]:
    """Set members in a deterministic order.

    Natural sort when the members are comparable (ints, strings, int
    tuples -- every set the pipeline produces); encoded-JSON order as the
    general fallback.
    """
    try:
        return sorted(value)
    except TypeError:
        return sorted(
            value, key=lambda v: json.dumps(encode(v), sort_keys=True)
        )


def encode(value: Any) -> Encoded:
    """Map a stage-payload object onto tagged, canonical JSON.

    Sets/frozensets are sorted (their iteration order is an
    implementation detail); dicts and Counters keep insertion order,
    which in this pipeline is itself deterministic (the serial merge
    order) and must survive the round trip so downstream iteration sees
    exactly what a live run would have seen.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, tuple):
        return {"__t__": [encode(v) for v in value]}
    if isinstance(value, Counter):
        # Counter before dict: it is a dict subclass.
        return {"__c__": [[encode(k), encode(v)] for k, v in value.items()]}
    if isinstance(value, dict):
        return {"__d__": [[encode(k), encode(v)] for k, v in value.items()]}
    if isinstance(value, frozenset):
        return {"__f__": [encode(v) for v in _sorted_members(value)]}
    if isinstance(value, set):
        return {"__s__": [encode(v) for v in _sorted_members(value)]}
    if dataclasses.is_dataclass(value) and type(value).__name__ in _REGISTRY:
        return {
            "__dc__": type(value).__name__,
            "fields": {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    raise DataError(
        f"cannot encode {type(value).__name__} into a stage checkpoint "
        f"(register it in repro.core.stages)"
    )


def decode(value: Encoded) -> Any:
    """Inverse of :func:`encode`; raises :class:`DataError` on bad input."""
    if isinstance(value, list):
        return [decode(v) for v in value]
    if isinstance(value, dict):
        if "__t__" in value:
            return tuple(decode(v) for v in value["__t__"])
        if "__s__" in value:
            return {decode(v) for v in value["__s__"]}
        if "__f__" in value:
            return frozenset(decode(v) for v in value["__f__"])
        if "__c__" in value:
            counter: Counter = Counter()
            for key, val in value["__c__"]:
                counter[decode(key)] = decode(val)
            return counter
        if "__d__" in value:
            return {decode(k): decode(v) for k, v in value["__d__"]}
        if "__dc__" in value:
            name = value["__dc__"]
            cls = _REGISTRY.get(name)
            if cls is None:
                raise DataError(f"unknown dataclass in stage checkpoint: {name}")
            fields = value.get("fields")
            if not isinstance(fields, dict):
                raise DataError(f"malformed dataclass record for {name}")
            try:
                return cls(**{k: decode(v) for k, v in fields.items()})
            except TypeError as exc:
                raise DataError(f"stale dataclass record for {name}: {exc}") from exc
        raise DataError(f"unknown codec tag in stage checkpoint: {sorted(value)}")
    return value


def payload_digest(encoded: Encoded) -> str:
    """sha256 over the canonical JSON bytes of an encoded payload."""
    return hashlib.sha256(
        json.dumps(encoded, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def study_fingerprint(
    world_scale: float, world_seed: int, config: StudyConfig
) -> str:
    """Identity of the study's *content* inputs.

    Covers everything that changes what a stage computes: the world,
    the study seed and strides, which stages run, the confidence floor,
    and the content-bearing sides of both fault plans (observation
    faults via ``probe_signature``; transport faults never change a
    completed shard's traces and are excluded, exactly like campaign
    journal fingerprints).  Execution knobs -- workers, retry policy,
    checkpointing, tracing, cache sharing, supervision budgets -- are
    excluded by design: a resumed study may run under different ones.
    """
    fault_plan = config.fault_plan
    data_plan = config.data_fault_plan
    return hashlib.sha256(
        repr(
            (
                "study-v1",
                world_scale,
                world_seed,
                config.seed,
                config.expansion_stride,
                config.crossval_folds,
                config.run_vpi,
                config.run_crossval,
                config.min_confidence,
                config.adaptive,
                config.breaker_threshold,
                config.recovery_rounds,
                fault_plan.probe_signature() if fault_plan else "clean",
                data_plan.to_spec() if data_plan else "clean",
            )
        ).encode()
    ).hexdigest()


class StageChain:
    """Rolling fingerprint over the stages executed so far.

    ``fingerprint(stage)`` is the identity a stage's checkpoint is
    stored (and validated) under; ``advance(stage, digest)`` folds the
    completed stage's payload digest into the chain, so any change to an
    upstream stage's output invalidates every downstream checkpoint.
    """

    def __init__(self, base: str) -> None:
        self._chain = base

    def fingerprint(self, stage: str) -> str:
        return hashlib.sha256(f"{self._chain}|{stage}".encode()).hexdigest()

    def advance(self, stage: str, digest: str) -> None:
        self._chain = hashlib.sha256(
            f"{self._chain}|{stage}|{digest}".encode()
        ).hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class StageStore:
    """One checkpoint record file per pipeline stage.

    Files live beside the campaign shard journals under the study's
    checkpoint directory.  Opening the store never touches them: like a
    campaign journal, a stage's file is rewritten only when that stage
    is computed again, and whether a run reads them at all is the
    study's ``resume`` choice.  Reads are defensive: a torn, truncated,
    stale, or fingerprint-mismatched file yields ``None`` (recompute) --
    never an exception.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, stage: str) -> Path:
        return self.root / f"stage_{safe_name(stage, 'stage')}.json"

    def load(
        self, stage: str, fingerprint: str
    ) -> Optional[Tuple[Dict[str, Any], str]]:
        """The decoded payload and its digest, or ``None`` to recompute."""
        rows = read_records(self._path(stage), fingerprint)
        if len(rows) != 1:
            return None  # missing, stale, or torn
        encoded = rows[0].get("payload")
        digest = rows[0].get("payload_digest")
        if not isinstance(digest, str) or payload_digest(encoded) != digest:
            return None  # bytes do not match their own checksum
        try:
            payload = decode(encoded)
        except DataError:
            return None
        if not isinstance(payload, dict):
            return None
        return payload, digest

    def save(self, stage: str, fingerprint: str, payload: Dict[str, Any]) -> str:
        """Persist one stage's payload, fsynced; returns its digest.

        The file is rewritten in place.  A hard kill mid-save leaves a
        torn file, which :meth:`load` reads as "recompute"; the file it
        replaced was either invalid for this chain -- its fingerprint
        did not match, which is why the stage was recomputed -- or a
        valid record of this same payload that a run without ``resume``
        chose not to read.
        """
        encoded = encode(payload)
        digest = payload_digest(encoded)
        log = RecordLog(self._path(stage), fingerprint, resume=False)
        log.append({"payload_digest": digest, "payload": encoded})
        log.sync()
        return digest
