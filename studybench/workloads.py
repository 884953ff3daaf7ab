"""The benchmark's three study workloads, driven through repro's public API.

Each workload runs one study at a time from this process (a closed loop
with one client).  ``run_once`` performs one iteration -- set-up plus
study -- and returns a :class:`Sample` holding its timings and the result
the output checks and accuracy metrics read.

The world and the dirty-dataset plan are fixed; ``--seed`` drives the
study seed (probe noise, dataset sampling, pinning, cross-validation) and
the seed of the measurement fault plan.  At this scale another world seed
moves the probe count by about 25% and can leave no detectable VPI port,
and another dirty-dataset seed moves round-2 and VPI work by a third, so
either would swamp every metric's bound; see NOTES.md.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import (
    AmazonPeeringStudy,
    DataFaultPlan,
    EventSink,
    FaultPlan,
    StudyConfig,
    StudyInterrupted,
    StudyResult,
    StudySupervisor,
    World,
    WorldConfig,
    build_world,
)
from repro.obs import SpanRecord

from layers import LayerTimer

WORLD_SCALE = 0.005
WORLD_SEED = 13
EXPANSION_STRIDE = 8

#: CI's chaos plans (``.github/workflows/ci.yml``) combined, plus light
#: per-hop loss; the fault-plan seed is derived from ``--seed``.
HOSTILE_FAULTS = "rate-limit=0.3w3,loss=0.02,crash=0.25,crash-attempts=1"
#: CI's dirty-dataset plan, verbatim (seed included).
HOSTILE_DATA_FAULTS = (
    "bgp-stale=0.1,moas=0.05,as2org-drop=0.1,ixp-drop=0.2,"
    "ixp-conflict=0.1,whois-gap=0.2,whois-nameonly=0.3,seed=1"
)
HOSTILE_WORKERS = 2

#: ``crash-resume`` cancels once this round-2 shard has merged.  VPI
#: campaigns do not forward shard events to the study's sink, so round 2
#: is the latest campaign the hook can reach.
CANCEL_LABEL = "round2"
CANCEL_SHARD = 29

WORKLOADS = ("clean", "hostile", "crash-resume")


def derive_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for ``purpose``, a pure function of ``seed``."""
    digest = hashlib.sha256(f"studybench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def study_config(workload: str, seed: int) -> StudyConfig:
    """The study configuration of ``workload`` under ``seed``."""
    base = StudyConfig(
        scale=WORLD_SCALE,
        seed=derive_seed(seed, "study"),
        expansion_stride=EXPANSION_STRIDE,
        retry_backoff_s=0.0,
    )
    if workload in ("clean", "crash-resume"):
        return base
    if workload == "hostile":
        if HOSTILE_WORKERS > nproc():
            raise ValueError(
                f"hostile needs {HOSTILE_WORKERS} workers but only {nproc()} CPUs are available"
            )
        faults = FaultPlan.parse(f"{HOSTILE_FAULTS},seed={derive_seed(seed, 'faults')}")
        return base.replace(
            workers=HOSTILE_WORKERS,
            fault_plan=faults,
            data_fault_plan=DataFaultPlan.parse(HOSTILE_DATA_FAULTS),
            min_confidence=0.8,
            adaptive=True,
            breaker_threshold=2,
            recovery_rounds=2,
        )
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


# ----------------------------------------------------------------------


class SpanLog(EventSink):
    """Keeps every span a study closes, including those of a cancelled run."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def on_span_closed(self, record: SpanRecord) -> None:
        self.records.append(record)


class CancelAtShard(SpanLog):
    """Cancels the study once shard ``index`` of campaign ``label`` merges.

    The supervisor turns the request into ``StudyInterrupted`` at the
    executor's next safe point, so the journal holds exactly the shards
    merged up to and including ``index``.
    """

    def __init__(self, supervisor: StudySupervisor, label: str, index: int) -> None:
        super().__init__()
        self.supervisor = supervisor
        self.label = label
        self.index = index
        self.fired_at: Optional[Tuple[str, int]] = None

    def on_shard_merged(self, progress, timing) -> None:  # type: ignore[no-untyped-def]
        if self.fired_at is None and progress.label == self.label and timing.index == self.index:
            self.fired_at = (progress.label, timing.index)
            self.supervisor.request_cancel(f"studybench: cancel after {self.label} shard {self.index}")


@dataclass
class Sample:
    """One iteration of a workload: set-up plus study."""

    build_world_s: float
    study_init_s: float
    study_s: float
    cpu_s: float
    digest: str
    world: World
    result: StudyResult
    #: every span closed by the iteration's studies (traced runs only).
    spans: List[SpanRecord] = field(default_factory=list)
    #: ``(label, shard)`` where ``crash-resume`` cancelled.
    cancelled_at: Optional[Tuple[str, int]] = None
    #: bytes of shard journals and stage records left by ``crash-resume``.
    store_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.build_world_s + self.study_init_s


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped pool worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class _Timed:
    """Accumulates wall and CPU time over several ``with`` blocks.

    With a ``timer``, the layers' wrappers are installed only inside the
    blocks, so set-up never reaches the per-layer table.
    """

    def __init__(self, timer: Optional[LayerTimer] = None) -> None:
        self.timer = timer
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "_Timed":
        if self.timer is not None:
            self.timer.install()
        self._wall0 = time.perf_counter()
        self._cpu0 = _cpu_seconds()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += _cpu_seconds() - self._cpu0
        if self.timer is not None:
            self.timer.uninstall()


def _set_up(
    config: StudyConfig, events: Optional[EventSink] = None,
    supervisor: Optional[StudySupervisor] = None,
) -> Tuple[World, AmazonPeeringStudy, float, float]:
    t0 = time.perf_counter()
    world = build_world(WorldConfig(scale=WORLD_SCALE, seed=WORLD_SEED))
    t1 = time.perf_counter()
    study = AmazonPeeringStudy(world, config, events=events, supervisor=supervisor)
    return world, study, t1 - t0, time.perf_counter() - t1


@contextmanager
def _checkpointed(config: StudyConfig, workdir: Path) -> Iterator[Tuple[StudyConfig, Path]]:
    """``config`` with a fresh checkpoint directory under ``workdir``, removed afterwards."""
    ckpt = Path(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))
    try:
        yield config.replace(checkpoint_dir=str(ckpt)), ckpt
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)


def set_up_only(workload: str, seed: int, workdir: Path) -> float:
    """Set-up seconds of one iteration of ``workload``, without its study."""
    config = study_config(workload, seed)
    if workload != "crash-resume":
        return sum(_set_up(config)[2:])
    with _checkpointed(config, workdir) as (config, _ckpt):
        return sum(_set_up(config)[2:]) + sum(_set_up(config.replace(resume=True))[2:])


def reference_digest(workload: str, seed: int) -> str:
    """Digest of an uninterrupted study without checkpoints (untimed)."""
    _world, study, _b, _i = _set_up(study_config(workload, seed))
    return study.run().digest()


def run_once(
    workload: str, seed: int, workdir: Path, timer: Optional[LayerTimer] = None,
) -> Sample:
    """One iteration of ``workload``; raises if the study fails.

    With a ``timer`` the studies run traced and the sample keeps their spans.
    """
    config = study_config(workload, seed)
    record_spans = timer is not None
    if workload != "crash-resume":
        log = SpanLog() if record_spans else None
        world, study, build_s, init_s = _set_up(config, events=log)
        with _Timed(timer) as timed:
            result = study.run()
        return Sample(
            build_world_s=build_s, study_init_s=init_s, study_s=timed.wall,
            cpu_s=timed.cpu, digest=result.digest(), world=world, result=result,
            spans=log.records if log is not None else [],
        )

    with _checkpointed(config, workdir) as (config, ckpt):
        supervisor = StudySupervisor()
        cancel = CancelAtShard(supervisor, CANCEL_LABEL, CANCEL_SHARD)
        _world, study, build1, init1 = _set_up(config, events=cancel, supervisor=supervisor)
        timed = _Timed(timer)
        try:
            with timed:
                study.run()
        except StudyInterrupted:
            pass
        if cancel.fired_at is None:
            raise RuntimeError(
                f"crash-resume never reached {CANCEL_LABEL} shard {CANCEL_SHARD}"
            )
        # Resume as a restarted process would: a fresh world and study.
        log = SpanLog()
        world, study, build2, init2 = _set_up(config.replace(resume=True), events=log)
        with timed:
            result = study.run()
        return Sample(
            build_world_s=build1 + build2, study_init_s=init1 + init2,
            study_s=timed.wall, cpu_s=timed.cpu, digest=result.digest(),
            world=world, result=result,
            spans=(cancel.records + log.records) if record_spans else [],
            cancelled_at=cancel.fired_at, store_bytes=checkpoint_bytes(ckpt),
        )


def delivered_and_lost(result: StudyResult) -> Tuple[int, int]:
    """Probes delivered and lost over round 1, round 2 and the VPI campaigns."""
    stats = [result.round1_stats, result.round2_stats]
    if result.vpi is not None:
        stats.extend(result.vpi.stats.values())
    present = [s for s in stats if s is not None]
    return sum(s.probes for s in present), sum(s.lost_probes for s in present)


def checkpoint_bytes(root: Path) -> Dict[str, int]:
    """Bytes on disk of shard journals and stage records under ``root``."""
    journals = sum(p.stat().st_size for p in root.glob("*.jsonl"))
    stages = sum(p.stat().st_size for p in root.glob("stage_*.json"))
    return {"journals": journals, "stages": stages}
