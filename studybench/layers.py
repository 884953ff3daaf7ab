"""Per-layer call counts and self time, measured from outside the program.

:class:`LayerTimer` replaces each layer's public entry points with timing
wrappers while it is installed, and puts every original back when it is
uninstalled.  Nothing under ``src/`` knows it is being timed.

Self time is a function's own time minus the time of the wrapped
functions it calls, so the self times of all wrapped functions sum to the
time spent inside any of them.  The stage spans the pipeline opens through
``StudyMetrics.stage`` are wrapped the same way; a stage's self time is
the stage's own code (heuristics, pinning, census, ...) outside every
other wrapped layer.  The stages that run campaigns are not layers of
their own, so their self time is left unattributed (``PROBING_STAGES``).

Pool workers are forked from a process that has the wrappers installed.
A fork hook restores the originals in each child, so workers run the
untraced code; their work is read from the program's own shard spans
instead (``worker_seconds``).
"""

from __future__ import annotations

import functools
import multiprocessing.pool
import os
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import pipeline
from repro.core.annotate import HopAnnotator
from repro.core.borders import BorderObservatory
from repro.core.stages import StageStore
from repro.datasets.bgp import BGPSnapshot
from repro.measure import executor
from repro.measure.adapt import ProbeGovernor
from repro.measure.campaign import CloudMembership
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.faults import FaultPlan
from repro.measure.metrics import StudyMetrics
from repro.measure.traceroute import TracerouteEngine
from repro.world.model import World

#: (slot, owner, attribute) of every timed entry point.
ENTRY_POINTS: Tuple[Tuple[str, Any, str], ...] = (
    ("world.resolve_path", World, "resolve_path"),
    ("traceroute.trace", TracerouteEngine, "trace"),
    ("traceroute.probe_rng", TracerouteEngine, "probe_rng"),
    ("faults.hop_suppressed", FaultPlan, "hop_suppressed"),
    ("campaign.left_cloud", CloudMembership, "left_cloud"),
    ("executor.run", executor.ShardedExecutor, "run"),
    ("executor.trace_shard", executor, "trace_shard"),
    # The parent's wait for a pooled shard attempt.
    ("executor.wait", multiprocessing.pool.ApplyResult, "get"),
    ("checkpoint.put", CampaignCheckpoint, "put"),
    ("checkpoint.finalize", CampaignCheckpoint, "finalize"),
    ("checkpoint.open", CheckpointStore, "campaign"),
    ("stages.save", StageStore, "save"),
    ("stages.load", StageStore, "load"),
    ("adapt.admit", ProbeGovernor, "admit"),
    # The pipeline calls run_recovery through its own module's name.
    ("adapt.recovery", pipeline, "run_recovery"),
    ("borders.ingest", BorderObservatory, "ingest"),
    ("annotate", HopAnnotator, "annotate"),
    ("bgp.lookup", BGPSnapshot, "lookup"),
)

#: Stages whose own code only drives campaigns through the entry points
#: above.  Their self time counts as unattributed, so that a costly
#: function left unwrapped on the probe path fails the attribution check
#: instead of passing as stage time.
PROBING_STAGES = ("round1", "round2", "recovery", "vpi")


class Slot:
    """Calls, self time and an optional tally of one wrapped function."""

    __slots__ = ("calls", "self_s", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: what the slot's tally function summed over returned values.
        self.tally = 0.0


class LayerTimer:
    """Times the layers' entry points while installed (a context manager)."""

    def __init__(self) -> None:
        self.slots: Dict[str, Slot] = {}
        #: child-time accumulators of the open wrapped calls; element 0
        #: collects the time of every outermost wrapped call.
        self._stack: List[float] = [0.0]
        self._originals: List[Tuple[Any, str, Any]] = []
        self._fork_hook = False
        #: the stage whose span is open, if any.
        self.stage: Optional[str] = None
        #: ``TracerouteEngine.trace`` calls made by the recovery stage.
        self.reprobes = 0

    # ------------------------------------------------------------------

    def slot(self, name: str) -> Slot:
        found = self.slots.get(name)
        if found is None:
            found = self.slots[name] = Slot()
        return found

    @property
    def attributed_s(self) -> float:
        """Self time of the named layers: every slot but ``PROBING_STAGES``'."""
        probing = sum(self.slot(f"stage.{name}").self_s for name in PROBING_STAGES)
        return self._stack[0] - probing

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # ------------------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("LayerTimer is already installed")
        tallies: Dict[str, Callable[[Any], float]] = {
            "traceroute.trace": self._tally_trace,
            "faults.hop_suppressed": bool,
            "campaign.left_cloud": bool,
            "borders.ingest": lambda segment: segment is not None,
        }
        for name, owner, attr in ENTRY_POINTS:
            self._patch(owner, attr, self._timed(vars(owner)[attr], self.slot(name), tallies.get(name)))
        self._patch(StudyMetrics, "stage", self._timed_stage(vars(StudyMetrics)["stage"]))
        if not self._fork_hook:
            # Registered once per timer and never removed, so it holds the
            # timer weakly and does nothing once the timer is uninstalled.
            ref = weakref.ref(self)
            os.register_at_fork(after_in_child=lambda: _restore_in_child(ref))
            self._fork_hook = True

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        self.stage = None

    def __enter__(self) -> "LayerTimer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _tally_trace(self, trace: Any) -> float:
        if self.stage == "recovery":
            self.reprobes += 1
        return len(trace.hops)

    def _timed(
        self, fn: Callable[..., Any], slot: Slot,
        tally: Optional[Callable[[Any], float]],
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot.self_s += elapsed - stack.pop()
                slot.calls += 1
                stack[-1] += elapsed
            if tally is not None:
                slot.tally += tally(result)
            return result

        return timed

    def _timed_stage(self, stage_cm: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        @contextmanager
        @functools.wraps(stage_cm)
        def stage(metrics: StudyMetrics, name: str) -> Iterator[Any]:
            slot = self.slot(f"stage.{name}")
            outer, self.stage = self.stage, name
            stack.append(0.0)
            start = clock()
            try:
                with stage_cm(metrics, name) as span:
                    yield span
            finally:
                elapsed = clock() - start
                slot.self_s += elapsed - stack.pop()
                slot.calls += 1
                stack[-1] += elapsed
                self.stage = outer

        return stage


def _restore_in_child(ref: "weakref.ReferenceType[LayerTimer]") -> None:
    timer = ref()
    if timer is not None:
        timer.uninstall()
