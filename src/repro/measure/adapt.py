"""Adaptive probe-budget governor and bounded re-probe recovery rounds.

The *acting* half of the adaptive control plane (the sensing half is
:mod:`repro.measure.health`): the :class:`ProbeGovernor` sits on the
executor's serial merge stream and decides, per merged trace, whether to
admit it downstream or defer its target behind an open circuit breaker;
quarantined shards feed the same ledger and queue their targets for
recovery.  :func:`run_recovery` is the bounded re-probe round the
pipeline runs as its recovery stage: it half-opens open breakers with a
trial-probe budget and re-issues deferred/lost probes through them,
healing completeness that a non-adaptive run permanently loses.

Determinism (DESIGN.md §6.6): governor decisions happen at **merge
time** -- the executor's merge order is the serial order at any worker
count -- and recovery re-probes run serially in deferral order, salted
per recovery round (``TracerouteEngine.trace(..., salt=r)`` re-draws
only the *fault* hashes, never the base noise stream).  A fixed
``(seed, fault plan)`` pair therefore yields one digest across any
worker count.  Re-pacing never loses probes: a breaker-deferred target
that stays sick through every recovery round falls back to its salt-0
trace -- exactly what the non-adaptive run would have recorded -- so
adaptive completeness is never below the non-adaptive run's.  Probes
lost to quarantine heal only through a breaker that closes; they stay
lost otherwise, exactly as today.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Tuple

from repro.measure.campaign import CampaignStats
from repro.measure.health import (
    BreakerEvent,
    BreakerState,
    CircuitBreaker,
    HealthLedger,
    classify,
)
from repro.measure.traceroute import Traceroute

if TYPE_CHECKING:
    from repro.measure.executor import ShardedExecutor

#: Half-open trial probes granted per breaker per recovery round.
TRIAL_BUDGET = 8

#: Why a target sits in the recovery queue.  Breaker-deferred targets
#: re-probe at ``salt = recovery round`` (a fresh fault draw); targets
#: lost to shard quarantine re-probe at salt 0 -- their clean-run
#: content was never observed, so recovery restores it verbatim.
CAUSE_BREAKER = "breaker"
CAUSE_QUARANTINE = "quarantine"


@dataclass(frozen=True)
class DeferredTarget:
    """One probe the governor re-paced instead of burning."""

    label: str
    cloud: str
    region: str
    dst: int
    cause: str
    #: whether the salt-0 trace the merge saw completed.  Recovery
    #: replays that baseline only when it can use it (see ``deliver``);
    #: always ``False`` for a quarantined target, whose trace was never
    #: observed and which never consults it.
    baseline_completed: bool


@dataclass(frozen=True)
class RecoveryReport:
    """What the recovery round did (stage payload + resilience report)."""

    rounds_run: int
    deferred: int
    quarantine_lost: int
    recovered: int
    #: breaker-deferred targets accepted at salt 0 after the rounds were
    #: exhausted (re-paced back to their non-adaptive content).
    fallback_recovered: int
    still_lost: int
    trial_probes: int
    recovered_by_label: Tuple[Tuple[str, int], ...]
    #: copies of the ledger's breakers once recovery finished.
    breakers: Tuple[CircuitBreaker, ...]

    @property
    def breaker_events(self) -> Tuple[BreakerEvent, ...]:
        return tuple(e for breaker in self.breakers for e in breaker.events)


class ProbeGovernor:
    """Merge-time admit/defer decisions over the health ledger.

    One governor spans every campaign of a study run, so breaker state
    carries from round 1 into round 2.  All mutation happens in the
    executor's serial merge order (or in :func:`run_recovery`'s serial
    replay), which is what keeps adaptation worker-count invariant.
    """

    def __init__(self, ledger: HealthLedger, cloud: str = "amazon") -> None:
        self.ledger = ledger
        self.cloud = cloud
        self._label = "campaign"
        self._pending: List[DeferredTarget] = []
        self.admitted = 0
        self.deferred = 0
        self.quarantined = 0

    # ------------------------------------------------------------------

    def begin_campaign(self, label: str) -> None:
        """Tag subsequent deferrals with the campaign they came from."""
        self._label = label

    def admit(self, trace: Traceroute) -> bool:
        """Admit (and fold) or defer one merged trace, in merge order."""
        breaker = self.ledger.breaker(trace.cloud, trace.region)
        if breaker.state == BreakerState.OPEN:
            self._pending.append(
                DeferredTarget(
                    label=self._label,
                    cloud=trace.cloud,
                    region=trace.region,
                    dst=trace.dst,
                    cause=CAUSE_BREAKER,
                    baseline_completed=trace.completed,
                )
            )
            self.deferred += 1
            return False
        breaker.record(classify(trace))
        self.admitted += 1
        return True

    def note_quarantine(self, region: str, targets: Tuple[int, ...]) -> None:
        """A shard quarantined: fold the loss, queue targets for recovery."""
        self.ledger.note_quarantine(self.cloud, region, len(targets))
        for dst in targets:
            self._pending.append(
                DeferredTarget(
                    label=self._label,
                    cloud=self.cloud,
                    region=region,
                    dst=dst,
                    cause=CAUSE_QUARANTINE,
                    baseline_completed=False,
                )
            )
        self.quarantined += len(targets)

    # ------------------------------------------------------------------

    @property
    def pending(self) -> Tuple[DeferredTarget, ...]:
        return tuple(self._pending)

    def take_pending(self) -> List[DeferredTarget]:
        """Drain the recovery queue (the recovery round owns it now)."""
        pending, self._pending = self._pending, []
        return pending

    # ------------------------------------------------------------------
    # stage-checkpoint round trip
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "breakers": self.ledger.snapshot(),
            "pending": tuple(self._pending),
            "admitted": self.admitted,
            "deferred": self.deferred,
            "quarantined": self.quarantined,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.ledger.restore(state["breakers"])
        self._pending = list(state["pending"])
        self.admitted = int(state["admitted"])
        self.deferred = int(state["deferred"])
        self.quarantined = int(state["quarantined"])


# ----------------------------------------------------------------------
# the bounded re-probe recovery round
# ----------------------------------------------------------------------


def _salt_for(target: DeferredTarget, round_index: int) -> int:
    return 0 if target.cause == CAUSE_QUARANTINE else round_index


def run_recovery(
    governor: ProbeGovernor,
    executor: "ShardedExecutor",
    stats_by_label: Mapping[str, CampaignStats],
    ingest: Callable[[Traceroute], object],
    rounds: int,
    trial_budget: int = TRIAL_BUDGET,
) -> RecoveryReport:
    """Re-issue deferred/lost probes through half-open breakers.

    Serial and deterministic: rounds run in order, regions in sorted
    order, targets in deferral order.  Each round half-opens every open
    breaker it visits (spending one unit of the study-wide retry budget
    per breaker, when a budget is configured) and re-probes through it;
    the supervisor is polled between regions so ``--deadline`` and
    cancellation are honoured at safe points.  Engine, supervisor,
    tracer, observer and the governor's cloud membership are the
    ``executor``'s, the ones the campaigns ran with.  Each recovered
    trace goes to ``ingest`` (the observatory), then to the observer's
    ``on_probe``, and heals its campaign's stats.
    """
    engine = executor.engine
    membership = executor.membership(governor.cloud)
    on_probe = executor.events.on_probe
    supervisor = executor.supervisor
    pending = governor.take_pending()
    deferred_total = sum(1 for t in pending if t.cause == CAUSE_BREAKER)
    quarantine_total = len(pending) - deferred_total
    recovered = 0
    fallback = 0
    trial_probes = 0
    rounds_run = 0
    by_label: Dict[str, int] = {}

    def accept(target: DeferredTarget, trace: Traceroute) -> None:
        nonlocal recovered
        stats = stats_by_label.get(target.label)
        if stats is not None:
            stats.record(trace, membership.left_cloud(trace))
            stats.lost_probes -= 1
            stats.recovered_probes += 1
        ingest(trace)
        on_probe(trace)
        by_label[target.label] = by_label.get(target.label, 0) + 1
        recovered += 1

    def deliver(target: DeferredTarget, trace: Traceroute) -> Traceroute:
        """Clamp a re-probe to no worse than its salt-0 baseline.

        A salted re-probe can be fingerprint-free yet lose the
        destination (the window landed on the tail), while the salt-0
        trace -- what the non-adaptive run records -- completed.
        Re-pacing must never cost coverage, so an incomplete salted
        trace yields to a completed baseline.  The merge already saw
        that baseline when the governor deferred it, so it is replayed
        only when ``target.baseline_completed`` says it will be used.
        Deterministic: the baseline is a pure replay.
        """
        if (
            target.cause == CAUSE_BREAKER
            and target.baseline_completed
            and not trace.completed
        ):
            return engine.trace(target.cloud, target.region, target.dst, salt=0)
        return trace

    for round_index in range(1, max(0, rounds) + 1):
        if not pending:
            break
        supervisor.poll()
        rounds_run += 1
        span = executor.tracer.span(f"recovery:{round_index}", category="recovery")
        span.set("queued", len(pending))
        recovered_before = recovered
        next_pending: List[DeferredTarget] = []
        for key in sorted({(t.cloud, t.region) for t in pending}):
            supervisor.poll()
            cloud, region = key
            queue = [t for t in pending if (t.cloud, t.region) == key]
            breaker = governor.ledger.breaker(cloud, region)
            if breaker.state == BreakerState.OPEN:
                if not supervisor.consume_retry():
                    # Retry budget spent: leave this region for a later
                    # round (or the salt-0 fallback) instead of probing.
                    next_pending.extend(queue)
                    continue
                breaker.half_open(trial_budget)
            if breaker.state == BreakerState.HALF_OPEN:
                still: List[DeferredTarget] = []
                for target in queue:
                    if breaker.trials_remaining <= 0:
                        still.append(target)
                        continue
                    trace = engine.trace(
                        cloud, region, target.dst,
                        salt=_salt_for(target, round_index),
                    )
                    trial_probes += 1
                    # The trial verdict is honest region-health evidence;
                    # a quarantine-lost target is *delivered* regardless
                    # (its salt-0 trace is the clean-run content).
                    verdict = classify(trace).healthy
                    breaker.record_trial(verdict)
                    if verdict or target.cause == CAUSE_QUARANTINE:
                        accept(target, deliver(target, trace))
                    else:
                        still.append(target)
                breaker.resolve_trials()
                queue = still
            if breaker.state == BreakerState.CLOSED:
                still = []
                for target in queue:
                    trace = engine.trace(
                        cloud, region, target.dst,
                        salt=_salt_for(target, round_index),
                    )
                    if (
                        classify(trace).healthy
                        or target.cause == CAUSE_QUARANTINE
                    ):
                        accept(target, deliver(target, trace))
                    else:
                        still.append(target)
                queue = still
            next_pending.extend(queue)
        span.set("recovered", recovered - recovered_before)
        span.set("pending_after", len(next_pending))
        span.close()
        pending = next_pending

    # Rounds exhausted.  Breaker-deferred targets are re-paced, never
    # lost: accept their salt-0 trace, which is byte-identical to what
    # the non-adaptive run would have recorded for them.  Quarantined
    # targets behind a breaker that never closed stay lost.
    still_lost = 0
    for target in pending:
        if target.cause == CAUSE_BREAKER:
            trace = engine.trace(target.cloud, target.region, target.dst, salt=0)
            accept(target, trace)
            fallback += 1
        else:
            still_lost += 1

    return RecoveryReport(
        rounds_run=rounds_run,
        deferred=deferred_total,
        quarantine_lost=quarantine_total,
        recovered=recovered,
        fallback_recovered=fallback,
        still_lost=still_lost,
        trial_probes=trial_probes,
        recovered_by_label=tuple(sorted(by_label.items())),
        breakers=governor.ledger.snapshot(),
    )
