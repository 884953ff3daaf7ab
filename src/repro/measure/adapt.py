"""Adaptive probe-budget governor and bounded re-probe recovery rounds.

The *acting* half of the adaptive control plane (the sensing half is
:mod:`repro.measure.health`): the :class:`ProbeGovernor` owns one
circuit breaker per region of its cloud and sits on the executor's
serial merge stream, deciding per merged trace whether to admit it
downstream or defer its target behind an open breaker; quarantined
shards fold into the same breakers and queue their targets for
recovery.  :func:`run_recovery` is the bounded re-probe round the
pipeline runs as its recovery stage: it half-opens open breakers with a
trial-probe budget and re-issues deferred/lost probes through them,
healing completeness that a non-adaptive run permanently loses.

The governor keeps no probe counters.  The campaign records
(:class:`~repro.measure.campaign.CampaignStats`) are the plane's one
probe ledger: the executor counts each deferral and quarantine there,
recovery heals them in place, and everything that reports the plane's
yield reads one fold of them, :class:`ProbeAccount`.

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

Recovery never traces a salt-0 baseline twice.  The governor keeps each
trace it defers beside its target as a one-trace blob
(:func:`~repro.measure.traceroute.pack_traces`, the codec the pool wire
and the checkpoint journals use), and both of recovery's salt-0 paths --
the yield to a completed baseline and the fallback once the rounds are
exhausted -- decode it.  The baselines live in memory only: the queue a
stage record carries has none, so a governor restored from a record
re-traces at salt 0, which gives the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.measure.campaign import CampaignStats
from repro.measure.health import BreakerEvent, BreakerState, CircuitBreaker, healthy
from repro.measure.traceroute import Traceroute, pack_traces, unpack_traces
from repro.net.ip import IPv4

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
    """One probe the governor re-paced instead of burning.

    Its cloud is always the governor's.
    """

    label: str
    region: str
    dst: int
    cause: str
    #: whether the salt-0 trace the merge saw completed.  Recovery
    #: yields to that baseline only when it can use it (``run_recovery``),
    #: and a governor restored from a record, which kept no baselines,
    #: re-traces it only then; always ``False`` for a quarantined target,
    #: whose trace was never observed and which never consults it.
    baseline_completed: bool


@dataclass(frozen=True)
class RecoveryReport:
    """What the recovery stage did that no campaign record holds.

    How many probes it healed, and how many stay lost, live in the
    round records it healed; this keeps only the rest.
    """

    rounds_run: int
    #: breaker-deferred targets accepted at salt 0 after the rounds were
    #: exhausted (re-paced back to their non-adaptive content).
    fallback_recovered: int
    trial_probes: int
    #: copies of the governor's breakers once recovery finished.
    breakers: Tuple[CircuitBreaker, ...]

    @property
    def breaker_events(self) -> Tuple[BreakerEvent, ...]:
        return tuple(e for breaker in self.breakers for e in breaker.events)


@dataclass(frozen=True)
class ProbeAccount:
    """Where the adaptive plane's probes went, folded from round records.

    The round records are the plane's only probe ledger: the merge
    counts each admission, deferral and quarantine there, and recovery
    heals them in place.  The report's adaptive block, the study span's
    ``governor_*`` and recovery counters and the ``adaptive`` bench
    counters all read this one fold.
    """

    #: probes the governor admitted at merge time.
    admitted: int
    #: probes deferred behind an open breaker.
    deferred: int
    #: probes lost to a quarantined shard.
    quarantined: int
    #: deferred or quarantined probes that recovery delivered.
    recovered: int
    #: probes still missing after recovery.
    still_lost: int
    #: ``(campaign label, recovered probes)`` for each healed campaign.
    recovered_by_label: Tuple[Tuple[str, int], ...]

    @classmethod
    def fold(cls, *records: Optional[CampaignStats]) -> "ProbeAccount":
        """Sum ``records``, skipping the ``None`` of a campaign not run."""
        rounds = [stats for stats in records if stats is not None]
        return cls(
            admitted=sum(s.probes - s.recovered_probes for s in rounds),
            deferred=sum(s.deferred_probes for s in rounds),
            quarantined=sum(
                probes for s in rounds for _, probes, _ in s.quarantined.values()
            ),
            recovered=sum(s.recovered_probes for s in rounds),
            still_lost=sum(s.lost_probes for s in rounds),
            recovered_by_label=tuple(
                sorted(
                    (s.label, s.recovered_probes)
                    for s in rounds
                    if s.recovered_probes
                )
            ),
        )


class ProbeGovernor:
    """Merge-time admit/defer decisions over per-region circuit breakers.

    One governor spans every campaign of a study run, so breaker state
    carries from round 1 into round 2.  All mutation happens in the
    executor's serial merge order (or in :func:`run_recovery`'s serial
    replay), which is what keeps adaptation worker-count invariant.
    """

    def __init__(self, threshold: int = 3, cloud: str = "amazon") -> None:
        self.threshold = threshold
        self.cloud = cloud
        self._label = "campaign"
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._pending: List[DeferredTarget] = []
        #: ``(region, dst)`` -> the salt-0 trace the merge deferred for
        #: that target, as a one-trace blob (``pack_traces``; its
        #: ``left_cloud`` flag is unused, recovery computes it).  Never
        #: saved: the salt-0 trace is a pure function of the probe key,
        #: so recovery re-traces whatever a restored governor lacks.
        self._baselines: Dict[Tuple[str, IPv4], bytes] = {}

    # ------------------------------------------------------------------

    def breaker(self, region: str) -> CircuitBreaker:
        """The live breaker of ``region``, built closed on first use."""
        breaker = self._breakers.get(region)
        if breaker is None:
            breaker = CircuitBreaker(self.cloud, region, self.threshold)
            self._breakers[region] = breaker
        return breaker

    def breakers(self) -> Tuple[CircuitBreaker, ...]:
        """Copies of every breaker, in region order."""
        return tuple(self._breakers[r].copy() for r in sorted(self._breakers))

    def begin_campaign(self, label: str) -> None:
        """Tag subsequent deferrals with the campaign they came from."""
        self._label = label

    def admit(self, trace: Traceroute) -> bool:
        """Admit (and fold) or defer one merged trace, in merge order.

        A deferred trace is kept, packed, as its target's baseline.
        """
        breaker = self.breaker(trace.region)
        if breaker.state == BreakerState.OPEN:
            self._pending.append(
                DeferredTarget(
                    label=self._label,
                    region=trace.region,
                    dst=trace.dst,
                    cause=CAUSE_BREAKER,
                    baseline_completed=trace.completed,
                )
            )
            self._baselines[trace.region, trace.dst] = pack_traces(((trace, False),))
            return False
        breaker.record(healthy(trace))
        return True

    def note_quarantine(self, region: str, targets: Tuple[int, ...]) -> None:
        """A shard quarantined: fold the loss, queue targets for recovery."""
        self.breaker(region).record_quarantine(len(targets))
        self._pending.extend(
            DeferredTarget(
                label=self._label,
                region=region,
                dst=dst,
                cause=CAUSE_QUARANTINE,
                baseline_completed=False,
            )
            for dst in targets
        )

    # ------------------------------------------------------------------

    @property
    def pending(self) -> Tuple[DeferredTarget, ...]:
        return tuple(self._pending)

    def take_pending(
        self,
    ) -> Tuple[List[DeferredTarget], Dict[Tuple[str, IPv4], bytes]]:
        """Drain the recovery queue and its packed baselines, keyed by
        ``(region, dst)`` (the recovery round owns them now)."""
        pending, self._pending = self._pending, []
        baselines, self._baselines = self._baselines, {}
        return pending, baselines

    # ------------------------------------------------------------------
    # stage-checkpoint round trip
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Breakers and queue; the baselines stay in memory."""
        return {"breakers": self.breakers(), "pending": tuple(self._pending)}

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict`, keeping any baselines held.

        A live run re-applies its own state, and keeps its baselines; a
        resumed run's governor starts with none.
        """
        self._breakers = {b.region: b.copy() for b in state["breakers"]}
        self._pending = list(state["pending"])


# ----------------------------------------------------------------------
# the bounded re-probe recovery round
# ----------------------------------------------------------------------


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
    order, targets in deferral order.  Each round gives every open
    breaker it visits one half-open phase (spending one unit of the
    study-wide retry budget per breaker, when a budget is configured):
    the first ``trial_budget`` queued targets are its trials, and a
    breaker they close re-probes the rest of its queue in the same
    round.  The supervisor is polled between regions so ``--deadline``
    and cancellation are honoured at safe points.  Engine, supervisor,
    tracer, observer and the governor's cloud membership are the
    ``executor``'s, the ones the campaigns ran with.  Each recovered
    trace goes to ``ingest`` (the observatory), then to the observer's
    ``on_probe``, and heals its campaign's stats.  A breaker-deferred
    target's salt-0 trace is the baseline the governor kept, decoded;
    only a target without one (its governor was restored from a record)
    is traced again.
    """
    engine = executor.engine
    cloud = governor.cloud
    membership = executor.membership(cloud)
    on_probe = executor.events.on_probe
    supervisor = executor.supervisor
    pending, baselines = governor.take_pending()
    fallback = 0
    trial_probes = 0
    rounds_run = 0

    def accept(target: DeferredTarget, trace: Traceroute) -> None:
        stats = stats_by_label.get(target.label)
        if stats is not None:
            stats.record(trace, membership.left_cloud(trace))
            stats.lost_probes -= 1
            stats.recovered_probes += 1
        ingest(trace)
        on_probe(trace)

    def baseline(target: DeferredTarget) -> Traceroute:
        packed = baselines.get((target.region, target.dst))
        if packed is None:
            return engine.trace(cloud, target.region, target.dst, salt=0)
        return unpack_traces(packed, cloud, target.region)[0][0]

    def reprobe(
        batch: List[DeferredTarget], round_index: int
    ) -> Tuple[List[bool], List[DeferredTarget]]:
        """Re-probe ``batch`` in order; return each verdict and what stays.

        A healthy re-probe is accepted.  A quarantine-lost target is
        accepted regardless -- its salt-0 trace is the clean-run content
        -- though its verdict is still honest region-health evidence.
        """
        verdicts: List[bool] = []
        still: List[DeferredTarget] = []
        for target in batch:
            deferred = target.cause == CAUSE_BREAKER
            salt = round_index if deferred else 0
            trace = engine.trace(cloud, target.region, target.dst, salt=salt)
            verdicts.append(healthy(trace))
            if deferred and not verdicts[-1]:
                still.append(target)
                continue
            if deferred and target.baseline_completed and not trace.completed:
                # Re-pacing must never cost coverage: a fingerprint-free
                # re-probe can still lose the destination (the window
                # landed on the tail), so it yields to the completed
                # salt-0 trace the non-adaptive run records: the baseline
                # the merge deferred.
                trace = baseline(target)
            accept(target, trace)
        return verdicts, still

    for round_index in range(1, max(0, rounds) + 1):
        if not pending:
            break
        supervisor.poll()
        rounds_run += 1
        span = executor.tracer.span(f"recovery:{round_index}", category="recovery")
        span.set("queued", len(pending))
        next_pending: List[DeferredTarget] = []
        for region in sorted({t.region for t in pending}):
            supervisor.poll()
            queue = [t for t in pending if t.region == region]
            breaker = governor.breaker(region)
            if breaker.state == BreakerState.OPEN:
                if not supervisor.consume_retry():
                    # Retry budget spent: leave this region for a later
                    # round (or the salt-0 fallback) instead of probing.
                    next_pending.extend(queue)
                    continue
                verdicts, still = reprobe(queue[:trial_budget], round_index)
                trial_probes += len(verdicts)
                breaker.trial(trial_budget, verdicts)
                # A failed trial re-opens the breaker and stays queued;
                # with every trial healthy, ``still`` is empty.
                queue = still + queue[trial_budget:]
            if breaker.state == BreakerState.CLOSED:
                _, queue = reprobe(queue, round_index)
            next_pending.extend(queue)
        span.set("recovered", len(pending) - len(next_pending))
        span.set("pending_after", len(next_pending))
        span.close()
        pending = next_pending

    # Rounds exhausted.  Breaker-deferred targets are re-paced, never
    # lost: accept their salt-0 baseline, which is byte-identical to what
    # the non-adaptive run recorded for them.  Quarantined targets behind
    # a breaker that never closed stay lost.
    for target in pending:
        if target.cause == CAUSE_BREAKER:
            accept(target, baseline(target))
            fallback += 1

    return RecoveryReport(
        rounds_run=rounds_run,
        fallback_recovered=fallback,
        trial_probes=trial_probes,
        breakers=governor.breakers(),
    )
