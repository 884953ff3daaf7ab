"""The recovery round against its predecessor (DESIGN.md §6.3's oracle rule).

Recovery once kept a breaker's trial budget and tallies between three
calls (``half_open``, ``record_trial`` per trial, ``resolve_trials``)
and ran trial batches and closed-breaker batches through two loops.
Both survive below as a test-local oracle.  Under Hypothesis, the
one-loop :func:`run_recovery` over :meth:`CircuitBreaker.trial` must
accept the same ``(label, region, dst, salt)`` sequence, leave equal
breakers (state, counters and events), open the same recovery spans,
and report the same rounds, trial probes and fallbacks; the healed
round records must hold the recovered and still-lost counts the old
report kept beside them.  The engine is scripted: a trace's verdict and
completion are a hash of ``(region, dst, salt)``.

The oracle traces every salt-0 baseline again; :func:`run_recovery`
decodes the one the governor kept when it deferred the trace.  Over
queues built through ``ProbeGovernor.admit``, the scripted engine must
see no salt-0 call for a breaker-deferred target, and the accepted
sequence must still be the oracle's.  A baseline is a one-trace blob of
the trace codec (``tests/test_trace_codec.py`` checks it against the
old tuple wire); it round-trips every hop exactly, ``-0.0`` and
subnormal RTTs included.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.measure.adapt import (  # noqa: E402
    CAUSE_BREAKER,
    CAUSE_QUARANTINE,
    DeferredTarget,
    ProbeGovernor,
    run_recovery,
)
from repro.measure.campaign import CampaignStats  # noqa: E402
from repro.measure.health import (  # noqa: E402
    SILENCED_RUN_FINGERPRINT,
    BreakerState,
    CircuitBreaker,
    healthy,
)
from repro.measure.sink import EventSink  # noqa: E402
from repro.measure.supervise import StudySupervisor  # noqa: E402
from repro.measure.traceroute import (  # noqa: E402
    StopReason,
    TraceHop,
    Traceroute,
    pack_traces,
    unpack_traces,
)
from repro.obs.span import Tracer  # noqa: E402
from tests.test_trace_codec import _exact, hop_st  # noqa: E402

CLOUD = "amazon"
REGIONS = ["ap-south-1", "eu-west-1", "us-east-1"]
LABELS = ["round1", "round2"]
#: the first hop's address carries the salt a trace was drawn at.
SALT_HOP = 1000


class ScriptedEngine:
    """Deterministic traces whose health is a hash of (region, dst, salt)."""

    def __init__(self, seed: int, sick_in_four: int) -> None:
        self.seed = seed
        self.sick_in_four = sick_in_four

    def trace(self, cloud: str, region: str, dst: int, salt: int = 0) -> Traceroute:
        digest = hashlib.blake2b(
            f"{self.seed}|{region}|{dst}|{salt}".encode(), digest_size=2
        ).digest()
        sick = digest[0] % 4 < self.sick_in_four
        completed = digest[1] % 2 == 0
        ips = [SALT_HOP + salt]
        ips += [None] * (SILENCED_RUN_FINGERPRINT if sick else 0)
        ips.append(dst if completed else 7)
        hops = [TraceHop(i + 1, ip, None) for i, ip in enumerate(ips)]
        reason = StopReason.COMPLETED if completed else StopReason.GAP_LIMIT
        return Traceroute(cloud, region, dst, hops, reason)


class _LoggingEngine(ScriptedEngine):
    """A scripted engine that logs each ``(region, dst, salt)`` it traces."""

    def __init__(self, seed: int, sick_in_four: int) -> None:
        super().__init__(seed, sick_in_four)
        self.calls: List[Tuple[str, int, int]] = []

    def trace(self, cloud: str, region: str, dst: int, salt: int = 0) -> Traceroute:
        self.calls.append((region, dst, salt))
        return super().trace(cloud, region, dst, salt)


class _Membership:
    def left_cloud(self, trace: Traceroute) -> bool:
        return trace.completed


class _Executor:
    """The four things recovery reads from the study's executor."""

    def __init__(self, engine: ScriptedEngine, retry_budget: Optional[int]) -> None:
        self.engine = engine
        self.supervisor = StudySupervisor(retry_budget=retry_budget)
        self.tracer = Tracer()
        self.events = EventSink()

    def membership(self, cloud: str) -> _Membership:
        return _Membership()


@dataclass
class _LoggedStats(CampaignStats):
    """A round record that logs each probe recovery delivers to it."""

    log: List[tuple] = field(default_factory=list, compare=False)

    def record(self, trace: Traceroute, left_cloud: bool) -> None:
        super().record(trace, left_cloud)
        salt = trace.hops[0].ip - SALT_HOP
        self.log.append((self.label, trace.region, trace.dst, salt))


# ----------------------------------------------------------------------
# the oracle: the predecessor's breaker protocol and two-loop recovery
# ----------------------------------------------------------------------


@dataclass
class _OracleBreaker(CircuitBreaker):
    """A breaker with the predecessor's three-call half-open protocol."""

    trial_budget: int = 0
    trial_successes: int = 0
    trial_failures: int = 0

    def half_open(self, budget: int) -> None:
        assert self.state == BreakerState.OPEN and budget >= 1
        self.trial_budget = budget
        self.trial_successes = 0
        self.trial_failures = 0
        self._transition(BreakerState.HALF_OPEN, f"{budget} trial probes granted")

    @property
    def trials_remaining(self) -> int:
        spent = self.trial_successes + self.trial_failures
        return max(0, self.trial_budget - spent)

    def record_trial(self, is_healthy: bool) -> None:
        assert self.state == BreakerState.HALF_OPEN and self.trials_remaining > 0
        self.outcomes += 1
        if is_healthy:
            self.trial_successes += 1
        else:
            self.trial_failures += 1
            self.failures += 1

    def resolve_trials(self) -> str:
        if self.state != BreakerState.HALF_OPEN:
            return self.state
        if self.trial_failures > 0:
            self._transition(
                BreakerState.OPEN,
                f"{self.trial_failures}/{self.trial_budget} trial probes failed",
            )
        else:
            self.streak = 0
            self._transition(
                BreakerState.CLOSED,
                f"{self.trial_successes} trial probes healthy",
            )
        return self.state


def _oracle_recovery(
    breakers: Dict[str, _OracleBreaker],
    pending: List[DeferredTarget],
    executor: _Executor,
    stats_by_label: Dict[str, CampaignStats],
    rounds: int,
    trial_budget: int,
) -> Dict[str, object]:
    """The predecessor's ``run_recovery``: trials, then a second loop."""
    engine = executor.engine
    supervisor = executor.supervisor
    membership = executor.membership(CLOUD)
    recovered = fallback = trial_probes = rounds_run = 0
    by_label: Dict[str, int] = {}

    def accept(target: DeferredTarget, trace: Traceroute) -> None:
        nonlocal recovered
        stats = stats_by_label.get(target.label)
        if stats is not None:
            stats.record(trace, membership.left_cloud(trace))
            stats.lost_probes -= 1
            stats.recovered_probes += 1
        by_label[target.label] = by_label.get(target.label, 0) + 1
        recovered += 1

    def deliver(target: DeferredTarget, trace: Traceroute) -> Traceroute:
        if (
            target.cause == CAUSE_BREAKER
            and target.baseline_completed
            and not trace.completed
        ):
            return engine.trace(CLOUD, target.region, target.dst, salt=0)
        return trace

    def salt_for(target: DeferredTarget, round_index: int) -> int:
        return 0 if target.cause == CAUSE_QUARANTINE else round_index

    for round_index in range(1, max(0, rounds) + 1):
        if not pending:
            break
        rounds_run += 1
        span = executor.tracer.span(f"recovery:{round_index}", category="recovery")
        span.set("queued", len(pending))
        recovered_before = recovered
        next_pending: List[DeferredTarget] = []
        for region in sorted({t.region for t in pending}):
            queue = [t for t in pending if t.region == region]
            breaker = breakers[region]
            if breaker.state == BreakerState.OPEN:
                if not supervisor.consume_retry():
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
                        CLOUD, region, target.dst, salt=salt_for(target, round_index)
                    )
                    trial_probes += 1
                    verdict = healthy(trace)
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
                        CLOUD, region, target.dst, salt=salt_for(target, round_index)
                    )
                    if healthy(trace) or target.cause == CAUSE_QUARANTINE:
                        accept(target, deliver(target, trace))
                    else:
                        still.append(target)
                queue = still
            next_pending.extend(queue)
        span.set("recovered", recovered - recovered_before)
        span.set("pending_after", len(next_pending))
        span.close()
        pending = next_pending

    still_lost = 0
    for target in pending:
        if target.cause == CAUSE_BREAKER:
            accept(target, engine.trace(CLOUD, target.region, target.dst, salt=0))
            fallback += 1
        else:
            still_lost += 1
    return {
        "rounds_run": rounds_run,
        "recovered": recovered,
        "fallback_recovered": fallback,
        "still_lost": still_lost,
        "trial_probes": trial_probes,
        "recovered_by_label": tuple(sorted(by_label.items())),
    }


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------

#: What a region's breaker folded before recovery: healthy or sick
#: merged traces, or a quarantined shard of ``n`` probes.
history_st = st.lists(
    st.one_of(st.booleans(), st.integers(1, 4)), max_size=8
)

target_st = st.builds(
    lambda label, region, dst, cause, baseline: DeferredTarget(
        label=label,
        region=region,
        dst=dst,
        cause=cause,
        baseline_completed=baseline and cause == CAUSE_BREAKER,
    ),
    st.sampled_from(LABELS),
    st.sampled_from(REGIONS),
    st.integers(1, 40),
    st.sampled_from([CAUSE_BREAKER, CAUSE_QUARANTINE]),
    st.booleans(),
)


def _fold_history(breaker: CircuitBreaker, history) -> None:
    for step in history:
        if isinstance(step, bool):
            if breaker.state == BreakerState.OPEN:
                continue  # the governor defers instead of folding
            breaker.record(step)
        else:
            breaker.record_quarantine(step)


def _round_records(pending: List[DeferredTarget], log: List[tuple]):
    """Round records whose loss accounts for exactly ``pending``."""
    records = {}
    for label in LABELS:
        mine = [t for t in pending if t.label == label]
        records[label] = _LoggedStats(
            label=label,
            lost_probes=len(mine),
            deferred_probes=sum(1 for t in mine if t.cause == CAUSE_BREAKER),
            log=log,
        )
    return records


def _breaker_shape(breaker: CircuitBreaker) -> tuple:
    return (
        breaker.cloud,
        breaker.region,
        breaker.threshold,
        breaker.state,
        breaker.streak,
        breaker.outcomes,
        breaker.failures,
        breaker.rate_limited,
        tuple(breaker.events),
    )


def _span_rows(tracer: Tracer) -> List[tuple]:
    return [(r.name, tuple(r.counters)) for r in tracer.records]


def _governor_breakers(threshold: int, histories) -> Tuple[CircuitBreaker, ...]:
    breakers = []
    for region in REGIONS:
        breaker = CircuitBreaker(CLOUD, region, threshold)
        _fold_history(breaker, histories[region])
        breakers.append(breaker)
    return tuple(breakers)


def _assert_recovery_matches_oracle(
    governor: ProbeGovernor,
    engine: ScriptedEngine,
    threshold: int,
    histories,
    trial_budget: int,
    retry_budget: Optional[int],
    rounds: int,
) -> None:
    """Recover ``governor``'s queue, and the oracle the same queue over
    breakers folded from ``histories``; both must agree throughout."""
    pending = list(governor.pending)

    # The oracle, on breakers with the old protocol.
    oracle_breakers = {
        region: _OracleBreaker(CLOUD, region, threshold) for region in REGIONS
    }
    for region, breaker in oracle_breakers.items():
        _fold_history(breaker, histories[region])
    oracle_log: List[tuple] = []
    oracle_records = _round_records(pending, oracle_log)
    oracle_executor = _Executor(
        ScriptedEngine(engine.seed, engine.sick_in_four), retry_budget
    )
    expected = _oracle_recovery(
        oracle_breakers, list(pending), oracle_executor, oracle_records,
        rounds, trial_budget,
    )

    log: List[tuple] = []
    records = _round_records(pending, log)
    executor = _Executor(engine, retry_budget)
    ingested: List[Traceroute] = []
    report = run_recovery(
        governor, executor, records, ingested.append,
        rounds=rounds, trial_budget=trial_budget,
    )

    assert log == oracle_log
    assert [(t.region, t.dst) for t in ingested] == [
        (region, dst) for _, region, dst, _ in oracle_log
    ]
    assert [_breaker_shape(b) for b in report.breakers] == [
        _breaker_shape(oracle_breakers[region]) for region in REGIONS
    ]
    assert all(b.state != BreakerState.HALF_OPEN for b in report.breakers)
    assert _span_rows(executor.tracer) == _span_rows(oracle_executor.tracer)
    assert report.rounds_run == expected["rounds_run"]
    assert report.trial_probes == expected["trial_probes"]
    assert report.fallback_recovered == expected["fallback_recovered"]
    assert records == oracle_records
    # The healed records carry what the old report counted beside them.
    assert sum(r.recovered_probes for r in records.values()) == expected["recovered"]
    assert sum(r.lost_probes for r in records.values()) == expected["still_lost"]
    assert tuple(
        (label, r.recovered_probes)
        for label, r in sorted(records.items())
        if r.recovered_probes
    ) == expected["recovered_by_label"]
    assert governor.pending == ()


@settings(max_examples=150, deadline=None)
@given(
    threshold=st.integers(1, 3),
    histories=st.fixed_dictionaries({region: history_st for region in REGIONS}),
    pending=st.lists(target_st, max_size=30),
    trial_budget=st.integers(1, 4),
    retry_budget=st.one_of(st.none(), st.integers(0, 4)),
    rounds=st.integers(0, 3),
    engine_seed=st.integers(0, 2**16),
    sick_in_four=st.integers(0, 4),
)
def test_one_loop_recovery_matches_the_two_loop_oracle(
    threshold, histories, pending, trial_budget, retry_budget, rounds,
    engine_seed, sick_in_four,
):
    """A queue restored from a record: no baselines, every one re-traced."""
    governor = ProbeGovernor(threshold=threshold, cloud=CLOUD)
    governor.load_state(
        {"breakers": _governor_breakers(threshold, histories), "pending": tuple(pending)}
    )
    _assert_recovery_matches_oracle(
        governor, ScriptedEngine(engine_seed, sick_in_four), threshold,
        histories, trial_budget, retry_budget, rounds,
    )


#: Quarantined targets draw destinations above every breaker target's,
#: so a logged salt-0 call names the cause it was made for.
QUARANTINE_BASE = 40

#: ``(label, region, cause, n)``: a breaker target probes ``n``, a
#: quarantined one ``QUARANTINE_BASE + n``.
admitted_st = st.tuples(
    st.sampled_from(LABELS),
    st.sampled_from(REGIONS),
    st.sampled_from([CAUSE_BREAKER, CAUSE_QUARANTINE]),
    st.integers(1, 20),
)


@settings(max_examples=150, deadline=None)
@given(
    threshold=st.integers(1, 3),
    histories=st.fixed_dictionaries({region: history_st for region in REGIONS}),
    specs=st.lists(admitted_st, max_size=30),
    trial_budget=st.integers(1, 4),
    retry_budget=st.one_of(st.none(), st.integers(0, 4)),
    rounds=st.integers(0, 3),
    engine_seed=st.integers(0, 2**16),
    sick_in_four=st.integers(0, 4),
)
def test_recovery_decodes_each_deferred_baseline(
    threshold, histories, specs, trial_budget, retry_budget, rounds,
    engine_seed, sick_in_four,
):
    """A queue the merge built: recovery re-traces no breaker baseline."""
    engine = _LoggingEngine(engine_seed, sick_in_four)
    # Every breaker starts open, so each breaker target's salt-0 trace
    # is deferred through ``admit`` and kept as its baseline.
    opened = []
    for region in REGIONS:
        breaker = CircuitBreaker(CLOUD, region, 1)
        breaker.record(False)
        opened.append(breaker)
    governor = ProbeGovernor(threshold=threshold, cloud=CLOUD)
    governor.load_state({"breakers": tuple(opened), "pending": ()})
    for label, region, cause, n in specs:
        governor.begin_campaign(label)
        if cause == CAUSE_BREAKER:
            assert not governor.admit(engine.trace(CLOUD, region, n))
        else:
            governor.note_quarantine(region, (QUARANTINE_BASE + n,))
    # Then the breakers the histories fold; re-applying a live state
    # keeps the governor's baselines, as a study's own payloads do.
    governor.load_state(
        {"breakers": _governor_breakers(threshold, histories), "pending": governor.pending}
    )
    engine.calls.clear()

    _assert_recovery_matches_oracle(
        governor, engine, threshold, histories, trial_budget, retry_budget,
        rounds,
    )
    assert [
        (region, dst)
        for region, dst, salt in engine.calls
        if salt == 0 and dst <= QUARANTINE_BASE
    ] == []


@settings(max_examples=300)
@given(
    hops=st.lists(hop_st, max_size=40),
    scripted=st.tuples(st.integers(0, 2**16), st.integers(1, 60), st.integers(0, 3)),
    reason=st.sampled_from(
        [StopReason.COMPLETED, StopReason.GAP_LIMIT, StopReason.LOOP]
    ),
)
def test_packed_baseline_round_trips(hops, scripted, reason):
    """Every hop comes back exactly: absent addresses and RTTs, an
    address without an RTT (as the scripted engine builds them), signed
    zeros and subnormal RTTs."""
    trace = Traceroute(CLOUD, "eu-west-1", 77, hops, reason)
    packed = pack_traces(((trace, False),))
    assert isinstance(packed, bytes)
    [(back, _)] = unpack_traces(packed, CLOUD, "eu-west-1")
    assert _exact(back) == _exact(trace)
    assert all(type(h) is TraceHop for h in back.hops)

    seed, dst, salt = scripted
    built = ScriptedEngine(seed, 2).trace(CLOUD, "us-east-1", dst, salt)
    [(rebuilt, _)] = unpack_traces(
        pack_traces(((built, False),)), CLOUD, "us-east-1"
    )
    assert _exact(rebuilt) == _exact(built)


@settings(max_examples=100)
@given(
    threshold=st.integers(1, 3),
    history=history_st,
    budget=st.integers(1, 6),
    verdicts=st.lists(st.booleans(), max_size=6),
)
def test_trial_phase_matches_the_three_call_protocol(
    threshold, history, budget, verdicts
):
    """One ``trial`` call records what half_open / record_trial per
    verdict / resolve_trials recorded, at the same outcome counts."""
    verdicts = verdicts[:budget]
    oracle = _OracleBreaker(CLOUD, "us-east-1", threshold)
    breaker = CircuitBreaker(CLOUD, "us-east-1", threshold)
    for b in (oracle, breaker):
        _fold_history(b, history)
    if breaker.state != BreakerState.OPEN:
        with pytest.raises(ValueError):
            breaker.trial(budget, verdicts)
        return
    oracle.half_open(budget)
    for verdict in verdicts:
        oracle.record_trial(verdict)
    assert breaker.trial(budget, verdicts) == oracle.resolve_trials()
    assert _breaker_shape(breaker) == _breaker_shape(oracle)
    with pytest.raises(ValueError):
        breaker.trial(budget, [True] * (budget + 1))
