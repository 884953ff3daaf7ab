"""Hypothesis properties for the governor's per-region circuit breakers.

These pin the invariants DESIGN.md 6.6 leans on:

* **Order invariance** -- the governor folds each region's merge stream
  into that region's breaker, so any interleaving of regions' streams
  that preserves each region's own order yields identical breakers
  (state, counters and events) and the same per-region deferrals.  This
  is the property that makes merge-time folding worker-count invariant:
  shards of different regions may merge in any relative order without
  changing a single deferral decision.
* **Monotone open threshold** -- lowering ``breaker_threshold`` never
  makes a breaker open *later*; a stricter breaker's first open event
  comes no later than a looser one's on the same stream.
* **One health predicate** -- :func:`healthy` agrees with the
  silenced-run fold it replaced (kept here as a test-local oracle) on
  any pattern of responsive and silent hops.

The half-open phase and the recovery loop are checked against their
predecessors in ``tests/test_property_recovery.py``.
"""

from __future__ import annotations

from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.measure.adapt import ProbeGovernor  # noqa: E402
from repro.measure.health import (  # noqa: E402
    SILENCED_RUN_FINGERPRINT,
    BreakerState,
    healthy,
)
from repro.measure.traceroute import StopReason, TraceHop, Traceroute  # noqa: E402

REGIONS = ["use1", "usw2", "euw1", "aps1", "sae1"]


def _trace(region: str, dst: int, is_healthy: bool) -> Traceroute:
    """A trace with (or without) the rate-limit fingerprint."""
    silent = [] if is_healthy else [None] * SILENCED_RUN_FINGERPRINT
    ips = [1, *silent, 2]
    hops = [TraceHop(ttl=i + 1, ip=ip, rtt_ms=None) for i, ip in enumerate(ips)]
    return Traceroute("amazon", region, dst, hops, StopReason.COMPLETED)


def _per_region_pending(governor: ProbeGovernor):
    return {
        region: [t for t in governor.pending if t.region == region]
        for region in REGIONS
    }


streams_st = st.dictionaries(
    st.sampled_from(REGIONS),
    st.lists(st.booleans(), min_size=1, max_size=12),
    min_size=1,
    max_size=4,
)


# --- order invariance --------------------------------------------------


@settings(max_examples=50)
@given(streams=streams_st, threshold=st.integers(1, 4), data=st.data())
def test_breakers_are_invariant_under_region_preserving_interleavings(
    streams, threshold, data
):
    """Same per-region streams, any cross-region interleaving, same breakers."""
    # Reference fold: regions one after another, in sorted order.
    reference = ProbeGovernor(threshold=threshold)
    for region in sorted(streams):
        for dst, is_healthy in enumerate(streams[region]):
            reference.admit(_trace(region, dst, is_healthy))

    # Any permutation of the region-tag multiset is a region-preserving
    # interleaving, as long as each region's own stream is consumed in
    # its original order.
    tags = [region for region in sorted(streams) for _ in streams[region]]
    interleaving = data.draw(st.permutations(tags))
    queues = {region: deque(enumerate(seq)) for region, seq in streams.items()}
    shuffled = ProbeGovernor(threshold=threshold)
    for region in interleaving:
        dst, is_healthy = queues[region].popleft()
        shuffled.admit(_trace(region, dst, is_healthy))

    assert shuffled.breakers() == reference.breakers()
    assert _per_region_pending(shuffled) == _per_region_pending(reference)


# --- monotone open threshold -------------------------------------------


def _first_open_at(governor: ProbeGovernor) -> int:
    """Outcome count at the first CLOSED -> OPEN event; -1 = never."""
    opens = [
        event.at_outcome
        for breaker in governor.breakers()
        for event in breaker.events
        if event.to_state == BreakerState.OPEN
    ]
    return opens[0] if opens else -1


@settings(max_examples=50)
@given(
    stream=st.lists(st.booleans(), min_size=1, max_size=30),
    thresholds=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_lower_threshold_never_opens_later(stream, thresholds):
    strict, loose = min(thresholds), max(thresholds)
    governors = {t: ProbeGovernor(threshold=t) for t in {strict, loose}}
    for dst, is_healthy in enumerate(stream):
        for governor in governors.values():
            # An open breaker defers: the outcome is never folded.
            governor.admit(_trace("use1", dst, is_healthy))

    strict_open_at = _first_open_at(governors[strict])
    loose_open_at = _first_open_at(governors[loose])
    if loose_open_at >= 0:
        # Whenever the loose breaker opened, the strict one did too,
        # and no later (folded-outcome counts coincide up to the first
        # open, since nothing is deferred before it).
        assert strict_open_at >= 0
        assert strict_open_at <= loose_open_at
    if strict_open_at < 0:
        assert loose_open_at < 0


# --- one health predicate ----------------------------------------------


def _silenced_run(trace: Traceroute) -> int:
    """The predecessor's fold: the longest silent run before the last
    responsive hop (a trace was healthy below the fingerprint)."""
    last_responsive = -1
    for i, hop in enumerate(trace.hops):
        if hop.ip is not None:
            last_responsive = i
    run = 0
    best = 0
    for i in range(max(0, last_responsive)):
        if trace.hops[i].ip is None:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


@settings(max_examples=200)
@given(
    ips=st.lists(st.one_of(st.none(), st.integers(1, 9)), max_size=16),
    completed=st.booleans(),
)
def test_healthy_matches_the_silenced_run_fold(ips, completed):
    hops = [TraceHop(ttl=i + 1, ip=ip, rtt_ms=None) for i, ip in enumerate(ips)]
    reason = StopReason.COMPLETED if completed else StopReason.GAP_LIMIT
    trace = Traceroute("amazon", "use1", 99, hops, reason)
    assert healthy(trace) == (_silenced_run(trace) < SILENCED_RUN_FINGERPRINT)
