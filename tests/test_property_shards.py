"""Property tests for shard planning and fault-schedule determinism.

Hypothesis explores the input space the example-based executor tests
cannot: arbitrary target counts, shard sizes, worker counts, and region
lists -- asserting the invariants the deterministic merge relies on
(exact order-preserving partitions, region-major contiguous indices),
that a ``FaultPlan`` is a pure function of its fields, and that its
per-probe rate-limit window gives the per-hop schedule's answers.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.measure.executor import (
    SHARDS_PER_WORKER,
    default_shard_size,
    partition_targets,
    plan_shards,
)
from repro.measure.faults import FaultPlan

targets_st = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), max_size=64
)
regions_st = st.lists(
    st.sampled_from(["use1", "usw2", "euw1", "aps1", "sae1"]),
    max_size=5,
    unique=True,
)
shard_size_st = st.integers(min_value=1, max_value=80)
rate_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ----------------------------------------------------------------------
# partition_targets: an exact, order-preserving, bounded partition.
# ----------------------------------------------------------------------


@given(targets=targets_st, shard_size=shard_size_st)
def test_partition_is_exact_and_order_preserving(targets, shard_size):
    chunks = partition_targets(targets, shard_size)
    flattened = [t for chunk in chunks for t in chunk]
    assert flattened == targets


@given(targets=targets_st, shard_size=shard_size_st)
def test_partition_chunks_bounded_and_nonempty(targets, shard_size):
    chunks = partition_targets(targets, shard_size)
    assert all(1 <= len(chunk) <= shard_size for chunk in chunks)
    assert len(chunks) == math.ceil(len(targets) / shard_size)


@given(targets=targets_st, shard_size=st.integers(max_value=0))
def test_partition_rejects_nonpositive_shard_size(targets, shard_size):
    with pytest.raises(ValueError):
        partition_targets(targets, shard_size)


# ----------------------------------------------------------------------
# plan_shards: region-major enumeration matching the serial loop.
# ----------------------------------------------------------------------


@given(regions=regions_st, targets=targets_st, shard_size=shard_size_st)
def test_plan_shards_indices_contiguous(regions, targets, shard_size):
    shards = plan_shards(regions, targets, shard_size)
    assert [s.index for s in shards] == list(range(len(shards)))


@given(regions=regions_st, targets=targets_st, shard_size=shard_size_st)
def test_plan_shards_is_region_major_serial_order(regions, targets, shard_size):
    shards = plan_shards(regions, targets, shard_size)
    serial = [(region, t) for region in regions for t in targets]
    planned = [(s.region, t) for s in shards for t in s.targets]
    assert planned == serial


@given(regions=regions_st, shard_size=shard_size_st)
def test_plan_shards_empty_targets_plans_nothing(regions, shard_size):
    assert plan_shards(regions, [], shard_size) == []


@given(targets=targets_st, shard_size=shard_size_st)
def test_plan_shards_single_region(targets, shard_size):
    shards = plan_shards(["use1"], targets, shard_size)
    assert all(s.region == "use1" for s in shards)
    assert [t for s in shards for t in s.targets] == targets


@given(regions=regions_st, targets=targets_st)
def test_plan_shards_oversized_shard_is_one_per_region(regions, targets):
    hypothesis.assume(targets)
    shards = plan_shards(regions, targets, len(targets) + 7)
    assert len(shards) == len(regions)
    assert all(list(s.targets) == targets for s in shards)


# ----------------------------------------------------------------------
# default_shard_size: always valid, bounds the shard count per region.
# ----------------------------------------------------------------------


@given(
    n_targets=st.integers(min_value=-5, max_value=10_000),
    workers=st.integers(min_value=-2, max_value=64),
)
def test_default_shard_size_is_always_valid(n_targets, workers):
    size = default_shard_size(n_targets, workers)
    assert size >= 1
    if n_targets > 0:
        n_shards = math.ceil(n_targets / size)
        assert n_shards <= max(1, workers) * SHARDS_PER_WORKER
        assert size * n_shards >= n_targets  # no target left unassigned


# ----------------------------------------------------------------------
# FaultPlan: same seed (and fields) => same fault schedule, everywhere.
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    crash_rate=rate_st,
    slow_rate=rate_st,
    slow_seconds=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    crash_attempts=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_fault_plan_transport_schedule_deterministic(
    seed, crash_rate, slow_rate, slow_seconds, crash_attempts
):
    make = lambda: FaultPlan(
        seed=seed,
        crash_rate=crash_rate,
        crash_attempts=crash_attempts,
        slow_rate=slow_rate,
        slow_seconds=slow_seconds,
    )
    a, b = make(), make()
    assert a == b
    for index in range(32):
        failures = a.crash_failures(index)
        assert failures == b.crash_failures(index)
        assert failures in (0, crash_attempts)
        assert a.slow_delay(index) == b.slow_delay(index)
        assert a.slow_delay(index) in (0.0, slow_seconds)
        # should_crash is consistent with the attempt schedule.
        survived = next(
            attempt for attempt in range(crash_attempts + 1)
            if not a.should_crash(index, attempt)
        )
        assert survived == failures


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    loss=rate_st,
    rate_limit=rate_st,
    window=st.integers(min_value=1, max_value=8),
    dst=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50)
def test_fault_plan_observation_schedule_deterministic(
    seed, loss, rate_limit, window, dst, ttl
):
    make = lambda: FaultPlan(
        seed=seed,
        region_loss={"use1": loss},
        rate_limit_rate=rate_limit,
        rate_limit_window=window,
    )
    a, b = make(), make()
    assert a.probe_signature() == b.probe_signature()
    assert a.hop_suppressed("amazon", "use1", dst, ttl) == \
        b.hop_suppressed("amazon", "use1", dst, ttl)
    # Repeated queries never flip: no hidden mutable RNG state.
    first = a.hop_suppressed("amazon", "use1", dst, ttl)
    assert all(
        a.hop_suppressed("amazon", "use1", dst, ttl) == first
        for _ in range(3)
    )
    if loss == 0.0 and rate_limit == 0.0:
        assert not first


def _hop_suppressed_per_hop(plan, cloud, region, dst, ttl, salt):
    """The per-hop fault schedule as first written: every draw per hop.

    The oracle the per-probe window is checked against (DESIGN.md 6.3).
    """
    extra = (salt,) if salt else ()
    loss = plan.region_loss.get(region, plan.region_loss.get("*", 0.0))
    if loss > 0.0 and plan._u("loss", cloud, region, dst, ttl, *extra) < loss:
        return True
    if plan.rate_limit_rate > 0.0:
        if plan._u("rlimit", cloud, region, dst, *extra) < plan.rate_limit_rate:
            # 8 is the window spread: windows open in TTLs [2, 10).
            start = 2 + int(plan._u("rlimit-start", cloud, region, dst, *extra) * 8)
            if start <= ttl < start + plan.rate_limit_window:
                return True
    return False


_FAULT_REGIONS = ["use1", "usw2", "euw1"]

region_loss_st = st.one_of(
    st.just({}),
    st.builds(lambda loss: {"*": loss}, rate_st),
    st.dictionaries(
        st.sampled_from(_FAULT_REGIONS + ["*"]), rate_st, min_size=1
    ),
)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    region_loss=region_loss_st,
    rate_limit=rate_st,
    window=st.integers(min_value=1, max_value=6),
    cloud=st.sampled_from(["amazon", "google", "microsoft"]),
    region=st.sampled_from(_FAULT_REGIONS),
    dst=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=1, max_value=40),
    salt=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200)
def test_fault_schedule_per_probe_window_matches_per_hop_oracle(
    seed, region_loss, rate_limit, window, cloud, region, dst, ttl, salt
):
    plan = FaultPlan(
        seed=seed,
        region_loss=region_loss,
        rate_limit_rate=rate_limit,
        rate_limit_window=window,
    )
    ttls = plan.rate_limited_ttls(cloud, region, dst, salt)
    assert len(ttls) in (0, window)
    expected = _hop_suppressed_per_hop(plan, cloud, region, dst, ttl, salt)
    assert plan.hop_suppressed(cloud, region, dst, ttl, salt, ttls) == expected
    assert plan.hop_suppressed(cloud, region, dst, ttl, salt) == expected


@given(spec_seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25)
def test_fault_plan_parse_describe_fields_roundtrip(spec_seed):
    plan = FaultPlan(
        seed=spec_seed, crash_rate=0.25, slow_rate=0.5, slow_seconds=0.125,
        region_loss={"use1": 0.0625}, rate_limit_rate=0.5, poison_shards=(2,),
    )
    spec = (
        f"seed={spec_seed},crash=0.25,slow=0.5,slow-seconds=0.125,"
        "loss=use1:0.0625,rate-limit=0.5,poison=2"
    )
    assert FaultPlan.parse(spec) == plan
