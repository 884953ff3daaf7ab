"""Traceroute-engine semantics tests."""

import math
import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.measure.faults import FaultPlan
from repro.measure.traceroute import (
    GAP_LIMIT,
    StopReason,
    TraceHop,
    Traceroute,
    TracerouteEngine,
)
from repro.net.ip import parse_ip
from repro.world.build import WorldConfig, build_world
from repro.world.entities import RouterRole


@pytest.fixture(scope="module")
def engine(tiny_world):
    return TracerouteEngine(tiny_world, seed=1)


def _region(world):
    return world.region_names("amazon")[0]


def _responding_route(world):
    for route in world.routes.values():
        if route.egress_by_region and route.dest_response_p > 0:
            return route
    raise AssertionError("no routed /24")


class TestTraceSemantics:
    def test_dead_target_gap_limited(self, tiny_world, engine):
        trace = engine.trace("amazon", _region(tiny_world), parse_ip("11.0.0.1"))
        assert trace.stop_reason == StopReason.GAP_LIMIT
        # Ends with exactly GAP_LIMIT unresponsive slots.
        assert all(h.ip is None for h in trace.hops[-GAP_LIMIT:])

    def test_ttls_strictly_increasing(self, tiny_world, engine):
        route = _responding_route(tiny_world)
        trace = engine.trace("amazon", _region(tiny_world), route.prefix.network + 1)
        ttls = [h.ttl for h in trace.hops]
        assert ttls == sorted(set(ttls))

    def test_rtts_grow_roughly_with_depth(self, tiny_world, engine):
        route = _responding_route(tiny_world)
        region = sorted(route.egress_by_region)[0]
        trace = engine.trace("amazon", region, route.prefix.network + 1)
        rtts = [h.rtt_ms for h in trace.hops if h.rtt_ms is not None]
        assert rtts, "no responsive hops"
        # Jitter aside, the last hop is not closer than a tenth of the max.
        assert rtts[-1] >= max(rtts) * 0.1

    def test_completed_trace_ends_at_destination(self, tiny_world, engine):
        # Find a destination that answers (stable per-destination draw).
        region = _region(tiny_world)
        for route in tiny_world.routes.values():
            if not route.egress_by_region or route.dest_response_p == 0:
                continue
            for offset in range(1, 30):
                dst = route.prefix.network + offset
                trace = engine.trace("amazon", region, dst)
                if trace.completed:
                    assert trace.hops[-1].ip == dst
                    return
        pytest.skip("no completing destination found")

    def test_destination_response_consistent_across_regions(self, tiny_world, engine):
        regions = tiny_world.region_names("amazon")[:4]
        route = _responding_route(tiny_world)
        dst = route.prefix.network + 1
        outcomes = set()
        for region in regions:
            # A destination either answers or not, modulo probe loss; run
            # twice per region to separate loss from policy.
            results = {engine.trace("amazon", region, dst).completed for _ in range(2)}
            outcomes.add(True in results)
        assert len(outcomes) == 1

    def test_responsive_ips_property(self, tiny_world, engine):
        route = _responding_route(tiny_world)
        trace = engine.trace("amazon", _region(tiny_world), route.prefix.network + 1)
        assert trace.responsive_ips == [h.ip for h in trace.hops if h.ip is not None]


class TestThirdPartyResponders:
    def test_third_party_set_is_deterministic(self, tiny_world):
        a = TracerouteEngine(tiny_world, seed=1)
        b = TracerouteEngine(tiny_world, seed=99)
        # The misbehaving-router set depends on the world, not engine seed.
        assert a._third_party_routers == b._third_party_routers

    def test_third_party_only_client_borders(self, tiny_world):
        engine = TracerouteEngine(tiny_world, seed=1)
        for rid in engine._third_party_routers:
            assert tiny_world.routers[rid].role == RouterRole.CLIENT_BORDER

    def test_third_party_rate_plausible(self, tiny_world):
        engine = TracerouteEngine(tiny_world, seed=1)
        borders = [
            r
            for r in tiny_world.routers.values()
            if r.role == RouterRole.CLIENT_BORDER
        ]
        if len(borders) < 30:
            pytest.skip("too few border routers to check the rate")
        rate = len(engine._third_party_routers) / len(borders)
        assert rate < 0.25

    def test_third_party_router_answers_with_default(self):
        # Every client border router misbehaves and no loop is injected,
        # so every answer from a client border router is its default
        # (first) interface, whichever interface the probe arrived on.
        world = build_world(WorldConfig(scale=0.01, seed=2, loop_rate=0.0,
                                        third_party_response_rate=1.0))
        engine = TracerouteEngine(world, seed=5)
        arrived_elsewhere = 0
        for net, route in sorted(world.routes.items())[:40]:
            for region in sorted(route.egress_by_region):
                plan = world.resolve_path("amazon", region, net + 1)
                trace = engine.trace("amazon", region, net + 1)
                for planned, seen in zip(plan.hops, trace.hops):
                    router = world.routers[planned.router_id]
                    if router.role != RouterRole.CLIENT_BORDER or seen.ip is None:
                        continue
                    default = router.interface_ips[0]
                    arrived_elsewhere += planned.ip != default
                    assert seen.ip == default
        assert arrived_elsewhere > 0


class TestLoops:
    def test_loop_rate_controls_duplicates(self):
        world = build_world(WorldConfig(scale=0.01, seed=2, loop_rate=0.5))
        engine = TracerouteEngine(world, seed=5)
        region = world.region_names("amazon")[0]
        route = _responding_route(world)
        dupes = 0
        for offset in range(1, 40):
            trace = engine.trace("amazon", region, route.prefix.network + offset)
            ips = trace.responsive_ips
            if len(ips) != len(set(ips)):
                dupes += 1
        assert dupes > 0

    def test_zero_loop_rate_no_duplicates(self):
        world = build_world(WorldConfig(scale=0.01, seed=2, loop_rate=0.0,
                                        third_party_response_rate=0.0))
        engine = TracerouteEngine(world, seed=5)
        region = world.region_names("amazon")[0]
        for p24 in world.sweep_slash24s[:60]:
            trace = engine.trace("amazon", region, p24.network + 1)
            ips = trace.responsive_ips
            assert len(ips) == len(set(ips))


# ----------------------------------------------------------------------
# Reference realization: _realize as it was before the leg and
# third-party tables, as plain functions with no caches.  It sums each
# leg from the catalog, from the VM's metro, and asks the router set on
# every hop, so the engine must give the same hops and the same floats.
# ----------------------------------------------------------------------


def _ref_third_party_routers(world):
    rate = world.config.third_party_response_rate
    world_seed = getattr(world.config, "seed", 0)
    return {
        rid
        for rid, r in world.routers.items()
        if r.role == RouterRole.CLIENT_BORDER
        and ((rid * 2654435761 + world_seed * 97) & 0xFFFF) / 65536.0 < rate
    }


def _ref_response_ip(world, third_party, router_id, incoming):
    if router_id not in third_party:
        return incoming
    ifaces = world.routers[router_id].interface_ips or ()
    if not ifaces:
        return incoming
    return ifaces[0]


def ref_realize(world, faults, plan, cloud, region, rng, salt=0) -> Traceroute:
    """The reference realization (see the section comment)."""
    cfg = world.config
    catalog = world.catalog
    third_party = _ref_third_party_routers(world)
    faults = faults if faults is not None and faults.affects_probes else None
    hops: List[TraceHop] = []
    gap = 0
    ttl = 0
    cum_rtt = 0.0
    prev_metro = world.regions[cloud][region].metro_code
    seen_ips = []
    loop_injected = rng.random() < cfg.loop_rate
    window = (
        faults.rate_limited_ttls(cloud, region, plan.dest_ip, salt)
        if faults is not None
        else None
    )
    for hop in plan.hops:
        ttl += 1
        cum_rtt_here = cum_rtt + catalog.rtt_ms(prev_metro, hop.metro_code)
        cum_rtt = cum_rtt_here
        prev_metro = hop.metro_code
        responds = (
            hop.responsiveness > 0.0
            and rng.random() < hop.responsiveness
            and rng.random() >= cfg.probe_loss_rate
        )
        if (
            responds
            and faults is not None
            and faults.hop_suppressed(cloud, region, plan.dest_ip, ttl, salt, window)
        ):
            responds = False
        if not responds:
            hops.append(TraceHop(ttl=ttl, ip=None, rtt_ms=None))
            gap += 1
            if gap >= GAP_LIMIT:
                return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.GAP_LIMIT)
            continue
        gap = 0
        ip = _ref_response_ip(world, third_party, hop.router_id, hop.ip)
        if loop_injected and seen_ips and ttl > 2:
            ip = seen_ips[rng.randrange(len(seen_ips))]
            loop_injected = False
        rtt = (
            cum_rtt_here
            + cfg.hop_processing_ms * ttl
            + rng.expovariate(1.0 / max(cfg.ping_jitter_ms, 1e-6))
        )
        hops.append(TraceHop(ttl=ttl, ip=ip, rtt_ms=rtt))
        seen_ips.append(ip)
    dest_responds = plan.dest_responds and rng.random() >= cfg.probe_loss_rate
    if (
        dest_responds
        and faults is not None
        and faults.hop_suppressed(cloud, region, plan.dest_ip, ttl + 1, salt, window)
    ):
        dest_responds = False
    if dest_responds:
        ttl += 1
        rtt = cum_rtt + cfg.hop_processing_ms * ttl + rng.expovariate(
            1.0 / max(cfg.ping_jitter_ms, 1e-6)
        )
        hops.append(TraceHop(ttl=ttl, ip=plan.dest_ip, rtt_ms=rtt))
        return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.COMPLETED)
    for _ in range(GAP_LIMIT - gap):
        ttl += 1
        hops.append(TraceHop(ttl=ttl, ip=None, rtt_ms=None))
    return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.GAP_LIMIT)


fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        region_loss=st.dictionaries(
            st.sampled_from(
                ["*", "us-east-1", "eu-west-1", "az-us-east", "gcp-us-east", "ibm-eu-de"]
            ),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=3,
        ),
        rate_limit_rate=st.floats(min_value=0.0, max_value=1.0),
        rate_limit_window=st.integers(min_value=1, max_value=6),
    ),
)


class TestTablesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), faults=fault_plans, salt=st.integers(min_value=0, max_value=3))
    def test_trace_matches_reference(
        self, warm_world, cold_world, probe_keys, data, faults, salt
    ):
        cloud, region, dst = data.draw(probe_keys)
        cold_world._segments.clear()
        # On the warm world the probe runs twice, so the second trace
        # reads every leg from a filled table.
        for world, runs in ((warm_world, 2), (cold_world, 1)):
            engine = TracerouteEngine(world, seed=7, faults=faults)
            expected = ref_realize(
                world, faults, world.resolve_path(cloud, region, dst), cloud,
                region, engine.probe_rng(cloud, region, dst), salt,
            )
            for _ in range(runs):
                trace = engine.trace(cloud, region, dst, salt)
                assert [(h.ttl, h.ip, h.rtt_ms) for h in trace.hops] == [
                    (h.ttl, h.ip, h.rtt_ms) for h in expected.hops
                ]
                assert trace.stop_reason == expected.stop_reason


@settings(max_examples=300)
@given(
    key=st.one_of(st.integers(), st.text(max_size=20)),
    rate=st.floats(min_value=1e-3, max_value=1e6),
    draws=st.integers(min_value=1, max_value=20),
)
def test_inlined_jitter_is_expovariate(key, rate, draws):
    """``_realize`` inlines ``rng.expovariate(rate)`` as
    ``-log(1.0 - random()) / rate``, its body in CPython 3.11, so each
    RTT is the float every pinned digest was computed with.  A Python
    whose ``expovariate`` draws differently fails here, by name."""
    inlined = random.Random(key)
    stdlib = random.Random(key)
    for _ in range(draws):
        ours = -math.log(1.0 - inlined.random()) / rate
        assert ours.hex() == stdlib.expovariate(rate).hex()
