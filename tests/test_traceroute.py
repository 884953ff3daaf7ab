"""Traceroute-engine semantics tests."""

import random

import pytest

from repro.measure.traceroute import GAP_LIMIT, StopReason, TracerouteEngine
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

    def test_third_party_router_answers_with_default(self, tiny_world):
        engine = TracerouteEngine(tiny_world, seed=1)
        if not engine._third_party_routers:
            pytest.skip("no third-party routers at this seed")
        rid = next(iter(engine._third_party_routers))
        router = tiny_world.routers[rid]
        incoming = router.interface_ips[-1]
        answered = engine._response_ip(rid, incoming, random.Random(0))
        assert answered == router.interface_ips[0]


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
