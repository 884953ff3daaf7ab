"""Forwarding-model tests: resolve_path across all destination classes."""

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ip import IPv4, Prefix, is_private, is_shared, parse_ip
from repro.world.entities import PeeringType
from repro.world.model import PathPlan, PlanHop, Slash24Route


def _region(world, cloud="amazon"):
    return world.region_names(cloud)[0]


def _some_route(world):
    for net, route in sorted(world.routes.items()):
        if route.egress_by_region and route.dest_response_p > 0:
            return route
    raise AssertionError("no routed /24 found")


class TestAmazonPaths:
    def test_private_destination_never_exits(self, tiny_world):
        plan = tiny_world.resolve_path("amazon", _region(tiny_world), parse_ip("10.9.9.9"))
        assert not plan.exits_cloud
        assert len(plan.hops) <= 1

    def test_shared_space_never_exits(self, tiny_world):
        plan = tiny_world.resolve_path("amazon", _region(tiny_world), parse_ip("100.64.0.9"))
        assert not plan.exits_cloud

    def test_own_cloud_space_never_exits(self, tiny_world):
        vm_ip = next(iter(tiny_world.regions["amazon"].values())).vm_ip
        plan = tiny_world.resolve_path("amazon", _region(tiny_world), vm_ip + 1)
        assert not plan.exits_cloud

    def test_dead_space_dies_inside(self, tiny_world):
        plan = tiny_world.resolve_path("amazon", _region(tiny_world), parse_ip("11.1.2.3"))
        assert not plan.exits_cloud
        assert plan.icx_id is None

    def test_routed_slash24_crosses_interconnection(self, tiny_world):
        route = _some_route(tiny_world)
        region = sorted(route.egress_by_region)[0]
        plan = tiny_world.resolve_path("amazon", region, route.prefix.network + 1)
        assert plan.exits_cloud
        assert plan.icx_id == route.egress_by_region[region]
        icx = tiny_world.interconnections[plan.icx_id]
        assert any(h.ip == icx.cbi_ip for h in plan.hops)

    def test_hot_potato_picks_serving_icx(self, tiny_world):
        route = _some_route(tiny_world)
        for region, icx_id in route.egress_by_region.items():
            assert icx_id in route.serving_icx_ids

    def test_interconnect_subnet_routes_via_owning_icx(self, tiny_world):
        w = tiny_world
        for icx in w.interconnections.values():
            if icx.subnet is None or icx.uses_private_addresses:
                continue
            # Probe a sibling address inside the subnet.
            dst = icx.subnet.prefix.last
            plan = w.resolve_path("amazon", _region(w), dst)
            assert plan.exits_cloud
            # Multi-region ports register the first icx only.
            target = w.infra_subnets[("amazon", dst & 0xFFFFFF00)]
            assert any(dst in pfx for pfx, _i in target)
            break

    def test_private_vpi_invisible(self, tiny_world):
        w = tiny_world
        private = [i for i in w.interconnections.values() if i.uses_private_addresses]
        if not private:
            pytest.skip("no private-address VPIs at this seed")
        for icx in private:
            for region in w.region_names("amazon"):
                plan = w.resolve_path("amazon", region, icx.cbi_ip)
                assert not any(h.ip == icx.cbi_ip for h in plan.hops)

    def test_ecmp_is_deterministic_per_destination(self, tiny_world):
        route = _some_route(tiny_world)
        region = sorted(route.egress_by_region)[0]
        dst = route.prefix.network + 1
        a = tiny_world.resolve_path("amazon", region, dst)
        b = tiny_world.resolve_path("amazon", region, dst)
        assert [h.ip for h in a.hops] == [h.ip for h in b.hops]

    def test_ecmp_spreads_across_destinations(self, tiny_world):
        w = tiny_world
        ecmp_icx = next(
            (i for i in w.interconnections.values() if len(i.abi_ecmp) > 1), None
        )
        if ecmp_icx is None:
            pytest.skip("no ECMP interconnection at this seed")
        # Find a /24 served by this icx.
        route = next(
            (
                r
                for r in w.routes.values()
                if ecmp_icx.icx_id in r.egress_by_region.values()
            ),
            None,
        )
        if route is None:
            pytest.skip("ECMP icx serves no /24")
        region = next(
            reg for reg, i in route.egress_by_region.items() if i == ecmp_icx.icx_id
        )
        seen = set()
        for offset in range(1, 200):
            plan = w.resolve_path("amazon", region, route.prefix.network + offset)
            for hop in plan.hops:
                if hop.ip in ecmp_icx.abi_ecmp:
                    seen.add(hop.ip)
        assert len(seen) > 1

    def test_remote_region_sees_backbone_or_ecmp_interface(self, tiny_world):
        w = tiny_world
        route = _some_route(tiny_world)
        icx_by_region = route.egress_by_region
        # Find a region whose egress icx sits at a different metro.
        for region, icx_id in icx_by_region.items():
            icx = w.interconnections[icx_id]
            region_metro = w.regions["amazon"][region].metro_code
            if icx.metro_code != region_metro:
                plan = w.resolve_path("amazon", region, route.prefix.network + 1)
                ips = [h.ip for h in plan.hops]
                assert icx.cbi_ip in ips
                return
        pytest.skip("all egresses local for this route")

    def test_announced_block_without_route_uses_default_egress(self, tiny_world):
        w = tiny_world
        # Find an announced client /24 that is NOT instantiated.
        for alloc in w.plan.allocations_of("client"):
            for p24 in alloc.prefix.slash24s():
                if p24.network not in w.routes:
                    plan = w.resolve_path("amazon", _region(w), p24.network + 1)
                    assert not plan.dest_responds
                    return
        pytest.skip("every client /24 instantiated at this scale")


class TestOtherCloudPaths:
    def test_mirror_path_reaches_shared_port(self, tiny_world):
        w = tiny_world
        shared = [
            i
            for i in w.interconnections.values()
            if len(i.vpi_clouds) > 1
            and not i.uses_private_addresses
            and w.interfaces[i.cbi_ip].shared_port_response
        ]
        if not shared:
            pytest.skip("no shared multi-cloud ports at this seed")
        icx = shared[0]
        cloud = sorted(set(icx.vpi_clouds) - {"amazon"})[0]
        region = w.region_names(cloud)[0]
        plan = w.resolve_path(cloud, region, icx.subnet.prefix.last)
        assert plan.exits_cloud
        assert any(h.ip == icx.cbi_ip for h in plan.hops)

    def test_transit_path_for_unrelated_client(self, tiny_world):
        w = tiny_world
        # A client with no microsoft presence must be reached via transit.
        route = None
        for r in w.routes.values():
            if (
                r.dest_response_p > 0
                and ("microsoft", r.carrier_asn) not in w.client_other_egress
            ):
                route = r
                break
        assert route is not None
        region = w.region_names("microsoft")[0]
        plan = w.resolve_path("microsoft", region, route.prefix.network + 1)
        assert plan.exits_cloud
        amazon_cbis = w.true_cbis()
        assert not any(h.ip in amazon_cbis for h in plan.hops)

    def test_other_cloud_to_amazon_space_is_opaque(self, tiny_world):
        w = tiny_world
        vm_ip = next(iter(w.regions["amazon"].values())).vm_ip
        region = w.region_names("google")[0]
        plan = w.resolve_path("google", region, vm_ip + 3)
        # At most a single border hop beyond google's own network.
        amazon_cbis = w.true_cbis()
        assert not any(h.ip in amazon_cbis for h in plan.hops)


class TestRttModel:
    def test_rtt_legs_local_interface_fast(self, tiny_world):
        w = tiny_world
        region_name, region = sorted(w.regions["amazon"].items())[0]
        _rid, ip = region.internal_path[-1]
        rtt = w.rtt_legs_ms("amazon", region_name, ip)
        assert rtt is not None and rtt < 1.0

    def test_rtt_legs_unknown_interface(self, tiny_world):
        assert tiny_world.rtt_legs_ms("amazon", _region(tiny_world), 1) is None

    def test_region_limit_blocks_other_regions(self, tiny_world):
        w = tiny_world
        if not w.ping_region_limit:
            pytest.skip("no region-limited interfaces at this seed")
        ip, allowed = next(iter(w.ping_region_limit.items()))
        blocked = [r for r in w.region_names("amazon") if r not in allowed]
        assert w.rtt_legs_ms("amazon", blocked[0], ip) is None

    def test_remote_cbi_has_longer_rtt(self, tiny_world):
        w = tiny_world
        remote = [
            i
            for i in w.interconnections.values()
            if i.remote
            and not i.uses_private_addresses
            and len(w.via_metros.get(i.cbi_ip, ())) == 2
            and i.metro_code != i.client_metro_code
        ]
        if not remote:
            pytest.skip("no remote peerings with two legs")
        icx = remote[0]
        region = _region(w)
        cbi_rtt = w.rtt_legs_ms("amazon", region, icx.cbi_ip)
        abi_rtt = w.rtt_legs_ms("amazon", region, icx.abi_ip)
        if cbi_rtt is None or abi_rtt is None:
            pytest.skip("interface not visible from first region")
        assert cbi_rtt >= abi_rtt


# ----------------------------------------------------------------------
# Reference forwarding: resolve_path as it was before shared segments, as
# plain functions of the world with no caches.  Every hop is built anew on
# every call, so the memoised path must agree with it hop for hop.
# ----------------------------------------------------------------------


def _ref_icx_store(world, cloud):
    if cloud == "amazon":
        return world.interconnections
    return world.other_cloud_icx.get(cloud, {})


def _ref_tail(world, cloud, region_name, icx_id, dst) -> List[PlanHop]:
    icx = _ref_icx_store(world, cloud)[icx_id]
    region = world.regions[cloud][region_name]
    pre: List[PlanHop] = []
    options: Tuple[IPv4, ...] = icx.abi_ecmp or (icx.abi_ip,)
    if icx.metro_code != region.metro_code:
        bb = world.backbone_hops.get((cloud, region_name))
        if bb is not None:
            pre.append(bb)
        backbone_iface = world.router_backbone_iface.get(icx.abi_router_id)
        if backbone_iface is not None:
            options = options + (backbone_iface,)
    if icx.agg_abi_ip is not None:
        agg_iface = world.interfaces.get(icx.agg_abi_ip)
        if agg_iface is not None:
            agg_router = world.routers[agg_iface.router_id]
            pre.append(
                PlanHop(
                    router_id=agg_iface.router_id,
                    ip=icx.agg_abi_ip,
                    metro_code=icx.metro_code,
                    responsiveness=agg_router.responsiveness,
                )
            )
    if len(options) > 1:
        abi_ip = options[((dst * 2654435761) >> 7) % len(options)]
    else:
        abi_ip = options[0]
    iface = world.interfaces.get(abi_ip)
    router_id = iface.router_id if iface is not None else icx.abi_router_id
    abi_router = world.routers[router_id]
    return pre + [
        PlanHop(
            router_id=router_id,
            ip=abi_ip,
            metro_code=icx.abi_metro_code or icx.metro_code,
            responsiveness=abi_router.responsiveness,
        )
    ]


def _ref_cbi_hop(world, icx) -> PlanHop:
    router = world.routers[icx.cbi_router_id]
    return PlanHop(
        router_id=icx.cbi_router_id,
        ip=icx.cbi_ip,
        metro_code=icx.client_metro_code,
        responsiveness=router.responsiveness,
    )


def _ref_chain_hops(world, chain_router_ids: Sequence[int]) -> List[PlanHop]:
    hops: List[PlanHop] = []
    for rid in chain_router_ids:
        router = world.routers[rid]
        if not router.interface_ips:
            continue
        hops.append(
            PlanHop(
                router_id=rid,
                ip=router.interface_ips[0],
                metro_code=router.metro_code or "???",
                responsiveness=router.responsiveness,
            )
        )
    return hops


def _ref_lookup_icx_for_infra(world, cloud, dst) -> Optional[int]:
    entries = world.infra_subnets.get((cloud, dst & 0xFFFFFF00))
    if not entries:
        return None
    for subnet, icx_id in entries:
        if dst in subnet:
            return icx_id
    return None


def _ref_transit_path(world, cloud, region_name, base, route, dst) -> PathPlan:
    hops = list(base)
    border = world.cloud_border_hops.get((cloud, region_name))
    if border is not None:
        hops.append(border)
    transit = world.transit_hops.get((cloud, region_name))
    if transit is not None:
        hops.append(transit)
    entry = world.client_transit_iface.get(route.carrier_asn)
    if entry is not None:
        rid, ip = entry
        router = world.routers[rid]
        hops.append(
            PlanHop(
                router_id=rid,
                ip=ip,
                metro_code=router.metro_code or "IAD",
                responsiveness=router.responsiveness,
            )
        )
    hops.extend(_ref_chain_hops(world, route.chain_router_ids))
    return PathPlan(
        hops=hops,
        dest_ip=dst,
        dest_responds=route.dest_response_p > 0.0,
        exits_cloud=True,
        icx_id=None,
    )


def _ref_registry_path(world, cloud, region_name, dst, base) -> PathPlan:
    alloc = world.plan.owner_of(dst)
    if alloc is None:
        return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)
    if alloc.category == "cloud":
        if alloc.holder_name == cloud:
            return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)
        hops = list(base)
        border = world.cloud_border_hops.get((cloud, region_name))
        if border is not None:
            hops.append(border)
        return PathPlan(hops=hops, dest_ip=dst, dest_responds=False, exits_cloud=True)
    if alloc.category in ("client", "infra"):
        carrier = world.asn_carrier.get(alloc.owner_asn)
        if carrier is None:
            return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)
        if cloud != "amazon":
            pseudo = Slash24Route(
                prefix=Prefix.of(dst, 24),
                owner_asn=alloc.owner_asn,
                serving_icx_ids=(),
                egress_by_region={},
                chain_router_ids=(),
                dest_response_p=0.0,
                carrier_asn=carrier,
            )
            return _ref_transit_path(world, cloud, region_name, base, pseudo, dst)
        icx_id = world.client_default_egress.get((carrier, region_name))
        if icx_id is not None:
            icx = world.interconnections.get(icx_id)
            if icx is not None and not icx.uses_private_addresses:
                hops = list(base)
                hops.extend(_ref_tail(world, cloud, region_name, icx_id, dst))
                hops.append(_ref_cbi_hop(world, icx))
                return PathPlan(
                    hops=hops,
                    dest_ip=dst,
                    dest_responds=False,
                    exits_cloud=True,
                    icx_id=icx_id,
                )
    return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)


def ref_resolve_path(world, cloud, region_name, dst) -> PathPlan:
    """The reference forwarding decision (see the section comment)."""
    region = world.regions[cloud][region_name]
    base: List[PlanHop] = [
        PlanHop(router_id=rid, ip=ip, metro_code=region.metro_code)
        for rid, ip in region.internal_path
    ]
    if is_private(dst) or is_shared(dst):
        return PathPlan(hops=base[:1], dest_ip=dst, dest_responds=False, exits_cloud=False)
    icx_id = _ref_lookup_icx_for_infra(world, cloud, dst)
    chain: Tuple[int, ...] = ()
    dest_p = 0.0
    if icx_id is None and cloud != "amazon":
        amazon_icx = _ref_lookup_icx_for_infra(world, "amazon", dst)
        if amazon_icx is not None:
            icx_id = world.mirror_of.get((cloud, amazon_icx))
    if icx_id is None:
        route = world.routes.get(dst & 0xFFFFFF00)
        if route is None:
            return _ref_registry_path(world, cloud, region_name, dst, base)
        if cloud == "amazon":
            icx_id = route.egress_by_region.get(region_name)
        else:
            mirrors = world.client_other_egress.get((cloud, route.carrier_asn))
            if not mirrors:
                return _ref_transit_path(world, cloud, region_name, base, route, dst)
            store = _ref_icx_store(world, cloud)
            region_metro = world.regions[cloud][region_name].metro_code
            icx_id = min(
                mirrors,
                key=lambda i: world.catalog.distance_km(
                    region_metro, store[i].metro_code
                ),
            )
        chain = route.chain_router_ids
        dest_p = route.dest_response_p
    if icx_id is None:
        return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)
    icx = _ref_icx_store(world, cloud).get(icx_id)
    if icx is None or icx.uses_private_addresses:
        return PathPlan(hops=base, dest_ip=dst, dest_responds=False, exits_cloud=False)
    hops = list(base)
    hops.extend(_ref_tail(world, cloud, region_name, icx_id, dst))
    hops.append(_ref_cbi_hop(world, icx))
    hops.extend(_ref_chain_hops(world, chain))
    return PathPlan(
        hops=hops,
        dest_ip=dst,
        dest_responds=(
            dest_p > 0.0 and ((dst * 2654435761) & 0xFFFF) / 65536.0 < dest_p
        ),
        exits_cloud=True,
        icx_id=icx_id,
    )


def _plan_view(plan: PathPlan):
    return (
        [(h.router_id, h.ip, h.metro_code, h.responsiveness) for h in plan.hops],
        plan.dest_ip,
        plan.dest_responds,
        plan.exits_cloud,
        plan.icx_id,
    )


class TestSharedSegmentsMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_resolve_path_matches_reference(self, warm_world, cold_world, probe_keys, data):
        cloud, region, dst = data.draw(probe_keys)
        expected = _plan_view(ref_resolve_path(warm_world, cloud, region, dst))
        assert _plan_view(warm_world.resolve_path(cloud, region, dst)) == expected
        cold_world._segments.clear()
        assert _plan_view(cold_world.resolve_path(cloud, region, dst)) == expected

    def test_plan_hops_are_shared_tuples(self, warm_world):
        route = _some_route(warm_world)
        region = sorted(route.egress_by_region)[0]
        a = warm_world.resolve_path("amazon", region, route.prefix.network + 1)
        b = warm_world.resolve_path("amazon", region, route.prefix.network + 1)
        assert isinstance(a.hops, tuple)
        assert all(x is y for x, y in zip(a.hops, b.hops))
