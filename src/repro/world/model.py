"""The assembled synthetic Internet and its forwarding behaviour.

:class:`World` is the single source of ground truth.  It exposes exactly
two kinds of behaviour to the measurement plane:

* :meth:`World.resolve_path` -- the forwarding decision for a probe from a
  cloud VM to a destination address, as a tuple of :class:`PlanHop`
  (which router answers, with which interface, from which metro);
* per-interface reachability/latency attributes consumed by the ping and
  reachability probers.

A path is a join of hop segments that many probes share: a region's
internal path per ``(cloud, region)``, the tail from the region edge
through the ABI to the CBI per ``(cloud, region, icx, ABI)``, the client
chain per /24 route, and the transit legs per ``(cloud, region,
carrier)``.  The tails of every region reuse their interconnection's own
hop objects (aggregation, ABIs, CBI), so each hop is built once.
``World._segments`` builds each segment on first use and keeps it for
the world's lifetime, so a probe allocates only its plan and the tuple
its segments join into.  Nothing ever invalidates the memo: routing
state is immutable once ``build_world`` returns.  The memo holds
segments, never whole paths, so it grows with the world, not with the
number of probes.

Inference code must never touch ground-truth fields (router ownership,
true metros, peering types); those are reserved for the evaluation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.net.asn import ASN, ASRegistry
from repro.net.geo import MetroCatalog
from repro.net.ip import IPv4, Prefix, is_private_or_shared
from repro.world.addressing import AddressPlan
from repro.world.entities import (
    ClientAS,
    CloudExchange,
    ColoFacility,
    Interconnection,
    Interface,
    IXP,
    RegionTruth,
    Router,
)


def _stable_response(dst: IPv4, p: float) -> bool:
    """Deterministic per-destination response draw (Knuth-hash based).

    A destination either answers probes or does not -- consistently across
    regions and rounds -- so the draw must not consume campaign RNG state.
    """
    if p <= 0.0:
        return False
    return ((dst * 2654435761) & 0xFFFF) / 65536.0 < p


class PlanHop(NamedTuple):
    """One forwarding hop as the traceroute engine sees it."""

    router_id: int
    ip: IPv4
    metro_code: str
    responsiveness: float = 1.0


@dataclass
class PathPlan:
    """Resolved forwarding path for (cloud, region, destination).

    ``icx_id`` records which interconnection (if any) the path crosses --
    ground truth used only by evaluation, never by inference.
    """

    hops: Tuple[PlanHop, ...]
    dest_ip: IPv4
    dest_responds: bool
    exits_cloud: bool
    icx_id: Optional[int] = None


@dataclass
class Slash24Route:
    """Routing state for one instantiated /24."""

    prefix: Prefix
    owner_asn: ASN
    #: interconnections able to serve this /24 (their ids).
    serving_icx_ids: Tuple[int, ...]
    #: region name -> chosen egress icx id (hot-potato, precomputed).
    egress_by_region: Dict[str, int]
    #: router ids of the client-side chain between CBI router and the
    #: destination (internal routers; may include downstream-AS routers).
    chain_router_ids: Tuple[int, ...]
    #: probability that the destination host itself answers.
    dest_response_p: float = 0.08
    #: announced in the round-1 BGP snapshot?
    announced_r1: bool = True
    #: peer AS that carries this /24 (== owner for the AS's own space,
    #: the transit parent for downstream-stub space).
    carrier_asn: ASN = 0


class World:
    """Registries plus the forwarding function over them."""

    def __init__(
        self,
        config,
        catalog: MetroCatalog,
        as_registry: ASRegistry,
        plan: AddressPlan,
    ) -> None:
        self.config = config
        self.catalog = catalog
        self.as_registry = as_registry
        self.plan = plan

        self.routers: Dict[int, Router] = {}
        self.interfaces: Dict[IPv4, Interface] = {}
        self.facilities: Dict[int, ColoFacility] = {}
        self.ixps: Dict[int, IXP] = {}
        self.exchanges: Dict[int, CloudExchange] = {}
        self.interconnections: Dict[int, Interconnection] = {}
        self.client_ases: Dict[ASN, ClientAS] = {}
        #: cloud name -> region name -> RegionTruth
        self.regions: Dict[str, Dict[str, RegionTruth]] = {}
        #: ordered probing targets, /24 -> route
        self.routes: Dict[int, Slash24Route] = {}
        #: (cloud, /24 network) -> [(subnet prefix, icx_id)] interconnect space
        self.infra_subnets: Dict[Tuple[str, int], List[Tuple[Prefix, int]]] = {}
        #: resolve_path's shared hop segments and the routing facts behind
        #: them, built on first use and never invalidated (module
        #: docstring); keys start with their kind: "base", "tail",
        #: "border", "chain", "transit", "infra" or "mirror"
        self._segments: Dict[Tuple[Any, ...], Any] = {}
        #: backbone hop per (cloud, from_region, to_metro)
        self.backbone_hops: Dict[Tuple[str, str], PlanHop] = {}
        #: interfaces answering pings from the public Internet
        self.publicly_reachable: Set[IPv4] = set()
        #: interface ip -> path metros (after the VM metro) for RTT legs
        self.via_metros: Dict[IPv4, Tuple[str, ...]] = {}
        #: interface ip -> restrict ping visibility to these region names
        self.ping_region_limit: Dict[IPv4, Set[str]] = {}
        #: every /24 worth sweeping in round 1 (campaign target universe)
        self.sweep_slash24s: List[Prefix] = []
        #: interconnections of other clouds (for VPI probing), by cloud
        self.other_cloud_icx: Dict[str, Dict[int, Interconnection]] = {}
        #: (cloud, carrier asn) -> that cloud's mirror interconnections
        self.client_other_egress: Dict[Tuple[str, ASN], List[int]] = {}
        #: (cloud, amazon icx id) -> that cloud's mirror of the same port
        self.mirror_of: Dict[Tuple[str, int], int] = {}
        #: BGP-announced blocks per cloud (infra blocks stay WHOIS-only)
        self.cloud_announced_blocks: Dict[str, List[Prefix]] = {}
        self.cloud_infra_blocks: Dict[str, List[Prefix]] = {}
        #: (cloud, region) -> transit hop used when no direct peering exists
        self.transit_hops: Dict[Tuple[str, str], PlanHop] = {}
        #: client asn -> transit-facing interface of its primary border router
        self.client_transit_iface: Dict[ASN, Tuple[int, IPv4]] = {}
        #: (cloud, region) -> the cloud's own border hop toward the Internet
        self.cloud_border_hops: Dict[Tuple[str, str], PlanHop] = {}
        #: (carrier asn, region) -> default egress icx for announced space
        #: that has no instantiated /24 route
        self.client_default_egress: Dict[Tuple[ASN, str], int] = {}
        #: owning asn -> peer AS carrying its space (stubs map to parent)
        self.asn_carrier: Dict[ASN, ASN] = {}
        #: border router -> its backbone-facing interface: the incoming
        #: interface it answers with when probe traffic arrives over the
        #: cloud backbone instead of from the local region (§7.4: this
        #: sharing is what fuses the ICG into one giant component)
        self.router_backbone_iface: Dict[int, IPv4] = {}

    # ------------------------------------------------------------------
    # registry helpers (used by the builder)
    # ------------------------------------------------------------------

    def add_router(self, router: Router) -> Router:
        if router.router_id in self.routers:
            raise ValueError(f"duplicate router id {router.router_id}")
        self.routers[router.router_id] = router
        return router

    def add_interface(self, iface: Interface) -> Interface:
        if iface.ip in self.interfaces:
            raise ValueError(f"duplicate interface ip {iface.ip}")
        self.interfaces[iface.ip] = iface
        self.routers[iface.router_id].add_interface_ip(iface.ip)
        return iface

    def interface_router(self, ip: IPv4) -> Optional[Router]:
        iface = self.interfaces.get(ip)
        return self.routers[iface.router_id] if iface else None

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------

    def region(self, cloud: str, name: str) -> RegionTruth:
        return self.regions[cloud][name]

    def region_names(self, cloud: str) -> List[str]:
        return sorted(self.regions.get(cloud, {}))

    def _icx_store(self, cloud: str) -> Dict[int, Interconnection]:
        if cloud == "amazon":
            return self.interconnections
        return self.other_cloud_icx.get(cloud, {})

    def _base_hops(self, cloud: str, region_name: str) -> Tuple[PlanHop, ...]:
        """The region's internal path, VM side first."""
        key = ("base", cloud, region_name)
        base = self._segments.get(key)
        if base is None:
            region = self.regions[cloud][region_name]
            base = self._segments[key] = tuple(
                PlanHop(rid, ip, region.metro_code) for rid, ip in region.internal_path
            )
        return base

    def _tail_for(
        self, cloud: str, region_name: str, icx: Interconnection, dst: IPv4
    ) -> Tuple[PlanHop, ...]:
        """Hops from the region edge through the ABI to the CBI.

        The ABI depends on the destination because of ECMP: probes hashed
        onto different parallel links cross different border interfaces.
        So the memo keeps one tail per ABI option, in option order.
        """
        key = ("tail", cloud, region_name, icx.icx_id)
        tails = self._segments.get(key)
        if tails is None:
            tails = self._segments[key] = self._build_tails(cloud, region_name, icx)
        if len(tails) > 1:
            return tails[((dst * 2654435761) >> 7) % len(tails)]
        return tails[0]

    def _build_tails(
        self, cloud: str, region_name: str, icx: Interconnection
    ) -> Tuple[Tuple[PlanHop, ...], ...]:
        region = self.regions[cloud][region_name]
        agg, abi_hops, cbi = self._border_hops(cloud, icx)
        pre = agg
        options: Tuple[IPv4, ...] = icx.abi_ecmp or (icx.abi_ip,)
        if icx.metro_code != region.metro_code:
            bb = self.backbone_hops.get((cloud, region_name))
            if bb is not None:
                pre = (bb,) + agg
            # Traffic arriving over the backbone may hit the border router
            # on its backbone-facing link interface instead of one of the
            # fabric-facing ones -- that shared interface is what fuses
            # the ICG across peerings (§7.4).
            backbone_iface = self.router_backbone_iface.get(icx.abi_router_id)
            if backbone_iface is not None:
                options = options + (backbone_iface,)
        return tuple(pre + (abi_hops[abi_ip], cbi) for abi_ip in options)

    def _border_hops(
        self, cloud: str, icx: Interconnection
    ) -> Tuple[Tuple[PlanHop, ...], Dict[IPv4, PlanHop], PlanHop]:
        """``icx``'s own hops, shared by the tails of every region: the
        aggregation hop (if any), the ABI hop of each interface a probe
        may cross, and the CBI hop."""
        key = ("border", cloud, icx.icx_id)
        hops = self._segments.get(key)
        if hops is not None:
            return hops
        agg: Tuple[PlanHop, ...] = ()
        if icx.agg_abi_ip is not None:
            agg_iface = self.interfaces.get(icx.agg_abi_ip)
            if agg_iface is not None:
                agg_router = self.routers[agg_iface.router_id]
                agg = (
                    PlanHop(
                        agg_iface.router_id,
                        icx.agg_abi_ip,
                        icx.metro_code,
                        agg_router.responsiveness,
                    ),
                )
        abi_hops: Dict[IPv4, PlanHop] = {}
        backbone_iface = self.router_backbone_iface.get(icx.abi_router_id)
        for abi_ip in (icx.abi_ecmp or (icx.abi_ip,)) + (
            (backbone_iface,) if backbone_iface is not None else ()
        ):
            iface = self.interfaces.get(abi_ip)
            router_id = iface.router_id if iface is not None else icx.abi_router_id
            abi_hops[abi_ip] = PlanHop(
                router_id,
                abi_ip,
                icx.abi_metro_code or icx.metro_code,
                self.routers[router_id].responsiveness,
            )
        cbi = PlanHop(
            icx.cbi_router_id,
            icx.cbi_ip,
            icx.client_metro_code,
            self.routers[icx.cbi_router_id].responsiveness,
        )
        hops = self._segments[key] = (agg, abi_hops, cbi)
        return hops

    def _chain_hops(self, net: int, route: Slash24Route) -> Tuple[PlanHop, ...]:
        """The client-side chain between the CBI router and ``route``'s
        destinations (``net`` is the route's /24)."""
        key = ("chain", net)
        chain = self._segments.get(key)
        if chain is None:
            hops: List[PlanHop] = []
            for rid in route.chain_router_ids:
                router = self.routers[rid]
                if router.interface_ips:
                    hops.append(
                        PlanHop(
                            rid,
                            router.interface_ips[0],
                            router.metro_code or "???",
                            router.responsiveness,
                        )
                    )
            chain = self._segments[key] = tuple(hops)
        return chain

    def _lookup_icx_for_infra(self, cloud: str, dst: IPv4) -> Optional[int]:
        """Connected-route lookup: is dst inside an interconnect /24?

        Each such /24 gets a 256-slot table of offset -> icx id on first
        use; the first registered subnet covering an address wins.
        """
        net = dst & 0xFFFFFF00
        entries = self.infra_subnets.get((cloud, net))
        if not entries:
            return None
        key = ("infra", cloud, net)
        table = self._segments.get(key)
        if table is None:
            slots: List[Optional[int]] = [None] * 256
            for subnet, icx_id in reversed(entries):
                lo = max(subnet.network, net)
                hi = min(subnet.network + subnet.size - 1, net + 255)
                slots[lo - net : hi - net + 1] = [icx_id] * (hi - lo + 1)
            table = self._segments[key] = tuple(slots)
        return table[dst & 0xFF]

    def _mirror_egress(
        self, cloud: str, region_name: str, carrier: ASN
    ) -> Optional[int]:
        """Another cloud's egress toward ``carrier``: its mirror
        interconnection nearest the region, or None (no direct peering)."""
        key = ("mirror", cloud, region_name, carrier)
        if key in self._segments:
            return self._segments[key]
        mirrors = self.client_other_egress.get((cloud, carrier))
        icx_id = None
        if mirrors:
            store = self._icx_store(cloud)
            region_metro = self.regions[cloud][region_name].metro_code
            icx_id = min(
                mirrors,
                key=lambda i: self.catalog.distance_km(
                    region_metro, store[i].metro_code
                ),
            )
        self._segments[key] = icx_id
        return icx_id

    def _transit_path(
        self,
        cloud: str,
        region_name: str,
        base: Tuple[PlanHop, ...],
        carrier: ASN,
        chain: Tuple[PlanHop, ...],
        dst: IPv4,
        dest_responds: bool,
    ) -> PathPlan:
        """Path through a transit provider (no direct cloud<->client peering).

        Used by the other clouds when probing the VPI target pool: the
        client's border router answers with its transit-facing interface,
        which never collides with an Amazon CBI (§7.1's soundness case).
        """
        key = ("transit", cloud, region_name, carrier)
        legs = self._segments.get(key)
        if legs is None:
            legs = ()
            border = self.cloud_border_hops.get((cloud, region_name))
            if border is not None:
                legs += (border,)
            transit = self.transit_hops.get((cloud, region_name))
            if transit is not None:
                legs += (transit,)
            entry = self.client_transit_iface.get(carrier)
            if entry is not None:
                rid, ip = entry
                router = self.routers[rid]
                legs += (
                    PlanHop(rid, ip, router.metro_code or "IAD", router.responsiveness),
                )
            self._segments[key] = legs
        return PathPlan(base + legs + chain, dst, dest_responds, True)

    def resolve_path(self, cloud: str, region_name: str, dst: IPv4) -> PathPlan:
        """Forwarding decision for a probe from ``region_name`` to ``dst``.

        Routing does not depend on the BGP snapshot: Amazon routes to
        connected interconnect subnets whether or not they are publicly
        announced.
        """
        base = self._base_hops(cloud, region_name)
        if is_private_or_shared(dst):
            return PathPlan(base[:1], dst, False, False)

        # 1. connected interconnect subnets (most specific; routed even
        #    when the covering block is absent from BGP).
        icx_id = self._lookup_icx_for_infra(cloud, dst)
        chain: Tuple[PlanHop, ...] = ()
        dest_p = 0.0
        if icx_id is None and cloud != "amazon":
            # A probe from another cloud toward an Amazon-facing port
            # subnet reaches that specific port's router, which answers
            # over its VLAN to the probing cloud (the §7.1 overlap).
            amazon_icx = self._lookup_icx_for_infra("amazon", dst)
            if amazon_icx is not None:
                icx_id = self.mirror_of.get((cloud, amazon_icx))
        if icx_id is None:
            # 2. instantiated /24 routes (the hot path).
            net = dst & 0xFFFFFF00
            route = self.routes.get(net)
            if route is None:
                # 3. fall back to the allocation registry.
                return self._registry_path(cloud, region_name, dst, base)
            chain = self._chain_hops(net, route)
            if cloud == "amazon":
                icx_id = route.egress_by_region.get(region_name)
            else:
                icx_id = self._mirror_egress(cloud, region_name, route.carrier_asn)
                if icx_id is None:
                    return self._transit_path(
                        cloud, region_name, base, route.carrier_asn, chain,
                        dst, route.dest_response_p > 0.0,
                    )
            dest_p = route.dest_response_p

        if icx_id is None:
            # No route: the probe dies inside the cloud backbone.
            return PathPlan(base, dst, False, False)

        icx = self._icx_store(cloud).get(icx_id)
        if icx is None or icx.uses_private_addresses:
            # Private-address VPIs are isolated in the customer's VPC and
            # invisible to probes from any other customer's VM (§2, §9).
            return PathPlan(base, dst, False, False)

        return PathPlan(
            base + self._tail_for(cloud, region_name, icx, dst) + chain,
            dst,
            _stable_response(dst, dest_p),
            True,
            icx_id,
        )

    def _registry_path(
        self, cloud: str, region_name: str, dst: IPv4, base: Tuple[PlanHop, ...]
    ) -> PathPlan:
        """Path for destinations with no /24 route: cloud space, announced
        client space without instantiated /24s, or dead space."""
        alloc = self.plan.owner_of(dst)
        if alloc is None:
            return PathPlan(base, dst, False, False)
        if alloc.category == "cloud":
            if alloc.holder_name == cloud:
                return PathPlan(base, dst, False, False)
            # Another cloud's space: one hop into that cloud, then opaque.
            border = self.cloud_border_hops.get((cloud, region_name))
            hops = base + (border,) if border is not None else base
            return PathPlan(hops, dst, False, True)
        if alloc.category in ("client", "infra"):
            carrier = self.asn_carrier.get(alloc.owner_asn)
            if carrier is None:
                return PathPlan(base, dst, False, False)
            if cloud != "amazon":
                return self._transit_path(
                    cloud, region_name, base, carrier, (), dst, False
                )
            icx_id = self.client_default_egress.get((carrier, region_name))
            if icx_id is not None:
                icx = self.interconnections.get(icx_id)
                if icx is not None and not icx.uses_private_addresses:
                    return PathPlan(
                        base + self._tail_for(cloud, region_name, icx, dst),
                        dst,
                        False,
                        True,
                        icx_id,
                    )
        return PathPlan(base, dst, False, False)

    # ------------------------------------------------------------------
    # latency ground truth (consumed by the ping prober)
    # ------------------------------------------------------------------

    def rtt_legs_ms(self, cloud: str, region_name: str, ip: IPv4) -> Optional[float]:
        """Base (propagation-only) RTT from a region's VM to an interface.

        Returns ``None`` when the interface is not reachable from that
        region (never routed there, or ping-restricted).
        """
        iface = self.interfaces.get(ip)
        if iface is None:
            return None
        limit = self.ping_region_limit.get(ip)
        if limit is not None and region_name not in limit:
            return None
        region = self.regions[cloud][region_name]
        legs = self.via_metros.get(ip)
        if legs is None:
            router = self.routers[iface.router_id]
            legs = (router.metro_code or region.metro_code,)
        total = 0.0
        cur = region.metro_code
        for code in legs:
            total += self.catalog.rtt_ms(cur, code)
            cur = code
        return total

    # ------------------------------------------------------------------
    # evaluation-only ground truth accessors
    # ------------------------------------------------------------------

    def true_metro_of_interface(self, ip: IPv4) -> Optional[str]:
        router = self.interface_router(ip)
        return router.metro_code if router else None

    def true_abis(self) -> Set[IPv4]:
        return {icx.abi_ip for icx in self.interconnections.values()}

    def true_cbis(self) -> Set[IPv4]:
        return {icx.cbi_ip for icx in self.interconnections.values()}

    def true_vpi_cbis(self) -> Set[IPv4]:
        return {
            icx.cbi_ip
            for icx in self.interconnections.values()
            if icx.is_virtual
        }
