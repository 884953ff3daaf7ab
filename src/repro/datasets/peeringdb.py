"""PeeringDB-style dataset: IXPs, LAN prefixes, facilities, tenants.

§6.1 uses PeeringDB for (i) IXP peering-LAN prefixes and their cities,
(ii) netixlan records mapping member addresses to ASNs, and (iii) colo
facility tenant lists (the single-colo/metro-footprint anchor).  Coverage
is partial: not every AS registers, and some netixlan entries are missing,
exactly the texture the paper's conservative heuristics tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.asn import ASN
from repro.net.ip import IPv4, Prefix
from repro.net.rng import keyed_uniform
from repro.world.model import World


@dataclass(frozen=True)
class PDBIXP:
    ixp_id: int
    name: str
    prefix: Prefix
    cities: Tuple[str, ...]       # metro codes; >1 marks a multi-metro IXP


@dataclass(frozen=True)
class PDBNetixlan:
    ixp_id: int
    asn: ASN
    ip: IPv4


@dataclass
class PDBFacility:
    facility_id: int
    name: str
    metro_code: str
    tenant_asns: Set[ASN] = field(default_factory=set)


class PeeringDB:
    """Queryable snapshot of the registry."""

    def __init__(
        self,
        ixps: List[PDBIXP],
        netixlans: List[PDBNetixlan],
        facilities: List[PDBFacility],
    ) -> None:
        self.ixps = ixps
        self.netixlans = netixlans
        self.facilities = facilities
        self._ixp_by_id = {x.ixp_id: x for x in ixps}
        self._member_by_ip: Dict[IPv4, PDBNetixlan] = {
            n.ip: n for n in netixlans
        }

    # -- IXP queries -----------------------------------------------------

    def member_of_ip(self, ip: IPv4) -> Optional[PDBNetixlan]:
        return self._member_by_ip.get(ip)

    def ixp(self, ixp_id: int) -> Optional[PDBIXP]:
        return self._ixp_by_id.get(ixp_id)

    # -- footprint queries -------------------------------------------------

    def metros_of_asn(self, asn: ASN) -> Set[str]:
        """Metros where the AS is listed as a facility tenant or IXP member."""
        metros: Set[str] = set()
        for fac in self.facilities:
            if asn in fac.tenant_asns:
                metros.add(fac.metro_code)
        for n in self.netixlans:
            ixp = self._ixp_by_id.get(n.ixp_id)
            if ixp is not None and n.asn == asn and len(ixp.cities) == 1:
                metros.add(ixp.cities[0])
        return metros

    def single_metro_asns(self) -> Dict[ASN, str]:
        """ASes whose whole registered footprint is one metro (§6.1)."""
        by_asn: Dict[ASN, Set[str]] = {}
        for fac in self.facilities:
            for asn in fac.tenant_asns:
                by_asn.setdefault(asn, set()).add(fac.metro_code)
        for n in self.netixlans:
            ixp = self._ixp_by_id.get(n.ixp_id)
            if ixp is not None and len(ixp.cities) == 1:
                by_asn.setdefault(n.asn, set()).add(ixp.cities[0])
        return {
            asn: next(iter(metros))
            for asn, metros in by_asn.items()
            if len(metros) == 1
        }


def peeringdb_from_world(
    world: World,
    seed: int = 0,
    netixlan_coverage: float = 0.92,
    tenant_coverage: float = 0.35,
) -> PeeringDB:
    ixps = [
        PDBIXP(
            ixp_id=ixp.ixp_id,
            name=ixp.name,
            prefix=ixp.prefix,
            cities=tuple(ixp.metro_codes),
        )
        for ixp in world.ixps.values()
    ]
    # Whether a record is listed is keyed to the record's identity, never
    # to a shared draw sequence: any construction order of the same world
    # yields the identical registry (the digest contract depends on it).
    netixlans: List[PDBNetixlan] = []
    for ixp in world.ixps.values():
        for asn, ips in sorted(ixp.member_ips.items()):
            for ip in ips:
                if keyed_uniform(
                    "peeringdb-netixlan", seed, ixp.ixp_id, asn, ip
                ) < netixlan_coverage:
                    netixlans.append(PDBNetixlan(ixp_id=ixp.ixp_id, asn=asn, ip=ip))
    facilities: List[PDBFacility] = []
    for fac in world.facilities.values():
        listed = {
            asn
            for asn in sorted(fac.tenant_asns)
            if keyed_uniform("peeringdb-tenant", seed, fac.facility_id, asn)
            < tenant_coverage
        }
        facilities.append(
            PDBFacility(
                facility_id=fac.facility_id,
                name=fac.name,
                metro_code=fac.metro_code,
                tenant_asns=listed,
            )
        )
    return PeeringDB(ixps, netixlans, facilities)
