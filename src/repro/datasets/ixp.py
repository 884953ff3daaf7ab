"""Merged IXP directory (PeeringDB + PCH + CAIDA IXP dataset).

The paper combines three sources to decide whether a hop address belongs
to an IXP peering LAN (§3) and to map member addresses to member ASNs
(§5.1's IXP-client heuristic, via traIXroute-style lookups [63]).  We
model the merge as the PeeringDB snapshot plus a PCH-style supplement that
recovers a slice of the netixlan entries PeeringDB is missing.

Whether PCH recovers a member record is keyed to the member IP itself,
so the merged view is identical regardless of iteration order.  Under a
:class:`~repro.datasets.datafaults.DataFaultPlan` the merge can also lose
member records entirely, or carry records whose two sources *disagree*
on the member ASN; disagreements are kept in a conflict table (PeeringDB
wins in the merged view) so the annotation layer can lower its
confidence instead of silently trusting one source.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.net.asn import ASN
from repro.net.ip import IPv4, Prefix
from repro.net.rng import keyed_uniform
from repro.datasets.datafaults import DataFaultPlan
from repro.datasets.peeringdb import PeeringDB
from repro.world.model import World


class IXPDirectory:
    """Fast IXP-prefix membership and member lookups."""

    def __init__(
        self,
        prefixes: List[Tuple[Prefix, int]],
        members: Dict[IPv4, Tuple[int, ASN]],
        cities: Dict[int, Tuple[str, ...]],
        conflicts: Optional[Mapping[IPv4, Tuple[ASN, ASN]]] = None,
    ) -> None:
        self._prefix_by_net: Dict[int, Tuple[Prefix, int]] = {}
        for prefix, ixp_id in prefixes:
            for p24 in prefix.slash24s():
                self._prefix_by_net[p24.network] = (prefix, ixp_id)
        self._members = members
        self._cities = cities
        #: ip -> (PeeringDB ASN, conflicting ASN from the other source)
        self._conflicts: Dict[IPv4, Tuple[ASN, ASN]] = dict(conflicts or {})

    # ------------------------------------------------------------------

    def ixp_of(self, ip: IPv4) -> Optional[int]:
        """IXP id when ``ip`` is inside a known peering LAN."""
        entry = self._prefix_by_net.get(ip & 0xFFFFFF00)
        if entry is None:
            return None
        prefix, ixp_id = entry
        return ixp_id if ip in prefix else None

    def is_ixp_address(self, ip: IPv4) -> bool:
        return self.ixp_of(ip) is not None

    def member_asn(self, ip: IPv4) -> Optional[ASN]:
        entry = self._members.get(ip)
        return entry[1] if entry else None

    def member_conflict(self, ip: IPv4) -> Optional[Tuple[ASN, ASN]]:
        """The two ASNs the sources claim for ``ip``, when they disagree."""
        return self._conflicts.get(ip)

    def conflicted_ips(self) -> List[IPv4]:
        return sorted(self._conflicts)

    @property
    def conflict_count(self) -> int:
        return len(self._conflicts)

    def cities_of(self, ixp_id: int) -> Tuple[str, ...]:
        return self._cities.get(ixp_id, ())

    def is_multi_metro(self, ixp_id: int) -> bool:
        return len(self._cities.get(ixp_id, ())) > 1

    def ixp_ids(self) -> Set[int]:
        return set(self._cities)

    def member_ips_of(self, ixp_id: int) -> List[IPv4]:
        return sorted(ip for ip, (i, _a) in self._members.items() if i == ixp_id)


def ixp_directory_from_world(
    world: World,
    peeringdb: PeeringDB,
    seed: int = 0,
    pch_recovery_rate: float = 0.5,
    data_faults: Optional[DataFaultPlan] = None,
) -> IXPDirectory:
    """Merge PeeringDB's view with a PCH-style supplement."""
    prefixes = [(x.prefix, x.ixp_id) for x in peeringdb.ixps]
    cities = {x.ixp_id: x.cities for x in peeringdb.ixps}
    pdb_members: Dict[IPv4, Tuple[int, ASN]] = {
        n.ip: (n.ixp_id, n.asn) for n in peeringdb.netixlans
    }
    # PCH recovers some of the member records PeeringDB lacks.  Recovery
    # is keyed per member IP so the merge never depends on iteration order.
    pch_members: Dict[IPv4, Tuple[int, ASN]] = {}
    for ixp in world.ixps.values():
        for asn, ips in sorted(ixp.member_ips.items()):
            for ip in ips:
                if keyed_uniform("pch", seed, ip) < pch_recovery_rate:
                    pch_members[ip] = (ixp.ixp_id, asn)

    conflicts: Dict[IPv4, Tuple[ASN, ASN]] = {}
    if data_faults is not None and data_faults.affects_ixp:
        for ip in list(pdb_members):
            if data_faults.ixp_member_dropped(ip):
                del pdb_members[ip]
        for ip in list(pch_members):
            if data_faults.ixp_member_dropped(ip):
                del pch_members[ip]
        for ip, (_ixp_id, asn) in sorted(pdb_members.items()):
            other = data_faults.ixp_member_conflict(ip, asn)
            if other is not None:
                conflicts[ip] = (asn, other)

    members = dict(pch_members)
    members.update(pdb_members)  # PeeringDB wins where the sources overlap
    return IXPDirectory(prefixes, members, cities, conflicts=conflicts)
