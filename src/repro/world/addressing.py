"""Global address plan for the synthetic Internet.

Carves the IPv4 space into superblocks per role (cloud backbones, client
networks, client infrastructure, IXP peering LANs, interconnect pools) and
records ground-truth ownership of every allocation.  The WHOIS dataset is a
(slightly lossy) view of this registry; the BGP dataset sees only what each
AS chooses to announce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.asn import ASN
from repro.net.ip import (
    AddressPool,
    IPv4,
    InterconnectSubnet,
    Prefix,
    PrefixAllocator,
)


@dataclass
class Allocation:
    """One registered block: prefix, owner, and registry label."""

    prefix: Prefix
    owner_asn: ASN
    holder_name: str
    category: str      # "cloud" | "client" | "infra" | "ixp"


class AddressPlan:
    """Owns the superblock allocators and the ground-truth registry.

    The plan deliberately mirrors real address-space texture: client
    *network* space (announced, carries end hosts) is distinct from client
    *infrastructure* space (router links, often never announced -- the
    WHOIS-only CBIs of Table 1), and cloud-provided interconnect subnets
    come out of the cloud's own block (the Fig. 2 ambiguity).
    """

    #: superblock name -> parent prefix
    SUPERBLOCKS: Dict[str, str] = {
        "amazon": "52.0.0.0/9",
        "microsoft": "40.64.0.0/10",
        "google": "34.64.0.0/10",
        "ibm": "158.0.0.0/10",
        "oracle": "129.128.0.0/10",
        "client": "60.0.0.0/6",        # announced client network space
        "infra": "96.0.0.0/8",         # client infrastructure (link) space
        "ixp": "185.0.0.0/10",         # IXP peering LANs
        "transit": "120.0.0.0/8",      # transit-provider link space
    }

    def __init__(self) -> None:
        self._allocators: Dict[str, PrefixAllocator] = {
            name: PrefixAllocator(Prefix.parse(text))
            for name, text in self.SUPERBLOCKS.items()
        }
        self.allocations: List[Allocation] = []
        self._alloc_index: List[Tuple[int, int, int]] = []  # (first, last, idx)
        self._sorted = True

    # -- raw allocation --------------------------------------------------

    def allocate(
        self, superblock: str, length: int, owner_asn: ASN, holder_name: str, category: str
    ) -> Prefix:
        """Allocate a /``length`` from ``superblock`` and register it."""
        prefix = self._allocators[superblock].allocate(length)
        self.allocations.append(
            Allocation(prefix=prefix, owner_asn=owner_asn, holder_name=holder_name, category=category)
        )
        self._alloc_index.append((prefix.first, prefix.last, len(self.allocations) - 1))
        self._sorted = False
        return prefix

    # -- convenience carvers ---------------------------------------------

    def cloud_block(self, cloud: str, length: int, owner_asn: ASN) -> Prefix:
        return self.allocate(cloud, length, owner_asn, cloud, "cloud")

    def client_network(self, asn: ASN, name: str, length: int) -> Prefix:
        return self.allocate("client", length, asn, name, "client")

    def client_infra(self, asn: ASN, name: str, length: int = 24) -> Prefix:
        return self.allocate("infra", length, asn, name, "infra")

    def ixp_lan(self, ixp_name: str, length: int = 22) -> Prefix:
        # IXP LANs belong to the exchange itself; owner 0 keeps them out of
        # any member's announced space.
        return self.allocate("ixp", length, 0, ixp_name, "ixp")

    def transit_link_block(self, asn: ASN, name: str, length: int = 24) -> Prefix:
        return self.allocate("transit", length, asn, name, "infra")

    # -- interconnect subnets --------------------------------------------

    def carve_interconnect(
        self,
        provided_by: str,
        client_block: Optional[Prefix],
        cloud_pool: AddressPool,
        client_cursor: Dict[Prefix, int],
        length: int = 30,
    ) -> InterconnectSubnet:
        """Carve a /30 (or /31) interconnect subnet.

        ``provided_by="client"`` takes the next free sub-prefix of the
        client's infrastructure block (tracked in ``client_cursor``);
        ``provided_by="provider"`` pulls addresses from the cloud's own
        pool, producing the Fig. 2 overshoot case.
        """
        size = 1 << (32 - length)
        if provided_by == "client":
            if client_block is None:
                raise ValueError("client-provided subnet needs a client block")
            offset = client_cursor.get(client_block, 0)
            network = client_block.network + offset
            if network + size - 1 > client_block.last:
                raise ValueError(f"infra block exhausted: {client_block}")
            client_cursor[client_block] = offset + size
            prefix = Prefix(network, length)
            if length == 31:
                a, b = prefix.network, prefix.network + 1
            else:
                a, b = prefix.network + 1, prefix.network + 2
            return InterconnectSubnet(
                prefix=prefix, provider_side=a, client_side=b, provided_by="client"
            )
        if provided_by == "provider":
            # Two consecutive addresses from the cloud pool act as the /31.
            a = cloud_pool.allocate()
            b = cloud_pool.allocate()
            prefix = Prefix.of(a, length)
            return InterconnectSubnet(
                prefix=prefix, provider_side=a, client_side=b, provided_by="provider"
            )
        raise ValueError(f"bad provided_by: {provided_by!r}")

    # -- ownership lookups (ground truth; feeds WHOIS) ---------------------

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._alloc_index.sort()
            self._sorted = True

    def owner_of(self, addr: IPv4) -> Optional[Allocation]:
        """Most-specific registered allocation covering ``addr``."""
        self._ensure_sorted()
        # Binary search over sorted, non-overlapping-by-construction blocks.
        lo, hi = 0, len(self._alloc_index) - 1
        best: Optional[Allocation] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            first, last, idx = self._alloc_index[mid]
            if addr < first:
                hi = mid - 1
            elif addr > last:
                lo = mid + 1
            else:
                best = self.allocations[idx]
                break
        return best

    def allocations_of(self, category: str) -> List[Allocation]:
        return [a for a in self.allocations if a.category == category]
