"""The Interface Connectivity Graph and its characterisation (§7.4).

The ICG is a bipartite graph whose nodes are border interfaces and whose
edges are inferred interconnection segments (ABI--CBI), annotated with the
min-RTT difference between the two ends from the ABI's closest VM.  §7.4
examines its connected components (92.3% of nodes in the largest one),
per-side degree distributions (Fig. 7a/7b), and the geography of edges
whose two ends are both pinned (98% intra-region, plus genuinely remote
peerings spanning continents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.geo import MetroCatalog
from repro.net.ip import IPv4


@dataclass
class ICGSummary:
    node_count: int = 0
    edge_count: int = 0
    largest_component_fraction: float = 0.0
    component_count: int = 0
    abi_degrees: List[int] = field(default_factory=list)
    cbi_degrees: List[int] = field(default_factory=list)
    #: of edges with both ends pinned: fraction within one region
    both_pinned_edges: int = 0
    intra_region_fraction: float = 0.0
    #: (abi metro, cbi metro) pairs of inter-region edges
    remote_examples: List[Tuple[str, str]] = field(default_factory=list)


class InterfaceConnectivityGraph:
    """Bipartite ABI--CBI graph built from verified segments."""

    def __init__(
        self,
        segments: Iterable[Tuple[IPv4, IPv4]],
        rtt_diff: Optional[Dict[Tuple[IPv4, IPv4], float]] = None,
    ) -> None:
        self.edges: Set[Tuple[IPv4, IPv4]] = set(segments)
        self.rtt_diff = rtt_diff or {}
        self.abis: Set[IPv4] = {a for a, _c in self.edges}
        self.cbis: Set[IPv4] = {c for _a, c in self.edges}
        self._abi_neighbors: Dict[IPv4, Set[IPv4]] = {}
        self._cbi_neighbors: Dict[IPv4, Set[IPv4]] = {}
        for a, c in self.edges:
            self._abi_neighbors.setdefault(a, set()).add(c)
            self._cbi_neighbors.setdefault(c, set()).add(a)

    # ------------------------------------------------------------------

    def abi_degree(self, abi: IPv4) -> int:
        return len(self._abi_neighbors.get(abi, ()))

    def cbi_degree(self, cbi: IPv4) -> int:
        return len(self._cbi_neighbors.get(cbi, ()))

    def components(self) -> List[Set[IPv4]]:
        """Connected components over all border interfaces."""
        parent: Dict[IPv4, IPv4] = {}

        def find(x: IPv4) -> IPv4:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for a, c in self.edges:
            ra, rc = find(a), find(c)
            if ra != rc:
                parent[rc] = ra
        groups: Dict[IPv4, Set[IPv4]] = {}
        for node in list(self.abis | self.cbis):
            groups.setdefault(find(node), set()).add(node)
        return sorted(groups.values(), key=len, reverse=True)

    # ------------------------------------------------------------------

    def summarize(
        self,
        pinned_metro: Optional[Dict[IPv4, str]] = None,
        catalog: Optional[MetroCatalog] = None,
        region_metros: Optional[List[str]] = None,
    ) -> ICGSummary:
        summary = ICGSummary(
            node_count=len(self.abis | self.cbis),
            edge_count=len(self.edges),
            abi_degrees=sorted(
                (self.abi_degree(a) for a in self.abis), reverse=True
            ),
            cbi_degrees=sorted(
                (self.cbi_degree(c) for c in self.cbis), reverse=True
            ),
        )
        components = self.components()
        summary.component_count = len(components)
        if components and summary.node_count:
            summary.largest_component_fraction = len(components[0]) / summary.node_count

        if pinned_metro and catalog and region_metros:
            region_of = _RegionOfMetro(catalog, region_metros)
            both = intra = 0
            for a, c in self.edges:
                ma, mc = pinned_metro.get(a), pinned_metro.get(c)
                if ma is None or mc is None:
                    continue
                both += 1
                if region_of(ma) == region_of(mc):
                    intra += 1
                elif len(summary.remote_examples) < 20:
                    summary.remote_examples.append((ma, mc))
            summary.both_pinned_edges = both
            summary.intra_region_fraction = intra / both if both else 0.0
        return summary


class _RegionOfMetro:
    """Maps a metro to its closest Amazon-region metro (memoised)."""

    def __init__(self, catalog: MetroCatalog, region_metros: List[str]) -> None:
        self.catalog = catalog
        self.region_metros = region_metros
        self._cache: Dict[str, str] = {}

    def __call__(self, metro: str) -> str:
        cached = self._cache.get(metro)
        if cached is None:
            cached = min(
                self.region_metros,
                key=lambda rm: self.catalog.distance_km(metro, rm),
            )
            self._cache[metro] = cached
        return cached


def degree_cdf(degrees: List[int]) -> List[Tuple[int, float]]:
    """(degree, cumulative fraction <= degree) points for Fig. 7."""
    if not degrees:
        return []
    ordered = sorted(degrees)
    n = len(ordered)
    points: List[Tuple[int, float]] = []
    for i, d in enumerate(ordered, start=1):
        if i == n or ordered[i] != d:
            points.append((d, i / n))
    return points
