"""Virtual private interconnection detection (§7.1, Table 4).

A VPI is one client port on a cloud-exchange fabric carrying VLANs to
several cloud providers.  A CBI observed from two or more clouds must be
such a port.  The detector therefore:

1. builds a target pool from all identified non-IXP CBIs, each CBI's +1
   address, and the destinations of the traceroutes that discovered them;
2. probes the pool from every region of Microsoft, Google, IBM and Oracle
   on the study's one :class:`~repro.measure.executor.ShardedExecutor`
   (campaign ``vpi:<cloud>``, no adaptive governor), running the same §4
   border inference on those traces;
3. intersects the CBI sets.

The result is an explicit *lower bound*: single-cloud VPIs, ports with
per-cloud response addresses, and private-address VPIs all stay invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Set

from repro.net.ip import IPv4
from repro.core.annotate import HopAnnotator
from repro.core.borders import BorderObservatory
from repro.measure.campaign import CampaignStats, vpi_target_pool
from repro.measure.executor import ShardedExecutor

#: Probing order fixed by the paper's Table 4.
OTHER_CLOUD_ORDER = ("microsoft", "google", "ibm", "oracle")


@dataclass
class VPIDetectionResult:
    """Pairwise and cumulative overlaps (Table 4) and the VPI CBI set."""

    pool_size: int = 0
    amazon_cbis: int = 0
    #: cloud -> CBIs common between Amazon and that cloud
    pairwise: Dict[str, Set[IPv4]] = field(default_factory=dict)
    #: cloud -> union of overlaps up to and including that cloud
    cumulative: Dict[str, Set[IPv4]] = field(default_factory=dict)
    stats: Dict[str, CampaignStats] = field(default_factory=dict)

    @property
    def vpi_cbis(self) -> Set[IPv4]:
        if not self.cumulative:
            return set()
        return set(self.cumulative[OTHER_CLOUD_ORDER[-1]])

    def pairwise_fraction(self, cloud: str) -> float:
        if not self.amazon_cbis:
            return 0.0
        return len(self.pairwise.get(cloud, ())) / self.amazon_cbis

    def cumulative_fraction(self, cloud: str) -> float:
        if not self.amazon_cbis:
            return 0.0
        return len(self.cumulative.get(cloud, ())) / self.amazon_cbis


class VPIDetector:
    """Runs the multi-cloud overlap detection."""

    def __init__(
        self,
        annotators: Dict[str, HopAnnotator],
        executor: ShardedExecutor,
        clouds: Sequence[str] = OTHER_CLOUD_ORDER,
    ) -> None:
        self.annotators = annotators
        self.executor = executor
        self.clouds = list(clouds)

    def detect(
        self,
        amazon_cbis: Set[IPv4],
        ixp_cbis: Set[IPv4],
        discovery_dsts: Iterable[IPv4],
    ) -> VPIDetectionResult:
        result = VPIDetectionResult()
        non_ixp = sorted(amazon_cbis - ixp_cbis)
        pool = vpi_target_pool(non_ixp, discovery_dsts)
        result.pool_size = len(pool)
        result.amazon_cbis = len(amazon_cbis)

        running: Set[IPv4] = set()
        for cloud in self.clouds:
            observatory = BorderObservatory(self.annotators[cloud])
            stats = self.executor.run(
                cloud, f"vpi:{cloud}", pool, observatory.ingest
            )
            other_cbis = observatory.candidate_cbis()
            overlap = set(amazon_cbis) & other_cbis
            result.pairwise[cloud] = overlap
            running |= overlap
            result.cumulative[cloud] = set(running)
            result.stats[cloud] = stats
        return result
