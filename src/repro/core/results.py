"""Typed result containers for the end-to-end study."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.ip import IPv4
from repro.datasets.datafaults import DataFaultPlan
from repro.datasets.validate import DatasetValidationReport
from repro.core.aliasverify import VerificationResult
from repro.core.config import StudyConfig
from repro.core.anchors import AnchorSet
from repro.core.crossval import CrossValidationResult
from repro.core.graph import ICGSummary
from repro.core.grouping import GroupingResult
from repro.core.heuristics import HeuristicOutcome
from repro.core.pinning import PinningResult
from repro.core.vpi import VPIDetectionResult
from repro.measure.adapt import RecoveryReport
from repro.measure.campaign import CampaignStats
from repro.measure.metrics import StudyMetrics


@dataclass
class DataQualityReport:
    """How dirty the datasets were, and what the pipeline flagged.

    Everything here is *observability*, deliberately excluded from
    ``StudyResult.digest()``: a clean run's digest is unchanged by the
    existence of this report, and a dirty run's digest covers the
    (deterministically degraded) inference outputs themselves.
    """

    #: the degradation schedule the datasets were built under (None = clean).
    fault_plan: Optional[DataFaultPlan] = None
    #: the confidence floor flagging was run with (0 = flagging off).
    min_confidence: float = 0.0
    #: up-front inter-source disagreement counts (datasets/validate.py).
    validation: Optional[DatasetValidationReport] = None
    #: final border interfaces scored (|ABIs| + |CBIs|).
    interfaces_scored: int = 0
    mean_confidence: float = 1.0
    #: AnnotationSource value -> interface count.
    source_counts: Dict[str, int] = field(default_factory=dict)
    #: Disagreement label -> count over final border interfaces.
    disagreement_counts: Dict[str, int] = field(default_factory=dict)
    low_confidence_cbis: Set[IPv4] = field(default_factory=set)
    low_confidence_abis: Set[IPv4] = field(default_factory=set)
    low_confidence_pins: Set[IPv4] = field(default_factory=set)

    @property
    def annotation_disagreements(self) -> int:
        return sum(self.disagreement_counts.values())

    @property
    def total_disagreements(self) -> int:
        """Dataset-level plus annotation-level disagreements."""
        dataset = (
            self.validation.total_disagreements if self.validation else 0
        )
        return dataset + self.annotation_disagreements

    @property
    def flagged_count(self) -> int:
        return (
            len(self.low_confidence_cbis)
            + len(self.low_confidence_abis)
            + len(self.low_confidence_pins)
        )

    @property
    def degraded(self) -> bool:
        """True when sources disagreed or inferences were flagged."""
        return bool(self.total_disagreements or self.flagged_count)


@dataclass
class InterfaceCensus:
    """One row of Table 1: interface counts and annotation-source mix."""

    label: str
    total: int
    bgp_fraction: float
    whois_fraction: float
    ixp_fraction: float


@dataclass
class StudyResult:
    """Everything the paper's evaluation reports, in one place."""

    # §3 / §4: campaigns and the Table 1 censuses.
    round1_stats: Optional[CampaignStats] = None
    round2_stats: Optional[CampaignStats] = None
    table1: List[InterfaceCensus] = field(default_factory=list)
    peer_ases_round1: int = 0
    peer_ases_round2: int = 0

    # §5: verification.
    heuristics: Optional[HeuristicOutcome] = None
    alias_sets: List[Set[IPv4]] = field(default_factory=list)
    verification: Optional[VerificationResult] = None
    final_segments: Set[Tuple[IPv4, IPv4]] = field(default_factory=set)
    abis: Set[IPv4] = field(default_factory=set)
    cbis: Set[IPv4] = field(default_factory=set)

    # §6: pinning.
    anchors: Optional[AnchorSet] = None
    pinning: Optional[PinningResult] = None
    crossval: Optional[CrossValidationResult] = None
    #: Fig. 4a series: min-RTT from the closest region to each ABI.
    abi_min_rtts: List[float] = field(default_factory=list)
    #: Fig. 4b series: min-RTT difference across each segment.
    segment_rtt_diff: Dict[Tuple[IPv4, IPv4], float] = field(default_factory=dict)

    # §7: the peering fabric.
    vpi: Optional[VPIDetectionResult] = None
    grouping: Optional[GroupingResult] = None
    icg: Optional[ICGSummary] = None
    bgp_visible_peers: Set[int] = field(default_factory=set)
    recovered_bgp_peers: Set[int] = field(default_factory=set)

    # Provenance and observability.
    seed: int = 0
    scale: float = 0.0
    #: the exact configuration the study ran with, for reproducibility.
    config: Optional[StudyConfig] = None
    #: per-stage wall-clock and the record of every campaign probed.
    metrics: Optional[StudyMetrics] = None
    #: dataset dirt, annotation confidence, and flagged inferences.
    #: Excluded from ``digest_inputs`` by design (observability only).
    data_quality: Optional[DataQualityReport] = None
    #: what the adaptive control plane did: breaker history, deferrals,
    #: and recovery yield (None unless ``config.adaptive``).  Excluded
    #: from ``digest_inputs`` -- the *healed stats* are the content; the
    #: control-plane ledger is observability.
    resilience: Optional[RecoveryReport] = None

    # ------------------------------------------------------------------

    @property
    def metro_pin_coverage(self) -> float:
        universe = self.abis | self.cbis
        if not universe or self.pinning is None:
            return 0.0
        return self.pinning.coverage(universe)

    @property
    def total_pin_coverage(self) -> float:
        """Metro plus regional-level coverage (§6.1's ~80%)."""
        universe = self.abis | self.cbis
        if not universe or self.pinning is None:
            return 0.0
        covered = sum(
            1
            for ip in universe
            if ip in self.pinning.pinned or ip in self.pinning.regional
        )
        return covered / len(universe)

    @property
    def bgp_recovery_fraction(self) -> float:
        """Share of BGP-reported Amazon peers our method also found (§7.3)."""
        if not self.bgp_visible_peers:
            return 0.0
        return len(self.recovered_bgp_peers) / len(self.bgp_visible_peers)

    # ------------------------------------------------------------------

    def digest_inputs(self) -> Dict[str, Any]:
        """The canonical, order-stable content summary behind ``digest``.

        Covers everything the determinism guarantee promises: census
        counts and source mixes, campaign yields, the inferred ABI/CBI
        sets and segments, alias sets, and the VPI intersections.
        Timings, throughput, and other wall-clock observables are
        deliberately excluded -- they vary run to run.
        """
        def stats_row(stats: Optional[CampaignStats]) -> Optional[tuple]:
            if stats is None:
                return None
            return (
                stats.probes,
                stats.completed,
                stats.left_cloud,
                stats.gap_limited,
                stats.lost_probes,
                tuple(sorted(stats.by_region.items())),
            )

        vpi: Optional[Dict[str, Any]] = None
        if self.vpi is not None:
            vpi = {
                "pool_size": self.vpi.pool_size,
                "amazon_cbis": self.vpi.amazon_cbis,
                "pairwise": {
                    cloud: tuple(sorted(ips))
                    for cloud, ips in sorted(self.vpi.pairwise.items())
                },
                "cumulative": {
                    cloud: tuple(sorted(ips))
                    for cloud, ips in sorted(self.vpi.cumulative.items())
                },
            }
        return {
            "table1": [
                (r.label, r.total, r.bgp_fraction, r.whois_fraction, r.ixp_fraction)
                for r in self.table1
            ],
            "round1": stats_row(self.round1_stats),
            "round2": stats_row(self.round2_stats),
            "peer_ases": (self.peer_ases_round1, self.peer_ases_round2),
            "abis": tuple(sorted(self.abis)),
            "cbis": tuple(sorted(self.cbis)),
            "segments": tuple(sorted(self.final_segments)),
            "alias_sets": tuple(
                sorted(tuple(sorted(s)) for s in self.alias_sets)
            ),
            "vpi": vpi,
        }

    def digest(self) -> str:
        """A sha256 over the run's inference outputs.

        Two runs with equal digests produced byte-identical censuses,
        border sets, and VPI intersections -- the golden-snapshot
        regression test and the CI fault-injection smoke job compare
        exactly this value across worker counts, injected faults, and
        checkpoint resumes.
        """
        return hashlib.sha256(
            repr(self.digest_inputs()).encode()
        ).hexdigest()
