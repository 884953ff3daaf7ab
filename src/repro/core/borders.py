"""Basic border-inference strategy over traceroute streams (§4.1).

:class:`BorderObservatory` ingests traceroutes one at a time, applies the
paper's hygiene filters, finds the candidate interconnection segment
(ABI, CBI), and accumulates everything later stages need -- all without
retaining raw traces, so campaigns of millions of probes stay in bounded
memory.

Hygiene (§4.1): traceroutes are discarded when they contain an IP-level
loop, unresponsive hop(s) before Amazon's border, the CBI as the probe's
destination, duplicate hops before the border, or when they re-enter the
home network downstream of the CBI.

A hop costs one dict lookup: the annotator memoizes each address's
annotation with its border and home predicates
(:attr:`~repro.core.annotate.HopAnnotator.verdicts`), filled the first
time any stream meets the address.  The annotator's cache counters still
count one lookup per annotated hop, as if each had been annotated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.ip import IPv4
from repro.core.annotate import HopAnnotation, HopAnnotator
from repro.measure.traceroute import Traceroute


class DropReason:
    """Why a traceroute was excluded (string enum)."""

    LOOP = "loop"
    GAP_BEFORE_BORDER = "gap_before_border"
    CBI_IS_DESTINATION = "cbi_is_destination"
    DUPLICATE_BEFORE_BORDER = "duplicate_before_border"
    REENTERS_HOME = "reenters_home"
    NO_BORDER = "no_border"


@dataclass
class SegmentRecord:
    """Aggregate observations of one candidate (ABI, CBI) segment."""

    abi: IPv4
    cbi: IPv4
    count: int = 0
    regions: Set[str] = field(default_factory=set)
    #: interfaces observed immediately before the ABI (for segment shifts)
    prev_ips: Counter = field(default_factory=Counter)
    #: /24s of destinations reached through this segment
    dst_slash24s: Set[int] = field(default_factory=set)
    #: sample of raw destination addresses (feeds the §7.1 target pool)
    dst_sample: Set[IPv4] = field(default_factory=set)
    first_round: str = "r1"
    #: lowest annotation confidence of any CBI observation of this segment
    min_confidence: float = 1.0

    DST_SAMPLE_CAP = 8

    def observe(
        self,
        region: str,
        dst: IPv4,
        prev_ip: Optional[IPv4],
        confidence: float = 1.0,
    ) -> None:
        self.count += 1
        self.regions.add(region)
        if prev_ip is not None:
            self.prev_ips[prev_ip] += 1
        self.dst_slash24s.add(dst & 0xFFFFFF00)
        if len(self.dst_sample) < self.DST_SAMPLE_CAP:
            self.dst_sample.add(dst)
        if confidence < self.min_confidence:
            self.min_confidence = confidence


@dataclass
class ObservatoryStats:
    ingested: int = 0
    with_border: int = 0
    dropped: Counter = field(default_factory=Counter)
    #: border observations whose annotation fell below min_confidence
    low_confidence: int = 0


class BorderObservatory:
    """Streaming implementation of the basic inference strategy.

    ``min_confidence`` flags -- never filters -- segments whose border
    annotation confidence falls below the floor: low-confidence segments
    still count (the digest is unchanged), but they are surfaced in
    :attr:`low_confidence_segments` and the data-quality report.
    """

    def __init__(
        self, annotator: HopAnnotator, min_confidence: float = 0.0
    ) -> None:
        self.annotator = annotator
        self.min_confidence = min_confidence
        #: (abi, cbi) -> SegmentRecord
        self.segments: Dict[Tuple[IPv4, IPv4], SegmentRecord] = {}
        #: segments observed (at least once) below the confidence floor
        self.low_confidence_segments: Set[Tuple[IPv4, IPv4]] = set()
        #: successor interfaces observed after each interface, with counts
        self.successors: Dict[IPv4, Counter] = {}
        #: regions from which each interface was observed
        self.iface_regions: Dict[IPv4, Set[str]] = {}
        #: minimum traceroute RTT per (interface, region)
        self.iface_min_rtt: Dict[Tuple[IPv4, str], float] = {}
        #: round each interface was first seen in
        self.iface_round: Dict[IPv4, str] = {}
        self.stats = ObservatoryStats()
        self.current_round = "r1"

    # ------------------------------------------------------------------

    def start_round(self, label: str, annotator: Optional[HopAnnotator] = None) -> None:
        """Switch to a new probing round (fresh BGP snapshot, §4.2)."""
        self.current_round = label
        if annotator is not None:
            self.annotator = annotator

    # ------------------------------------------------------------------

    def ingest(self, trace: Traceroute) -> Optional[Tuple[IPv4, IPv4]]:
        """Process one traceroute; returns the candidate segment, if any.

        Each responsive hop is one lookup in the annotator's verdict memo
        (:attr:`HopAnnotator.verdicts`); only an address seen for the
        first time goes through :meth:`HopAnnotator.verdict`.  The memo's
        hits are added to the annotator's ``cache_hits`` once per walk,
        so its counters equal those of an annotation per hop.
        """
        self.stats.ingested += 1
        hops = trace.hops
        region = trace.region
        annotator = self.annotator
        verdicts = annotator.verdicts
        first_sight = annotator.verdict
        iface_regions = self.iface_regions
        iface_min_rtt = self.iface_min_rtt
        successors = self.successors

        border_idx: Optional[int] = None
        border_ann: Optional[HopAnnotation] = None
        first_gap: Optional[int] = None
        responsive_ips: List[IPv4] = []
        first_sights = 0
        prev: Optional[IPv4] = None
        for idx, (_ttl, ip, rtt) in enumerate(hops):
            if ip is None:
                if first_gap is None:
                    first_gap = idx
                continue
            verdict = verdicts.get(ip)
            if verdict is None:
                verdict = first_sight(ip)
                first_sights += 1
            responsive_ips.append(ip)
            # Per-interface state: regions, first round, min RTT.
            regions = iface_regions.get(ip)
            if regions is None:
                iface_regions[ip] = {region}
                self.iface_round.setdefault(ip, self.current_round)
            else:
                regions.add(region)
            if rtt is not None:
                key = (ip, region)
                old = iface_min_rtt.get(key)
                if old is None or rtt < old:
                    iface_min_rtt[key] = rtt
            # Successor map over consecutive responsive hops (full trace).
            if prev is not None:
                counts = successors.get(prev)
                if counts is None:
                    counts = successors[prev] = Counter()
                counts[ip] += 1
            prev = ip
            if border_idx is None and verdict[1]:
                border_idx = idx
                border_ann = verdict[0]
        annotator.cache_hits += len(responsive_ips) - first_sights

        if border_idx is None or border_ann is None:
            self.stats.dropped[DropReason.NO_BORDER] += 1
            return None

        cbi = hops[border_idx].ip
        assert cbi is not None

        # Hygiene filters, applied in the paper's order. ----------------
        if first_gap is not None and first_gap < border_idx:
            self.stats.dropped[DropReason.GAP_BEFORE_BORDER] += 1
            return None
        # No gap before the border: its hops are the first responsive ones.
        if len(set(responsive_ips[:border_idx])) != border_idx:
            self.stats.dropped[DropReason.DUPLICATE_BEFORE_BORDER] += 1
            return None
        if len(set(responsive_ips)) != len(responsive_ips):
            self.stats.dropped[DropReason.LOOP] += 1
            return None
        if cbi == trace.dst:
            self.stats.dropped[DropReason.CBI_IS_DESTINATION] += 1
            return None
        if border_idx == 0:
            self.stats.dropped[DropReason.NO_BORDER] += 1
            return None
        # Sanity: no home-org hop downstream of the CBI.  The walk above
        # saw every one of these hops, so each is a memo hit.
        downstream = responsive_ips[border_idx + 1 :]
        for looked, ip in enumerate(downstream, 1):
            if verdicts[ip][2]:
                annotator.cache_hits += looked
                self.stats.dropped[DropReason.REENTERS_HOME] += 1
                return None
        annotator.cache_hits += len(downstream)

        abi = hops[border_idx - 1].ip
        assert abi is not None
        prev_ip = hops[border_idx - 2].ip if border_idx >= 2 else None

        key = (abi, cbi)
        record = self.segments.get(key)
        if record is None:
            record = SegmentRecord(abi=abi, cbi=cbi, first_round=self.current_round)
            self.segments[key] = record
        record.observe(
            trace.region, trace.dst, prev_ip, confidence=border_ann.confidence
        )
        if (
            self.min_confidence > 0.0
            and border_ann.confidence < self.min_confidence
        ):
            self.stats.low_confidence += 1
            self.low_confidence_segments.add(key)
        self.stats.with_border += 1
        return key

    # ------------------------------------------------------------------
    # views over the accumulated state
    # ------------------------------------------------------------------

    def candidate_abis(self) -> Set[IPv4]:
        return {abi for abi, _cbi in self.segments}

    def candidate_cbis(self) -> Set[IPv4]:
        return {cbi for _abi, cbi in self.segments}

    def cbis_of_abi(self, abi: IPv4) -> Set[IPv4]:
        return {c for (a, c) in self.segments if a == abi}

    def low_confidence_cbis(self) -> Set[IPv4]:
        """CBIs of segments observed below the confidence floor."""
        return {cbi for _abi, cbi in self.low_confidence_segments}

    def segments_first_seen_in(self, round_label: str) -> List[SegmentRecord]:
        return [s for s in self.segments.values() if s.first_round == round_label]

    def successor_anns(self, ip: IPv4) -> List[HopAnnotation]:
        return [self.annotator.annotate(s) for s in self.successors.get(ip, ())]

    def discovery_dsts(self) -> Set[IPv4]:
        """Destinations of traceroutes that revealed each segment (§7.1)."""
        out: Set[IPv4] = set()
        for record in self.segments.values():
            out.update(record.dst_sample)
        return out

    def min_rtt_of(self, ip: IPv4) -> Optional[float]:
        """Minimum traceroute RTT to an interface across all regions."""
        best: Optional[float] = None
        for region in self.iface_regions.get(ip, ()):
            rtt = self.iface_min_rtt.get((ip, region))
            if rtt is not None and (best is None or rtt < best):
                best = rtt
        return best

    # ------------------------------------------------------------------
    # stage-checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Everything a stage checkpoint must capture to rebuild ingest
        state -- the annotator and confidence floor are reconstructed from
        config, not serialized."""
        return {
            "segments": self.segments,
            "low_confidence_segments": self.low_confidence_segments,
            "successors": self.successors,
            "iface_regions": self.iface_regions,
            "iface_min_rtt": self.iface_min_rtt,
            "iface_round": self.iface_round,
            "stats": self.stats,
            "current_round": self.current_round,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output (a resumed study's observatory)."""
        self.segments = state["segments"]  # type: ignore[assignment]
        self.low_confidence_segments = state["low_confidence_segments"]  # type: ignore[assignment]
        self.successors = state["successors"]  # type: ignore[assignment]
        self.iface_regions = state["iface_regions"]  # type: ignore[assignment]
        self.iface_min_rtt = state["iface_min_rtt"]  # type: ignore[assignment]
        self.iface_round = state["iface_round"]  # type: ignore[assignment]
        self.stats = state["stats"]  # type: ignore[assignment]
        self.current_round = state["current_round"]  # type: ignore[assignment]
