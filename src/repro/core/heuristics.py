"""Verification heuristics for candidate interconnection segments (§5.1).

Because of the address-sharing ambiguity (Fig. 2), the candidate (ABI,
CBI) segment found by the basic strategy may actually sit one hop too far
downstream.  Three heuristics -- ordered by confidence -- confirm that a
candidate ABI really is Amazon's border interface:

* **IXP-client**: a CBI inside an IXP prefix always belongs to a specific
  member, so its segment is correct.
* **Hybrid IPs** (Fig. 3): an interface observed before *both* client and
  Amazon interfaces across traces must be an ABI.
* **Interface reachability**: ABIs are generally unreachable from the
  public Internet while CBIs often answer; agreement with that pattern is
  independent supporting evidence.

Confirming an ABI confirms all of its CBIs (Table 2 reports both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.net.ip import IPv4
from repro.core.borders import BorderObservatory
from repro.measure.reachability import PublicVantagePoint


@dataclass
class HeuristicOutcome:
    """Which ABIs each heuristic confirmed, individually and cumulatively."""

    individual_abis: Dict[str, Set[IPv4]] = field(default_factory=dict)
    cumulative_abis: Dict[str, Set[IPv4]] = field(default_factory=dict)
    confirmed_abis: Set[IPv4] = field(default_factory=set)
    unconfirmed_abis: Set[IPv4] = field(default_factory=set)
    #: confirmed ABIs whose best CBI evidence fell below the confidence
    #: floor -- flagged, not removed (the digest is unchanged).
    low_confidence_abis: Set[IPv4] = field(default_factory=set)


HEURISTIC_ORDER = ("ixp", "hybrid", "reachable")


class SegmentVerifier:
    """Runs the three §5.1 heuristics over an observatory's candidates."""

    def __init__(
        self,
        observatory: BorderObservatory,
        public_vp: PublicVantagePoint,
        min_confidence: float = 0.0,
    ) -> None:
        self.observatory = observatory
        self.public_vp = public_vp
        self.min_confidence = min_confidence

    # -- individual heuristics -------------------------------------------

    def ixp_confirms(self, abi: IPv4) -> bool:
        """Any CBI of the ABI inside an IXP prefix confirms the segment."""
        annotate = self.observatory.annotator.annotate
        return any(
            annotate(cbi).is_ixp for cbi in self.observatory.cbis_of_abi(abi)
        )

    def hybrid_confirms(self, abi: IPv4) -> bool:
        """The ABI precedes both Amazon and client interfaces (Fig. 3)."""
        annotator = self.observatory.annotator
        saw_home = saw_client = False
        for ann in self.observatory.successor_anns(abi):
            if annotator.is_home(ann):
                saw_home = True
            elif annotator.is_border_candidate(ann):
                saw_client = True
            if saw_home and saw_client:
                return True
        return False

    def reachability_confirms(self, abi: IPv4) -> bool:
        """ABI dark from the public Internet while >=1 of its CBIs answers."""
        if self.public_vp.reachable(abi):
            return False
        return any(
            self.public_vp.reachable(cbi)
            for cbi in self.observatory.cbis_of_abi(abi)
        )

    # -- combined run ------------------------------------------------------

    def verify(self, abis: Optional[Iterable[IPv4]] = None) -> HeuristicOutcome:
        candidates = sorted(abis if abis is not None else self.observatory.candidate_abis())
        outcome = HeuristicOutcome()
        checks = {
            "ixp": self.ixp_confirms,
            "hybrid": self.hybrid_confirms,
            "reachable": self.reachability_confirms,
        }
        for name in HEURISTIC_ORDER:
            outcome.individual_abis[name] = set()
            outcome.cumulative_abis[name] = set()
        confirmed: Set[IPv4] = set()
        for abi in candidates:
            for name in HEURISTIC_ORDER:
                if checks[name](abi):
                    outcome.individual_abis[name].add(abi)
            for name in HEURISTIC_ORDER:
                if abi in outcome.individual_abis[name]:
                    confirmed.add(abi)
                    break
        running: Set[IPv4] = set()
        for name in HEURISTIC_ORDER:
            running |= outcome.individual_abis[name]
            outcome.cumulative_abis[name] = set(running)
        outcome.confirmed_abis = confirmed
        outcome.unconfirmed_abis = set(candidates) - confirmed
        if self.min_confidence > 0.0:
            annotate = self.observatory.annotator.annotate
            for abi in confirmed:
                best = max(
                    (
                        annotate(cbi).confidence
                        for cbi in self.observatory.cbis_of_abi(abi)
                    ),
                    default=1.0,
                )
                if best < self.min_confidence:
                    outcome.low_confidence_abis.add(abi)
        return outcome
