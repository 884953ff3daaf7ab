"""Computation of the paper's figure series from a :class:`StudyResult`.

Figures are returned as plain numeric series (CDF points or per-group
samples), ready for assertion in benchmarks or ASCII rendering in the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.graph import degree_cdf
from repro.core.results import StudyResult
from repro.datasets.relationships import ASRelationships
from repro.world.profiles import ALL_GROUPS


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, fraction <= value) points of the empirical CDF."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    points: List[Tuple[float, float]] = []
    for i, v in enumerate(ordered, start=1):
        if i == n or ordered[i] != v:
            points.append((v, i / n))
    return points


def fraction_below(values: Sequence[float], threshold: float) -> float:
    if not values:
        return 0.0
    return sum(1 for v in values if v < threshold) / len(values)


def fraction_above(values: Sequence[float], threshold: float) -> float:
    if not values:
        return 0.0
    return sum(1 for v in values if v > threshold) / len(values)


# --- Figure 4 -----------------------------------------------------------------


def fig4a_series(result: StudyResult) -> List[float]:
    """min-RTT from the closest region to each ABI."""
    return list(result.abi_min_rtts)


def fig4b_series(result: StudyResult) -> List[float]:
    """min-RTT difference across each interconnection segment."""
    return list(result.segment_rtt_diff.values())


# --- Figure 5 -----------------------------------------------------------------


def fig5_series(result: StudyResult) -> List[float]:
    """Ratio of the two lowest region min-RTTs for unpinned interfaces."""
    if result.pinning is None:
        return []
    return list(result.pinning.rtt_ratios)


# --- Figure 6 -----------------------------------------------------------------

FIG6_FEATURES = (
    "bgp_slash24",
    "reachable_slash24",
    "abis",
    "cbis",
    "rtt_diff",
    "metros",
)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary for one boxplot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def _quantile(ordered: List[float], q: float) -> float:
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    low, high = ordered[lo], ordered[hi]
    if lo == hi or low == high:
        return low
    frac = pos - lo
    # The weighted sum can round outside [low, high]: on subnormals
    # (5e-324 * 0.5 underflows to 0.0) or at float extremes.
    return min(max(low * (1 - frac) + high * frac, low), high)


def box_stats(values: Sequence[float]) -> BoxStats:
    ordered = sorted(values)
    if not ordered:
        return BoxStats(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    return BoxStats(
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
        count=len(ordered),
    )


def fig6_features(
    result: StudyResult, relationships: ASRelationships
) -> Dict[str, Dict[str, BoxStats]]:
    """Per-group boxplot summaries of the six Fig. 6 features."""
    if result.grouping is None:
        return {}
    raw = result.grouping.group_features(relationships)
    out: Dict[str, Dict[str, BoxStats]] = {}
    for group in ALL_GROUPS:
        out[group] = {
            feature: box_stats(raw[group][feature]) for feature in FIG6_FEATURES
        }
    return out


# --- Figure 7 -----------------------------------------------------------------


def fig7a_series(result: StudyResult) -> List[Tuple[int, float]]:
    """CDF of ABI degrees in the ICG."""
    if result.icg is None:
        return []
    return degree_cdf(result.icg.abi_degrees)


def fig7b_series(result: StudyResult) -> List[Tuple[int, float]]:
    """CDF of CBI degrees in the ICG."""
    if result.icg is None:
        return []
    return degree_cdf(result.icg.cbi_degrees)


def degree_fraction_at_most(degrees: Sequence[int], k: int) -> float:
    if not degrees:
        return 0.0
    return sum(1 for d in degrees if d <= k) / len(degrees)
