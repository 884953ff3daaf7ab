"""Benchmark: ablations of the design decisions called out in DESIGN.md.

D3 -- the 2 ms Rule-2 threshold (precision/coverage trade-off);
D4 -- ORG-level border detection (Amazon's eight sibling ASNs);
D5 -- the CBI-as-destination hygiene filter.
"""

from repro.core.borders import BorderObservatory, DropReason
from repro.core.crossval import cross_validate_pinning
from repro.core.pinning import IterativePinner
from repro.measure.campaign import expansion_targets
from conftest import show


def test_d3_threshold_sweep(benchmark, bench_study):
    """Sweeping Rule 2's threshold around the Fig. 4b knee: coverage
    rises monotonically, precision falls once remote segments slip in."""
    _runner, result = bench_study
    universe = result.abis | result.cbis

    def sweep():
        out = []
        for threshold in (0.5, 2.0, 8.0):
            pins = IterativePinner(
                result.anchors.anchors,
                result.alias_sets,
                result.final_segments,
                result.segment_rtt_diff,
                threshold_ms=threshold,
            ).run()
            cv = cross_validate_pinning(
                result.anchors.anchors,
                result.alias_sets,
                result.final_segments,
                {k: v for k, v in result.segment_rtt_diff.items() if v < threshold},
                folds=3,
                seed=1,
            )
            out.append((threshold, pins.coverage(universe), cv.mean_precision))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'threshold':>10} {'coverage':>9} {'cv precision':>13}"]
    for threshold, coverage, precision in rows:
        lines.append(f"{threshold:>9.1f}ms {coverage*100:>8.1f}% {precision*100:>12.2f}%")
    show("D3 ablation: Rule-2 threshold", lines)

    coverages = [c for _t, c, _p in rows]
    assert coverages == sorted(coverages)  # wider threshold, more pins
    # Precision at the knee is no worse than at 4x the knee.
    assert rows[1][2] >= rows[2][2] - 0.02


def test_d4_org_level_border_detection(benchmark, bench_study, bench_world):
    """D4: collapsing Amazon's sibling ASNs via as2org.  Without it, a
    hop in AS7224 following AS16509 would read as a border.  We verify
    the ORG view treats every sibling as home."""
    runner, _result = bench_study

    def sibling_check():
        annotator = runner.annotator_r2
        from repro.net.asn import AMAZON_ASNS

        homes = 0
        for asn in AMAZON_ASNS:
            org = annotator.as2org.org_of(asn)
            homes += org == annotator.home_org
        return homes

    homes = benchmark(sibling_check)
    show(
        "D4 ablation: ORG-level collapsing",
        [f"Amazon sibling ASNs mapped to the Amazon ORG: {homes}/8"],
    )
    assert homes == 8


def test_d5_destination_filter(benchmark, bench_study, bench_world):
    """D5: the hygiene filter that drops traces whose destination *is*
    the CBI -- without it, §7.1's overlap detection would count default
    responses of probed routers as VPIs."""
    runner, result = bench_study

    def count_filtered():
        return runner.observatory.stats.dropped.get(
            DropReason.CBI_IS_DESTINATION, 0
        )

    filtered = benchmark(count_filtered)
    total = runner.observatory.stats.ingested
    show(
        "D5 ablation: CBI-as-destination filter",
        [
            f"traces dropped by the filter: {filtered} of {total}",
            "each of these would have minted a spurious border interface",
        ],
    )
    assert filtered > 0


def test_expansion_targets_cost(benchmark, bench_study):
    """The cost side of D1: expansion multiplies the probing budget."""
    _runner, result = bench_study
    r1 = result.round1_stats.probes
    r2 = result.round2_stats.probes
    show(
        "probing budget",
        [
            f"round-1 probes: {r1}",
            f"expansion probes: {r2} ({r2/max(r1,1):.1f}x round 1 at stride 4)",
            "paper: 15.6M targets x 15 regions, then full /24s around CBIs",
        ],
    )
    benchmark(lambda: expansion_targets(list(result.cbis)[:50]))
    assert r2 > 0
