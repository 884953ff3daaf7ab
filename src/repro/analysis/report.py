"""Text rendering of the full paper-vs-measured comparison."""

from __future__ import annotations

from typing import List, Optional

from repro.analysis import figures, paper_values as paper, tables
from repro.core.config import StudyConfig
from repro.core.results import StudyResult
from repro.core.stages import stages_for
from repro.datasets.relationships import ASRelationships


def _fmt_pct(x: float) -> str:
    return f"{x:5.1f}%"


def _render_resilience(result: StudyResult, add) -> None:
    """Fault/retry/completeness block -- printed only when relevant.

    Relevant means a fault plan was configured, or any campaign saw a
    failed attempt, quarantine, or checkpoint resume; a clean run keeps
    the historical report byte-for-byte.
    """
    metrics = result.metrics
    fault_plan = result.config.fault_plan if result.config else None
    if metrics is None:
        return
    adaptive = result.resilience is not None
    eventful = (
        metrics.total_failures
        or metrics.total_quarantined
        or metrics.total_resumed
        or metrics.degraded
        or adaptive
    )
    if fault_plan is None and not eventful:
        return
    add("resilience:")
    if fault_plan is not None:
        add(f"  fault plan: {fault_plan.describe()}")
    for label, record in metrics.campaigns.items():
        add(
            f"  {label}: completeness {record.completeness * 100:.1f}% "
            f"({record.probes}/{record.expected_probes} probes), "
            f"{record.failed_attempts} failed attempt(s), "
            f"{record.quarantined_shards} quarantined shard(s), "
            f"{record.resumed_shards} resumed from checkpoint"
        )
        if record.failures:
            add(
                "    failures by class: "
                + ", ".join(
                    f"{category}={count}"
                    for category, count in sorted(record.failures.items())
                )
            )
        for index, (region, probes, error) in record.quarantined.items():
            add(
                f"    quarantined shard {index} ({region}, "
                f"{probes} probes): {error}"
            )
    # Absolute completed counts per round: the CI chaos job compares
    # these between adaptive and non-adaptive runs of one fault plan.
    for label, stats in (
        ("round1", result.round1_stats),
        ("round2", result.round2_stats),
    ):
        if stats is None:
            continue
        expected = stats.probes + stats.lost_probes
        add(
            f"  {label} yield: completed {stats.completed} of "
            f"{expected} expected probes "
            f"({stats.recovered_probes} recovered, "
            f"{stats.lost_probes} lost)"
        )
    resilience = result.resilience
    if resilience is not None:
        add("  adaptive control plane:")
        add(
            f"    deferred {resilience.deferred} probe(s) behind open "
            f"breakers; {resilience.quarantine_lost} probe(s) lost to "
            f"quarantine"
        )
        add(
            f"    recovery: {resilience.rounds_run} round(s), "
            f"{resilience.recovered} recovered "
            f"({resilience.fallback_recovered} via salt-0 fallback), "
            f"{resilience.trial_probes} trial probe(s), "
            f"{resilience.still_lost} still lost"
        )
        if resilience.recovered_by_label:
            add(
                "    recovered by campaign: "
                + ", ".join(
                    f"{label}={count}"
                    for label, count in resilience.recovered_by_label
                )
            )
        for breaker in resilience.breakers:
            if not breaker.events:
                continue
            history = " -> ".join(
                f"{event.to_state}@{event.at_outcome}"
                for event in breaker.events
            )
            add(
                f"    breaker {breaker.cloud}/{breaker.region}: {breaker.state} "
                f"({breaker.failures}/{breaker.outcomes} failed outcomes, "
                f"{breaker.rate_limited} rate-limit fingerprints; "
                f"closed -> {history})"
            )
    if metrics.degraded:
        add(
            "  WARNING: one or more campaigns are incomplete; downstream "
            "inference ran on partial data"
        )


def _render_data_quality(result: StudyResult, add) -> None:
    """Dataset-dirt block -- printed only when relevant.

    Relevant means a data fault plan was configured or a confidence
    floor was set; a pristine default run keeps the historical report
    unchanged (clean worlds still have benign coverage gaps, which would
    otherwise print noise on every run).
    """
    dq = result.data_quality
    config = result.config
    if dq is None or config is None:
        return
    if config.data_fault_plan is None and config.min_confidence <= 0.0:
        return
    add("data quality:")
    if dq.fault_plan is not None:
        add(f"  data fault plan: {dq.fault_plan.describe()}")
    v = dq.validation
    if v is not None:
        add(
            f"  dataset validation over {v.checked_prefixes} announced "
            f"prefixes: {v.moas_prefixes} MOAS, "
            f"{v.bgp_whois_mismatches} BGP-vs-WHOIS origin mismatches, "
            f"{v.ixp_member_conflicts} IXP member conflicts"
        )
        add(
            f"  coverage gaps: {v.whois_gaps} WHOIS gaps, "
            f"{v.whois_nameonly} name-only records, "
            f"{v.as2org_missing_asns} origin ASes missing from as2org"
        )
    add(
        f"  annotation confidence over {dq.interfaces_scored} border "
        f"interfaces: mean {dq.mean_confidence:.3f}"
    )
    if dq.disagreement_counts:
        add(
            "  annotation disagreements: "
            + ", ".join(
                f"{label}={count}"
                for label, count in sorted(dq.disagreement_counts.items())
            )
        )
    add(f"  disagreements: total {dq.total_disagreements}")
    if config.min_confidence > 0.0:
        add(
            f"  flagged below min-confidence {config.min_confidence:g}: "
            f"{len(dq.low_confidence_abis)} ABIs, "
            f"{len(dq.low_confidence_cbis)} CBIs, "
            f"{len(dq.low_confidence_pins)} pins"
        )
    if dq.degraded:
        add(
            "  WARNING: dataset sources disagree; flagged inferences are "
            "counted but suspect"
        )


def render_sensitivity(clean: StudyResult, dirty: StudyResult) -> str:
    """Paper-table deltas between a clean run and its dirty twin.

    Both results must come from the same world and seed; the only
    difference should be the dirty run's ``data_fault_plan`` (and
    optionally its confidence floor).
    """
    lines: List[str] = []
    add = lines.append
    plan = dirty.config.data_fault_plan if dirty.config else None
    add("sensitivity (clean -> dirty paper-table deltas):")
    if plan is not None:
        add(f"  dirty run plan: {plan.describe()}")
    clean_rows = {row.label: row for row in clean.table1}
    for row in dirty.table1:
        base = clean_rows.get(row.label)
        if base is None:
            continue
        add(
            f"  Table1 {row.label}: total {base.total} -> {row.total} "
            f"({row.total - base.total:+d}); "
            f"BGP% {base.bgp_fraction * 100:.1f} -> {row.bgp_fraction * 100:.1f}; "
            f"WHOIS% {base.whois_fraction * 100:.1f} -> {row.whois_fraction * 100:.1f}; "
            f"IXP% {base.ixp_fraction * 100:.1f} -> {row.ixp_fraction * 100:.1f}"
        )
    add(
        f"  peer ASes (r1/r2): {clean.peer_ases_round1}/{clean.peer_ases_round2}"
        f" -> {dirty.peer_ases_round1}/{dirty.peer_ases_round2}"
    )
    add(
        f"  final ABIs {len(clean.abis)} -> {len(dirty.abis)} "
        f"({len(dirty.abis) - len(clean.abis):+d}); "
        f"CBIs {len(clean.cbis)} -> {len(dirty.cbis)} "
        f"({len(dirty.cbis) - len(clean.cbis):+d}); "
        f"segments {len(clean.final_segments)} -> {len(dirty.final_segments)} "
        f"({len(dirty.final_segments) - len(clean.final_segments):+d})"
    )
    add(
        f"  metro pin coverage {clean.metro_pin_coverage * 100:.1f}% -> "
        f"{dirty.metro_pin_coverage * 100:.1f}%; with regional fallback "
        f"{clean.total_pin_coverage * 100:.1f}% -> "
        f"{dirty.total_pin_coverage * 100:.1f}%"
    )
    if clean.grouping is not None and dirty.grouping is not None:
        add(
            f"  hidden peering fraction "
            f"{clean.grouping.hidden_fraction() * 100:.1f}% -> "
            f"{dirty.grouping.hidden_fraction() * 100:.1f}%"
        )
    add(
        f"  BGP-visible peer recovery "
        f"{clean.bgp_recovery_fraction * 100:.0f}% -> "
        f"{dirty.bgp_recovery_fraction * 100:.0f}%"
    )
    same = clean.digest() == dirty.digest()
    add(f"  digest: {'identical (plan injected nothing)' if same else 'diverged, as expected'}")
    return "\n".join(lines)


def render_salvage(result: StudyResult, recovered: List[str]) -> str:
    """Partial report for ``repro study --salvage``.

    The full report assumes every stage ran; after a crash only a prefix
    of the config's stages is recoverable, so this renders exactly what
    each recovered stage contributed and names the stages still missing.
    """
    lines: List[str] = []
    add = lines.append
    add("salvaged study (stage checkpoints only; nothing was re-probed)")
    if not recovered:
        add("  no recoverable stages: the checkpoint directory holds no "
            "stage records matching this configuration")
        return "\n".join(lines)
    add(f"  recovered stages: {', '.join(recovered)}")
    if result.round1_stats is not None:
        stats = result.round1_stats
        add(f"  round 1: {stats.probes} probes, "
            f"{stats.completed_fraction * 100:.1f}% complete, "
            f"{result.peer_ases_round1} peer ASes")
    if result.round2_stats is not None:
        stats = result.round2_stats
        add(f"  round 2: {stats.probes} probes, "
            f"{stats.completed_fraction * 100:.1f}% complete, "
            f"{result.peer_ases_round2} peer ASes")
    for row in result.table1:
        add(f"  census {row.label}: {row.total} interfaces "
            f"(BGP {row.bgp_fraction * 100:.1f}%, "
            f"WHOIS {row.whois_fraction * 100:.1f}%, "
            f"IXP {row.ixp_fraction * 100:.1f}%)")
    if result.verification is not None:
        add(f"  verified borders: {len(result.abis)} ABIs, "
            f"{len(result.cbis)} CBIs, "
            f"{len(result.final_segments)} segments, "
            f"{len(result.alias_sets)} alias sets")
    if result.pinning is not None:
        add(f"  pinning: {len(result.pinning.pinned)} metro-pinned, "
            f"coverage {result.metro_pin_coverage * 100:.1f}% "
            f"(with fallback {result.total_pin_coverage * 100:.1f}%)")
    if result.crossval is not None:
        add(f"  cross-validation: mean precision "
            f"{result.crossval.mean_precision * 100:.1f}%, recall "
            f"{result.crossval.mean_recall * 100:.1f}% over "
            f"{len(result.crossval.folds)} folds")
    if result.vpi is not None:
        add(f"  VPI: {len(result.vpi.vpi_cbis)} multi-cloud CBIs out of "
            f"{result.vpi.amazon_cbis} (pool {result.vpi.pool_size})")
    if result.grouping is not None:
        add(f"  grouping: {len(result.grouping.records)} peerings, "
            f"hidden fraction "
            f"{result.grouping.hidden_fraction() * 100:.1f}%")
    if result.icg is not None:
        add(f"  ICG: {result.icg.node_count} nodes, "
            f"{result.icg.edge_count} edges")
    config = result.config if result.config is not None else StudyConfig()
    missing = [s for s in stages_for(config) if s not in recovered]
    if missing:
        add(f"  missing stages (resume to compute): {', '.join(missing)}")
    return "\n".join(lines)


def render_report(
    result: StudyResult,
    relationships: Optional[ASRelationships] = None,
) -> str:
    """A complete, human-readable paper-vs-measured report."""
    lines: List[str] = []
    add = lines.append
    scale = result.scale or 1.0

    add("=" * 74)
    add("Amazon peering-fabric study: measured vs. paper (IMC '19)")
    add(f"world scale = {scale:g} of the paper's 3,548 peer ASes; seed = {result.seed}")
    add("=" * 74)

    # Table 1 -------------------------------------------------------------
    add("")
    add("Table 1 -- interfaces and annotation sources")
    add(f"{'':>6} {'count':>7} {'(paper x scale)':>16} {'BGP%':>7} {'WHOIS%':>7} {'IXP%':>6}   paper: BGP/WHOIS/IXP")
    for row in tables.table1(result):
        p_count, p_bgp, p_whois, p_ixp = paper.TABLE1[row.label]
        add(
            f"{row.label:>6} {row.total:>7} {p_count * scale:>16.0f} "
            f"{_fmt_pct(row.bgp_pct)} {_fmt_pct(row.whois_pct)} {_fmt_pct(row.ixp_pct)}"
            f"   {p_bgp * 100:.1f}/{p_whois * 100:.1f}/{p_ixp * 100:.1f}"
        )
    if result.round1_stats:
        add(
            f"round-1 yield: completed {result.round1_stats.completed_fraction * 100:.1f}% "
            f"(paper {paper.COMPLETED_FRACTION * 100:.1f}%), "
            f"left Amazon {result.round1_stats.left_cloud_fraction * 100:.1f}% "
            f"(paper {paper.LEFT_AMAZON_FRACTION * 100:.0f}%)"
        )

    # Table 2 -------------------------------------------------------------
    add("")
    add("Table 2 -- heuristic confirmation of candidate ABIs (CBIs)")
    for row in tables.table2(result):
        p_ind_a, p_ind_c, p_cum_a, p_cum_c = paper.TABLE2[row.heuristic]
        add(
            f"{row.heuristic:>10}: individual {row.individual_abis} ({row.individual_cbis})"
            f"  cumulative {row.cumulative_abis} ({row.cumulative_cbis})"
            f"   paper x scale: {p_ind_a * scale:.0f} ({p_ind_c * scale:.0f}) /"
            f" {p_cum_a * scale:.0f} ({p_cum_c * scale:.0f})"
        )
    if result.heuristics:
        total = len(result.heuristics.confirmed_abis) + len(result.heuristics.unconfirmed_abis)
        frac = len(result.heuristics.confirmed_abis) / total if total else 0.0
        add(
            f"confirmed ABI fraction: {frac * 100:.1f}% "
            f"(paper {paper.HEURISTIC_CONFIRMED_ABI_FRACTION * 100:.1f}%)"
        )

    # §5.2 ---------------------------------------------------------------
    if result.verification:
        v = result.verification
        add("")
        add("Alias verification (5.2)")
        add(
            f"alias sets: {len(result.alias_sets)} (paper x scale {paper.ALIAS_SETS * scale:.0f}); "
            f"label changes ABI->CBI {v.changed_abi_to_cbi}, CBI->ABI {v.changed_cbi_to_abi}, "
            f"CBI->CBI {v.changed_cbi_to_cbi} (paper {paper.CHANGES_ABI_TO_CBI}/"
            f"{paper.CHANGES_CBI_TO_ABI}/{paper.CHANGES_CBI_TO_CBI} at full scale)"
        )
        if v.ownership and v.ownership.set_count:
            o = v.ownership
            add(
                f"sets with >50% majority owner: {o.majority_over_half / o.set_count * 100:.0f}% "
                f"(paper {paper.ALIAS_MAJORITY_OVER_HALF * 100:.0f}%), unanimous "
                f"{o.unanimous / o.set_count * 100:.0f}% (paper {paper.ALIAS_UNANIMOUS * 100:.0f}%)"
            )
        add(
            f"final: {len(result.abis)} ABIs, {len(result.cbis)} CBIs "
            f"(paper x scale {paper.FINAL_ABIS * scale:.0f} / {paper.FINAL_CBIS * scale:.0f})"
        )

    # Table 3 / §6 ----------------------------------------------------------
    add("")
    add("Table 3 -- anchors and pinning")
    for row in tables.table3(result):
        add(
            f"{row.evidence:>8}: exclusive {row.exclusive:>5}  cumulative {row.cumulative:>5}"
            f"   paper x scale: {paper.TABLE3_EXCLUSIVE[row.evidence] * scale:.0f} /"
            f" {paper.TABLE3_CUMULATIVE[row.evidence] * scale:.0f}"
        )
    add(
        f"metro-level coverage {result.metro_pin_coverage * 100:.1f}% "
        f"(paper {paper.METRO_PIN_COVERAGE * 100:.1f}%); with regional fallback "
        f"{result.total_pin_coverage * 100:.1f}% (paper {paper.TOTAL_PIN_COVERAGE * 100:.1f}%)"
    )
    if result.pinning:
        add(f"pinning rounds: {result.pinning.rounds} (paper {paper.PINNING_ROUNDS})")
    if result.crossval:
        add(
            f"cross-validation: precision {result.crossval.mean_precision * 100:.1f}% "
            f"(paper {paper.PINNING_PRECISION * 100:.1f}%), recall "
            f"{result.crossval.mean_recall * 100:.1f}% (paper {paper.PINNING_RECALL * 100:.1f}%)"
        )

    # Figures 4-5 -----------------------------------------------------------
    add("")
    add("Figures 4-5 -- RTT distributions")
    f4a = figures.fig4a_series(result)
    f4b = figures.fig4b_series(result)
    f5 = figures.fig5_series(result)
    from repro.analysis.ascii import ascii_cdf

    add(ascii_cdf(f4a, marker=2.0, title="Fig 4a: CDF of min-RTT to ABIs (ms; | = 2 ms knee)"))
    add("")
    add(ascii_cdf(f4b, marker=2.0, title="Fig 4b: CDF of segment min-RTT differences (ms)"))
    add(
        f"Fig 4a: {figures.fraction_below(f4a, paper.FIG4A_KNEE_MS) * 100:.0f}% of ABIs under "
        f"{paper.FIG4A_KNEE_MS:.0f} ms (paper ~{paper.FIG4A_FRACTION_UNDER_KNEE * 100:.0f}%)"
    )
    add(
        f"Fig 4b: {figures.fraction_below(f4b, paper.FIG4B_KNEE_MS) * 100:.0f}% of segments under "
        f"{paper.FIG4B_KNEE_MS:.0f} ms (paper ~{paper.FIG4B_FRACTION_UNDER_KNEE * 100:.0f}%)"
    )
    add(
        f"Fig 5: {figures.fraction_above(f5, paper.FIG5_RATIO_THRESHOLD) * 100:.0f}% of ratios over "
        f"{paper.FIG5_RATIO_THRESHOLD} (paper {paper.FIG5_FRACTION_OVER_THRESHOLD * 100:.0f}%)"
    )

    # Table 4 -----------------------------------------------------------------
    add("")
    add("Table 4 -- VPIs visible from other clouds")
    for row in tables.table4(result):
        p_pair = paper.TABLE4_PAIRWISE[row.cloud]
        p_cum = paper.TABLE4_CUMULATIVE[row.cloud]
        add(
            f"{row.cloud:>10}: pairwise {row.pairwise:>5} ({row.pairwise_pct:.2f}%)  "
            f"cumulative {row.cumulative:>5} ({row.cumulative_pct:.2f}%)"
            f"   paper: {p_pair[1] * 100:.2f}% / {p_cum[1] * 100:.2f}%"
        )

    # Table 5 / 6 ----------------------------------------------------------------
    add("")
    add("Table 5 -- peering groups (AS% / CBI% / ABI%)")
    for row in tables.table5(result):
        p = paper.TABLE5[row.group]
        add(
            f"{row.group:>9}: {row.ases:>4} ({row.ases_pct:4.1f}%)  {row.cbis:>5} ({row.cbis_pct:4.1f}%)  "
            f"{row.abis:>4} ({row.abis_pct:4.1f}%)   paper: {p[0] * 100:.0f}/{p[1] * 100:.0f}/{p[2] * 100:.0f}"
        )
    if result.grouping:
        add(
            f"hidden peerings: {result.grouping.hidden_fraction() * 100:.1f}% of peer ASes "
            f"(paper {paper.HIDDEN_PEERING_FRACTION * 100:.1f}%)"
        )
    add(
        f"BGP-visible peer recovery: {result.bgp_recovery_fraction * 100:.0f}% of "
        f"{len(result.bgp_visible_peers)} (paper {paper.BGP_RECOVERY_FRACTION * 100:.0f}% of "
        f"{paper.BGP_REPORTED_PEERINGS})"
    )
    add("")
    add("Table 6 -- top hybrid peering profiles")
    for profile, count in tables.table6(result)[:8]:
        add(f"  {'; '.join(sorted(profile)):<42} {count}")

    # §7.4 --------------------------------------------------------------------------
    if result.icg:
        add("")
        add("Figure 7 / 7.4 -- the interface connectivity graph")
        add(
            f"largest component: {result.icg.largest_component_fraction * 100:.1f}% of nodes "
            f"(paper {paper.ICG_LARGEST_COMPONENT_FRACTION * 100:.1f}%)"
        )
        add(
            f"intra-region fraction of both-end-pinned edges: "
            f"{result.icg.intra_region_fraction * 100:.1f}% (paper {paper.ICG_INTRA_REGION_FRACTION * 100:.0f}%)"
        )
        abi_deg = result.icg.abi_degrees
        cbi_deg = result.icg.cbi_degrees
        add(
            f"ABI degree: deg<=1 {figures.degree_fraction_at_most(abi_deg, 1) * 100:.0f}% "
            f"(paper {paper.FIG7A_ABI_DEG1_FRACTION * 100:.0f}%), "
            f"deg<10 {figures.degree_fraction_at_most(abi_deg, 9) * 100:.0f}% "
            f"(paper {paper.FIG7A_ABI_UNDER10_FRACTION * 100:.0f}%)"
        )
        add(
            f"CBI degree: deg<=1 {figures.degree_fraction_at_most(cbi_deg, 1) * 100:.0f}% "
            f"(paper {paper.FIG7B_CBI_DEG1_FRACTION * 100:.0f}%), "
            f"deg<=8 {figures.degree_fraction_at_most(cbi_deg, 8) * 100:.0f}% "
            f"(paper {paper.FIG7B_CBI_UNDER8_FRACTION * 100:.0f}%)"
        )

    add("")
    metrics = result.metrics
    timings = metrics.stages if metrics is not None else {}
    add("timings: " + ", ".join(f"{k}={v:.1f}s" for k, v in timings.items()))
    if metrics is not None and metrics.campaigns:
        add("campaign throughput:")
        for label in metrics.campaigns:
            add("  " + metrics.campaign_summary(label))
    _render_resilience(result, add)
    _render_data_quality(result, add)
    if result.config is not None:
        add(
            "config: "
            + ", ".join(f"{k}={v}" for k, v in result.config.as_dict().items())
        )
    return "\n".join(lines)
