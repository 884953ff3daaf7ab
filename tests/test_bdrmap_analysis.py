"""Tests for the bdrmap baseline (§8) and the analysis layer."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis import figures, tables
from repro.analysis.report import render_report
from repro.bdrmap.compare import compare
from repro.bdrmap.engine import BdrmapEngine
from repro.world.profiles import ALL_GROUPS


@pytest.fixture(scope="module")
def bdrmap_result(study):
    runner, _result = study
    engine = BdrmapEngine(
        runner.world, runner.bgp_r2, runner.relationships, runner.engine
    )
    # Three regions keep the test fast while still exposing conflicts.
    return engine.run_all(regions=runner.world.region_names("amazon")[:3])


class TestBdrmapEngine:
    def test_targets_only_announced_space(self, study):
        runner, _ = study
        engine = BdrmapEngine(
            runner.world, runner.bgp_r2, runner.relationships, runner.engine
        )
        for dst in engine.select_targets()[:300]:
            assert runner.bgp_r2.is_announced(dst)

    def test_runs_have_borders(self, bdrmap_result):
        assert bdrmap_result.runs
        assert bdrmap_result.all_abis()
        assert bdrmap_result.all_cbis()

    def test_owner_map_covers_cbis(self, bdrmap_result):
        for run in bdrmap_result.runs.values():
            for cbi in run.cbis:
                assert cbi in run.owner

    def test_as0_cbis_have_no_owner_anywhere(self, bdrmap_result):
        as0 = bdrmap_result.as0_cbis()
        for ip in as0:
            for run in bdrmap_result.runs.values():
                assert run.owner.get(ip, 0) == 0

    def test_flips_are_in_both_sets(self, bdrmap_result):
        for ip in bdrmap_result.flip_interfaces():
            assert ip in bdrmap_result.all_abis()
            assert ip in bdrmap_result.all_cbis()

    def test_misses_unannounced_cbis(self, study, bdrmap_result):
        """§8: bdrmap's BGP-driven targets skip WHOIS-only space, so our
        method should see CBIs bdrmap cannot."""
        _runner, result = study
        ours_only = result.cbis - bdrmap_result.all_cbis()
        assert ours_only


class TestBdrmapComparison:
    def test_compare_fields(self, study, bdrmap_result):
        runner, result = study
        cmp = compare(bdrmap_result, result, runner.relationships)
        assert cmp.bdrmap_cbis == len(bdrmap_result.all_cbis())
        assert cmp.common_cbis <= min(cmp.bdrmap_cbis, cmp.ours_cbis)
        assert cmp.common_ases <= min(cmp.bdrmap_ases, cmp.ours_ases)
        assert cmp.as0_owner_cbis >= 0
        assert cmp.flip_interfaces >= 0

    def test_our_method_finds_more_cbis(self, study, bdrmap_result):
        """§8 headline: expansion + WHOIS space give us ~2.5x the CBIs."""
        _runner, result = study
        assert len(result.cbis) > len(bdrmap_result.all_cbis())


class TestTables:
    def test_table1_rows(self, study_result):
        rows = tables.table1(study_result)
        assert [r.label for r in rows] == ["ABI", "CBI", "eABI", "eCBI"]
        for row in rows:
            assert 0 <= row.bgp_pct <= 100
            assert row.total > 0

    def test_table2_cumulative_monotone(self, study_result):
        rows = tables.table2(study_result)
        cums = [r.cumulative_abis for r in rows]
        assert cums == sorted(cums)

    def test_table3_structure(self, study_result):
        rows = tables.table3(study_result)
        assert [r.evidence for r in rows] == [
            "dns", "ixp", "metro", "native", "alias", "min-rtt",
        ]
        cums = [r.cumulative for r in rows]
        assert cums == sorted(cums)

    def test_table4_rows(self, study_result):
        rows = tables.table4(study_result)
        assert [r.cloud for r in rows] == ["microsoft", "google", "ibm", "oracle"]
        for row in rows:
            assert row.pairwise <= row.cumulative or row.cloud == "microsoft"

    def test_table5_percentages(self, study_result):
        rows = tables.table5(study_result)
        assert [r.group for r in rows] == list(ALL_GROUPS)
        for row in rows:
            assert 0 <= row.ases_pct <= 100

    def test_table5_aggregates(self, study_result):
        agg = tables.table5_aggregates(study_result)
        assert set(agg) == {"Pb", "Pr-nB", "Pr-B"}
        rows = {r.group: r for r in tables.table5(study_result)}
        a, c, b = agg["Pr-nB"]
        assert a >= max(rows["Pr-nB-V"].ases, rows["Pr-nB-nV"].ases)

    def test_table6_sorted(self, study_result):
        census = tables.table6(study_result)
        counts = [c for _p, c in census]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(study_result.grouping.profiles)


class TestFigures:
    def test_cdf_points_monotone(self):
        points = figures.cdf_points([3.0, 1.0, 2.0, 2.0])
        assert points == [(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]

    def test_cdf_points_empty(self):
        assert figures.cdf_points([]) == []

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_cdf_reaches_one(self, values):
        points = figures.cdf_points(values)
        assert points[-1][1] == pytest.approx(1.0)

    def test_fraction_helpers(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert figures.fraction_below(vals, 2.5) == 0.5
        assert figures.fraction_above(vals, 2.5) == 0.5
        assert figures.fraction_below([], 1) == 0.0

    def test_box_stats(self):
        stats = figures.box_stats([1, 2, 3, 4, 5])
        assert stats.minimum == 1
        assert stats.median == 3
        assert stats.maximum == 5
        assert stats.q1 == 2
        assert stats.q3 == 4
        assert stats.count == 5

    def test_box_stats_empty(self):
        assert figures.box_stats([]).count == 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
    @example([5e-324, 5e-324])
    @example([1e-310, 1e-310, 1e-310])
    def test_box_stats_ordering(self, values):
        stats = figures.box_stats(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum

    def test_fig6_features(self, study):
        runner, result = study
        feats = figures.fig6_features(result, runner.relationships)
        assert set(feats) == set(ALL_GROUPS)

    def test_fig7_series(self, study_result):
        a = figures.fig7a_series(study_result)
        b = figures.fig7b_series(study_result)
        assert a and b
        assert a[-1][1] == pytest.approx(1.0)


class TestReport:
    def test_report_renders(self, study):
        runner, result = study
        text = render_report(result, runner.relationships)
        assert "Table 1" in text
        assert "Table 5" in text
        assert "paper" in text
        assert "VPIs visible from other clouds" in text

    def test_report_contains_all_groups(self, study_result):
        text = render_report(study_result)
        for group in ALL_GROUPS:
            assert group in text
