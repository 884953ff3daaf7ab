"""Tests for ground-truth evaluation, ASCII rendering, and result props."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.ascii import ascii_cdf, ascii_hist
from repro.core.evaluation import evaluate_study
from repro.core.results import StudyResult


class TestEvaluation:
    @pytest.fixture(scope="class")
    def evaluation(self, study):
        runner, result = study
        return evaluate_study(runner.world, result)

    def test_metrics_bounded(self, evaluation):
        b = evaluation.borders
        for value in (b.abi_precision, b.abi_recall, b.cbi_precision, b.cbi_recall):
            assert 0.0 <= value <= 1.0
        assert 0.0 <= evaluation.pinning.accuracy <= 1.0
        assert 0.0 <= evaluation.vpi.precision <= 1.0
        assert 0.0 <= evaluation.vpi.lower_bound_tightness <= 1.0

    def test_detectable_subset_of_true(self, evaluation):
        assert evaluation.vpi.detectable_vpi_cbis <= evaluation.vpi.true_vpi_cbis

    def test_unobserved_includes_private(self, evaluation):
        assert (
            evaluation.private_vpi_interconnections
            <= evaluation.unobserved_interconnections
        )

    def test_pinned_count_consistent(self, study, evaluation):
        _runner, result = study
        assert evaluation.pinning.evaluated <= len(result.pinning.pinned)
        assert evaluation.pinning.correct <= evaluation.pinning.evaluated

    def test_empty_result_evaluates_cleanly(self, study):
        runner, _result = study
        empty = StudyResult()
        ev = evaluate_study(runner.world, empty)
        assert ev.borders.abi_precision == 0.0
        assert ev.vpi.detected == 0
        # Every real interconnection counts as unobserved.
        visible = [
            i
            for i in runner.world.interconnections.values()
        ]
        assert ev.unobserved_interconnections == len(visible)


class TestAsciiRendering:
    def test_cdf_shape(self):
        art = ascii_cdf([1, 2, 3, 4, 5], width=20, height=4, title="t")
        lines = art.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 4 + 1  # title + rows + axis
        assert all(len(l) <= 26 for l in lines[1:-1])

    def test_cdf_marker_column(self):
        art = ascii_cdf([10.0] * 5 + [0.5], width=20, height=4, marker=2.0, x_max=10.0)
        assert "|" in art

    def test_cdf_empty(self):
        assert "(no data)" in ascii_cdf([], title="x")

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=80))
    def test_cdf_never_crashes_and_is_monotone(self, values):
        art = ascii_cdf(values, width=30, height=5)
        rows = [l[5:] for l in art.splitlines()[:-1]]
        # Each row's '#' region must be a suffix (CDF is nondecreasing).
        for row in rows:
            stripped = row.rstrip()
            if "#" in stripped:
                first = stripped.index("#")
                tail = stripped[first:]
                assert set(tail) <= {"#"}

    def test_hist(self):
        art = ascii_hist([("a", 0.5), ("bb", 1.0)], width=10, title="h")
        lines = art.splitlines()
        assert lines[0] == "h"
        assert lines[2].count("#") == 10
        assert lines[1].count("#") == 5

    def test_hist_empty(self):
        assert "(no data)" in ascii_hist([])


class TestStudyResultProperties:
    def test_coverage_properties_empty(self):
        result = StudyResult()
        assert result.metro_pin_coverage == 0.0
        assert result.total_pin_coverage == 0.0
        assert result.bgp_recovery_fraction == 0.0

    def test_coverages_ordered(self, study_result):
        assert (
            0.0
            <= study_result.metro_pin_coverage
            <= study_result.total_pin_coverage
            <= 1.0
        )

    def test_runtime_sections_present(self, study_result):
        for key in ("round1", "round2", "heuristics", "alias", "pinning"):
            assert key in study_result.metrics.stages
            assert study_result.metrics.stages[key] >= 0
