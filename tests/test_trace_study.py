"""End-to-end tracing: digest neutrality, coverage, and metrics views.

Four tiny studies (workers {1, 4} x {traced, untraced}) share a module
fixture; the traced twins write both on-disk formats so ``--trace-out``
is exercised exactly as the CLI drives it.
"""

from __future__ import annotations

import pytest

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.obs.analyze import campaign_funnel, render_trace_summary
from repro.obs.export import read_trace


@pytest.fixture(scope="module")
def trace_runs(tiny_world, tmp_path_factory):
    """{(workers, traced): (result, trace_path or None)}."""
    out_dir = tmp_path_factory.mktemp("traces")
    base = StudyConfig(
        seed=11,
        expansion_stride=16,
        run_vpi=False,
        run_crossval=False,
    )
    runs = {}
    for workers in (1, 4):
        for traced in (False, True):
            # One run per format: w1 -> JSONL, w4 -> Chrome JSON.
            suffix = "jsonl" if workers == 1 else "json"
            config = base.replace(
                workers=workers,
                trace=traced,
                trace_out=(
                    str(out_dir / f"trace-w{workers}.{suffix}")
                    if traced
                    else None
                ),
            )
            result = AmazonPeeringStudy(tiny_world, config).run()
            runs[(workers, traced)] = (result, config.trace_out)
    return runs


class TestDigestNeutrality:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_traced_digest_equals_untraced(self, trace_runs, workers):
        untraced, _ = trace_runs[(workers, False)]
        traced, _ = trace_runs[(workers, True)]
        assert traced.digest() == untraced.digest()
        assert traced.digest_inputs() == untraced.digest_inputs()

    def test_digest_identical_across_worker_counts(self, trace_runs):
        digests = {
            result.digest() for result, _ in trace_runs.values()
        }
        assert len(digests) == 1

    def test_trace_flags_never_enter_digest_inputs(self, trace_runs):
        result, _ = trace_runs[(1, True)]
        assert "trace" not in repr(result.digest_inputs())


class TestTraceCoverage:
    def _records(self, trace_runs, workers):
        _, path = trace_runs[(workers, True)]
        meta, records = read_trace(path)
        return meta, records

    @pytest.mark.parametrize("workers", [1, 4])
    def test_study_span_covers_95_percent_of_wall_clock(
        self, trace_runs, workers
    ):
        _, records = self._records(trace_runs, workers)
        study = next(r for r in records if r.category == "study")
        wall = max(r.end for r in records)
        assert wall > 0
        assert study.duration / wall >= 0.95

    @pytest.mark.parametrize("workers", [1, 4])
    def test_hierarchy_layers_present(self, trace_runs, workers):
        meta, records = self._records(trace_runs, workers)
        assert meta["seed"] == 11
        assert meta["workers"] == workers
        categories = {r.category for r in records}
        assert {"study", "stage", "campaign", "shard", "probe-batch"} <= categories
        if workers > 1:
            assert "worker" in categories
        stage_names = {r.name for r in records if r.category == "stage"}
        assert {"round1", "round2"} <= stage_names

    def test_worker_spans_nest_under_exactly_one_shard(self, trace_runs):
        _, records = self._records(trace_runs, 4)
        by_id = {r.span_id: r for r in records}
        worker_roots = [r for r in records if r.category == "worker"]
        assert worker_roots, "pooled traced run must ship worker spans"
        for root in worker_roots:
            ancestors = []
            cursor = root
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
                ancestors.append(cursor.category)
            # Exactly one shard ancestor, and the chain continues up
            # through campaign (+ stage) to the study root.
            assert ancestors.count("shard") == 1
            assert ancestors[-1] == "study"
            assert "campaign" in ancestors

    def test_study_span_carries_annotation_counters(self, trace_runs):
        _, records = self._records(trace_runs, 1)
        study = next(r for r in records if r.category == "study")
        names = dict(study.counters)
        assert "annotation_cache_hits" in names
        assert "annotation_cache_misses" in names
        assert "annotation_fallback_depth" in names
        assert names["annotation_cache_misses"] > 0
        # Fallback chains consult at least one source per cache miss.
        assert (
            names["annotation_fallback_depth"]
            >= names["annotation_cache_misses"]
        )

    def test_funnel_and_summary_render_from_file(self, trace_runs):
        _, path = trace_runs[(4, True)]
        _, records = read_trace(path)
        rows = {row.label: row for row in campaign_funnel(records)}
        assert set(rows) == {"round1", "round2"}
        assert rows["round1"].probes == rows["round1"].expected > 0
        assert rows["round1"].lost == 0
        text = render_trace_summary(str(path))
        assert "probe-yield funnel" in text and "round1" in text


class TestMetricsAsSpanViews:
    def test_stage_table_is_folded_from_spans(self, trace_runs):
        result, _ = trace_runs[(1, True)]
        metrics = result.metrics
        spans = {
            r.name for r in metrics.tracer.records if r.category == "stage"
        }
        assert set(metrics.stages) == spans
        for name, seconds in metrics.stages.items():
            assert seconds >= 0

    def test_untraced_run_still_records_coarse_spans(self, trace_runs):
        result, _ = trace_runs[(1, False)]
        categories = {r.category for r in result.metrics.tracer.records}
        # Coarse layers always on; fine-grained layers strictly opt-in.
        assert {"study", "stage", "campaign", "shard"} <= categories
        assert "probe-batch" not in categories
        assert "worker" not in categories

    def test_campaign_progress_agrees_with_campaign_spans(self, trace_runs):
        result, _ = trace_runs[(4, True)]
        metrics = result.metrics
        assert list(metrics.campaigns) == ["round1", "round2"]
        assert metrics.campaigns["round1"] is result.round1_stats
        for label, record in metrics.campaigns.items():
            assert record.label == label
            span, latencies = metrics.campaign_clock(label)
            assert int(span.counter("probes")) == record.probes
            assert int(span.counter("expected")) == record.expected_probes
            assert int(span.counter("lost")) == record.lost_probes
            assert int(span.counter("workers")) == 4
            assert latencies and min(latencies) >= 0
