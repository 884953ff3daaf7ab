"""Sharded executor: partitioning, determinism, the campaign record, stride edges."""

import gc
import signal
import weakref

import pytest

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.measure import executor as executor_mod
from repro.measure.campaign import expansion_targets
from repro.measure.executor import (
    RetryPolicy,
    ShardedExecutor,
    default_shard_size,
    partition_targets,
    plan_shards,
)
from repro.measure.faults import FaultPlan
from repro.measure.metrics import StudyMetrics
from repro.measure.sink import EventSink
from repro.measure.traceroute import TracerouteEngine


class TestPartitioning:
    def test_partition_preserves_order_and_contiguity(self):
        targets = list(range(100, 110))
        shards = partition_targets(targets, 3)
        assert [len(s) for s in shards] == [3, 3, 3, 1]
        assert [t for s in shards for t in s] == targets

    def test_partition_empty_targets(self):
        assert partition_targets([], 5) == []

    def test_partition_fewer_targets_than_shard_size(self):
        shards = partition_targets([1, 2], 100)
        assert shards == [(1, 2)]

    def test_partition_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            partition_targets([1], 0)

    def test_plan_shards_region_major(self):
        shards = plan_shards(["r-a", "r-b"], [1, 2, 3], shard_size=2)
        assert [(s.region, s.targets) for s in shards] == [
            ("r-a", (1, 2)),
            ("r-a", (3,)),
            ("r-b", (1, 2)),
            ("r-b", (3,)),
        ]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_plan_shards_empty_targets_yields_no_work(self):
        assert plan_shards(["r-a", "r-b"], [], shard_size=4) == []

    def test_default_shard_size_fewer_targets_than_workers(self):
        # 3 targets, 8 workers: shards shrink to one target each rather
        # than starving; nothing is dropped.
        size = default_shard_size(3, workers=8)
        assert size == 1
        shards = plan_shards(["r-a"], [1, 2, 3], size)
        assert [s.targets for s in shards] == [(1,), (2,), (3,)]

    def test_default_shard_size_zero_targets(self):
        assert default_shard_size(0, workers=4) == 1


class TestExpansionStrideEdges:
    CBI = 0x0A000001  # 10.0.0.1

    def test_stride_one_is_exhaustive(self):
        targets = expansion_targets([self.CBI], stride=1)
        assert len(targets) == 253  # 254 hosts minus the CBI itself
        assert self.CBI not in targets

    def test_stride_four_subsamples(self):
        targets = expansion_targets([self.CBI], stride=4)
        expected = [0x0A000000 + off for off in range(1, 255, 4) if off != 1]
        assert targets == expected

    def test_stride_254_probes_only_dot1(self):
        # range(1, 255, 254) == [1]; the .1 is the CBI here, so nothing.
        assert expansion_targets([self.CBI], stride=254) == []
        other = 0x0A000005
        assert expansion_targets([other], stride=254) == [
            0x0A000001
        ]

    def test_stride_zero_rejected(self):
        with pytest.raises(ValueError):
            expansion_targets([self.CBI], stride=0)

    def test_targets_iterable_consumed_once(self, tiny_world):
        executor = ShardedExecutor(tiny_world, TracerouteEngine(tiny_world))
        region = tiny_world.region_names("amazon")[:1]
        targets = iter([p.network + 1 for p in tiny_world.sweep_slash24s[:5]])
        stats = executor.run(
            "amazon", "campaign", targets, lambda trace: None, regions=region
        )
        assert stats.probes == 5


class TestExecutorDeterminism:
    def _run(self, world, workers):
        engine = TracerouteEngine(world, seed=1)
        executor = ShardedExecutor(world, engine, workers=workers)
        traces = []
        stats = executor.run(
            "amazon",
            "campaign",
            [p.network + 1 for p in world.sweep_slash24s[:30]],
            traces.append,
            regions=world.region_names("amazon")[:3],
        )
        return traces, stats

    def test_worker_counts_agree(self, tiny_world):
        traces1, stats1 = self._run(tiny_world, workers=1)
        traces2, stats2 = self._run(tiny_world, workers=2)
        traces4, stats4 = self._run(tiny_world, workers=4)
        assert [repr(t) for t in traces1] == [repr(t) for t in traces2]
        assert [repr(t) for t in traces1] == [repr(t) for t in traces4]
        assert stats1 == stats2 == stats4

    def test_probe_independent_of_order(self, tiny_world):
        """A trace is a pure function of (seed, cloud, region, dst)."""
        engine = TracerouteEngine(tiny_world, seed=1)
        region = tiny_world.region_names("amazon")[0]
        dsts = [p.network + 1 for p in tiny_world.sweep_slash24s[:10]]
        forward = [repr(engine.trace("amazon", region, d)) for d in dsts]
        backward = [
            repr(engine.trace("amazon", region, d)) for d in reversed(dsts)
        ]
        assert forward == list(reversed(backward))

    def test_empty_target_list(self, tiny_world):
        executor = ShardedExecutor(tiny_world, TracerouteEngine(tiny_world), workers=4)
        traces = []
        stats = executor.run("amazon", "campaign", [], traces.append)
        assert stats.probes == 0
        assert traces == []


class TestRetriedShardsAreFreed:
    """A retried shard's traces die with their last reference.

    The retry loop keeps no reference cycle through a failed attempt --
    neither through the failure it accounts for nor, on the pool path,
    through the handle that raised it -- so nothing it merged waits for
    a full collection.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_trace_outlives_the_campaign(self, tiny_world, workers):
        # Every shard's first attempt crashes; its inline retry succeeds.
        plan = FaultPlan(seed=5, crash_rate=1.0, crash_attempts=1)
        engine = TracerouteEngine(tiny_world, seed=1, faults=plan)
        executor = ShardedExecutor(
            tiny_world,
            engine,
            workers=workers,
            retry=RetryPolicy(backoff_base_s=0.0),
        )
        refs = []
        gc.collect()
        gc.disable()
        try:
            stats = executor.run(
                "amazon",
                "campaign",
                [p.network + 1 for p in tiny_world.sweep_slash24s[:40]],
                lambda trace: refs.append(weakref.ref(trace)),
                regions=tiny_world.region_names("amazon")[:2],
            )
            assert stats.retries > 0
            assert stats.probes == len(refs) == 80
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()


class _ShardLog(EventSink):
    """Keeps ``(label, shard index, shard probes, record probes)`` per merge."""

    def __init__(self):
        self.seen = []

    def on_shard_merged(self, record, timing):
        self.seen.append((record.label, timing.index, timing.probes, record.probes))


class TestProgress:
    def test_progress_counts_and_timings(self, tiny_world):
        metrics = StudyMetrics()
        sink = _ShardLog()
        executor = ShardedExecutor(
            tiny_world, TracerouteEngine(tiny_world), workers=2,
            events=sink, tracer=metrics.tracer,
        )
        regions = tiny_world.region_names("amazon")[:2]
        targets = [p.network + 1 for p in tiny_world.sweep_slash24s[:10]]
        stats = executor.run(
            "amazon", "test", targets, lambda trace: None, regions=regions
        )
        assert stats.label == "test"
        assert stats.probes == len(targets) * len(regions)
        assert stats.expected_probes == stats.probes
        assert stats.completeness == pytest.approx(1.0)
        assert sum(stats.by_region.values()) == stats.probes
        assert set(stats.by_region) == set(regions)
        assert sum(probes for _, _, probes, _ in sink.seen) == stats.probes
        metrics.campaigns[stats.label] = stats
        assert metrics.campaign_summary("test").startswith(
            f"test: {stats.probes} probes in "
        )
        span, latencies = metrics.campaign_clock("test")
        assert span.duration > 0
        assert int(span.counter("workers")) == 2
        assert len(latencies) == len(sink.seen) == int(span.counter("shards"))
        assert max(latencies) >= sum(latencies) / len(latencies) > 0

    def test_callback_fires_per_shard(self, tiny_world):
        sink = _ShardLog()
        executor = ShardedExecutor(
            tiny_world, TracerouteEngine(tiny_world), events=sink
        )
        stats = executor.run(
            "amazon",
            "cb",
            [p.network + 1 for p in tiny_world.sweep_slash24s[:4]],
            lambda trace: None,
            regions=tiny_world.region_names("amazon")[:1],
        )
        indices = [index for _, index, _, _ in sink.seen]
        assert indices == sorted(indices) and indices
        assert {label for label, _, _, _ in sink.seen} == {"cb"}
        # The event carries the live record: its count grows shard by shard.
        running = [probes for _, _, _, probes in sink.seen]
        assert running == sorted(running)
        assert running[-1] == stats.probes

    def test_merges_carry_the_campaign_clock(self, tiny_world):
        clocks = []

        class _Clock(EventSink):
            def on_shard_merged(self, record, timing):
                clocks.append(timing.campaign_seconds)

        metrics = StudyMetrics()
        executor = ShardedExecutor(
            tiny_world, TracerouteEngine(tiny_world),
            events=_Clock(), tracer=metrics.tracer,
        )
        executor.run(
            "amazon",
            "clock",
            [p.network + 1 for p in tiny_world.sweep_slash24s[:4]],
            lambda trace: None,
            regions=tiny_world.region_names("amazon")[:2],
        )
        span, _latencies = metrics.campaign_clock("clock")
        assert len(clocks) == int(span.counter("shards")) >= 2
        assert clocks == sorted(clocks)
        assert 0 < clocks[0] and clocks[-1] <= span.duration


class TestStudyDeterminism:
    """§ acceptance: identical StudyResult for any worker count."""

    @pytest.fixture(scope="class")
    def results(self, small_world):
        out = {}
        for workers in (1, 2, 4):
            config = StudyConfig(
                seed=3,
                expansion_stride=8,
                run_vpi=False,
                run_crossval=False,
                workers=workers,
            )
            out[workers] = AmazonPeeringStudy(small_world, config).run()
        return out

    def test_census_tables_byte_identical(self, results):
        baseline = repr(results[1].table1)
        assert repr(results[2].table1) == baseline
        assert repr(results[4].table1) == baseline

    def test_campaign_stats_identical(self, results):
        for workers in (2, 4):
            assert results[workers].round1_stats == results[1].round1_stats
            assert results[workers].round2_stats == results[1].round2_stats

    def test_inference_outputs_identical(self, results):
        base = results[1]
        for workers in (2, 4):
            r = results[workers]
            assert r.abis == base.abis
            assert r.cbis == base.cbis
            assert r.final_segments == base.final_segments
            assert r.alias_sets == base.alias_sets
            assert sorted(r.segment_rtt_diff.items()) == sorted(
                base.segment_rtt_diff.items()
            )
            assert r.pinning.pinned == base.pinning.pinned
            assert r.peer_ases_round1 == base.peer_ases_round1
            assert r.peer_ases_round2 == base.peer_ases_round2

    def test_result_records_config_and_metrics(self, results):
        r = results[4]
        assert r.config.workers == 4
        assert r.config.run_vpi is False
        assert "round1" in r.metrics.stages
        assert r.metrics.campaigns["round1"] is r.round1_stats
        span, _ = r.metrics.campaign_clock("round1")
        assert int(span.counter("workers")) == 4


def test_pool_workers_die_on_sigterm(tiny_world):
    """A forked worker must not keep the parent's SIGTERM handler.

    Under the CLI's study supervisor it would survive ``pool.terminate()``
    and the pool's join at the end of every campaign could hang.
    """
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        executor_mod._init_worker(tiny_world, "amazon", 1, None, False)
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    finally:
        signal.signal(signal.SIGTERM, previous)
        executor_mod._WORKER_STATE = None
