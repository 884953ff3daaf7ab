"""Fault injection and resilience: FaultPlan, retries, quarantine,
checkpoints -- and the determinism contract that ties them together.

The core guarantee under test: a campaign run with injected transport
faults (crashes, slow shards, timeouts) or a checkpoint kill/resume
produces the *same trace stream and stats* as a clean serial run, while
observation faults (probe loss, rate limiting) change trace content as a
pure function of the fault seed -- never of the execution schedule.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.fsutil import RECORD_FORMAT_VERSION, read_records
from repro.measure.campaign import round1_targets
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.executor import (
    RetryPolicy,
    ShardedExecutor,
    default_shard_size,
    plan_shards,
)
from repro.measure.faults import FaultPlan, InjectedWorkerCrash
from repro.measure.sink import EventSink
from repro.measure.traceroute import TracerouteEngine, unpack_traces


def _trace_key(trace):
    return (
        trace.cloud,
        trace.region,
        trace.dst,
        trace.stop_reason,
        tuple((h.ttl, h.ip, h.rtt_ms) for h in trace.hops),
    )


def _fingerprint(traces):
    return [_trace_key(t) for t in traces]


def _run(world, targets, regions, workers=1, faults=None, retry=None,
         shard_size=None, checkpoint_store=None, label="campaign",
         events=None):
    """Run one campaign, returning (ingested trace fingerprints, its record)."""
    executor = ShardedExecutor(
        world,
        TracerouteEngine(world, faults=faults),
        workers=workers,
        shard_size=shard_size,
        retry=retry or RetryPolicy(backoff_base_s=0.0),
        checkpoint_store=checkpoint_store,
        events=events,
    )
    traces = []
    stats = executor.run("amazon", label, targets, traces.append, regions=regions)
    return _fingerprint(traces), stats


class _ProbeLog(EventSink):
    """An observer that keeps every delivered trace, in order."""

    def __init__(self):
        self.traces = []

    def on_probe(self, trace):
        self.traces.append(trace)


#: Transport faults (crashes that a retry outlives) mixed with
#: observation faults (loss everywhere, rate-limit windows).
fault_plans = st.builds(
    lambda seed, crash, attempts, loss, rate_limit: FaultPlan(
        seed=seed,
        crash_rate=crash,
        crash_attempts=attempts,
        region_loss={"*": loss},
        rate_limit_rate=rate_limit,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=0.6),
    st.sampled_from((1, 2)),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.0, max_value=0.5),
)


def _journal_fingerprint(world, probe_space, faults):
    """The journal fingerprint of ``probe_space`` at shard size 4."""
    targets, regions = probe_space
    executor = ShardedExecutor(world, TracerouteEngine(world, faults=faults))
    return executor._fingerprint("amazon", regions, targets, 4)


def _shard_count(targets, regions):
    """Shards in a serial ``_run`` of ``regions x targets``."""
    return len(plan_shards(regions, targets, default_shard_size(len(targets), 1)))


@pytest.fixture(scope="module")
def probe_space(tiny_world):
    """A small but multi-shard campaign: 2 regions x 12 targets."""
    targets = round1_targets(tiny_world)[:12]
    regions = tiny_world.region_names("amazon")[:2]
    return targets, regions


# ----------------------------------------------------------------------
# FaultPlan: validation, parsing, and pure-function determinism.
# ----------------------------------------------------------------------


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.5},
            {"slow_rate": 2.0},
            {"rate_limit_rate": -1.0},
            {"crash_attempts": 0},
            {"slow_seconds": -0.5},
            {"rate_limit_window": 0},
            {"region_loss": {"use1": 1.5}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_same_fields_same_schedule(self):
        a = FaultPlan(seed=3, crash_rate=0.4, slow_rate=0.3, slow_seconds=0.1)
        b = FaultPlan(seed=3, crash_rate=0.4, slow_rate=0.3, slow_seconds=0.1)
        assert a == b
        for i in range(64):
            assert a.crash_failures(i) == b.crash_failures(i)
            assert a.slow_delay(i) == b.slow_delay(i)

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=0, crash_rate=0.5)
        b = FaultPlan(seed=1, crash_rate=0.5)
        assert [a.crash_failures(i) for i in range(64)] != [
            b.crash_failures(i) for i in range(64)
        ]

    def test_crash_rate_one_crashes_everything(self):
        plan = FaultPlan(crash_rate=1.0, crash_attempts=2)
        for i in range(16):
            assert plan.crash_failures(i) == 2
            assert plan.should_crash(i, attempt=0)
            assert plan.should_crash(i, attempt=1)
            assert not plan.should_crash(i, attempt=2)
        with pytest.raises(InjectedWorkerCrash):
            plan.raise_if_crashed(0, attempt=0)
        plan.raise_if_crashed(0, attempt=2)  # survives after the failures

    def test_poison_fails_forever(self):
        plan = FaultPlan(poison_shards=(5,))
        assert plan.crash_failures(5) == -1
        for attempt in (0, 1, 10, 1000):
            assert plan.should_crash(5, attempt)
        assert plan.crash_failures(4) == 0

    def test_hop_suppressed_is_pure(self):
        plan = FaultPlan(seed=9, region_loss={"use1": 0.5}, rate_limit_rate=0.3)
        twin = FaultPlan(seed=9, region_loss={"use1": 0.5}, rate_limit_rate=0.3)
        for dst in range(40):
            for ttl in range(1, 10):
                assert plan.hop_suppressed("amazon", "use1", dst, ttl) == \
                    twin.hop_suppressed("amazon", "use1", dst, ttl)

    def test_region_loss_wildcard(self):
        plan = FaultPlan(seed=2, region_loss={"*": 1.0})
        assert plan.hop_suppressed("amazon", "anywhere", 42, 3)
        scoped = FaultPlan(seed=2, region_loss={"use1": 1.0})
        assert scoped.hop_suppressed("amazon", "use1", 42, 3)
        assert not scoped.hop_suppressed("amazon", "euw1", 42, 3)

    def test_affects_flags_and_signature(self):
        transport = FaultPlan(crash_rate=0.5, slow_rate=0.2, slow_seconds=1.0,
                              poison_shards=(1,))
        assert not transport.affects_probes
        assert transport.probe_signature() == "clean"
        observation = FaultPlan(region_loss={"use1": 0.1})
        assert observation.affects_probes
        assert observation.probe_signature() != "clean"
        # Transport knobs never leak into the observation signature.
        assert observation.probe_signature() == \
            observation.replace(crash_rate=0.9).probe_signature()
        # ... but observation knobs (and the seed) do change it.
        assert observation.probe_signature() != \
            observation.replace(seed=1).probe_signature()

    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash=0.25,crash-attempts=2,slow=0.1,slow-seconds=0.5,"
            "loss=use1:0.05;euw1:0.1,rate-limit=0.2,window=4,"
            "poison=3;7,seed=1"
        )
        assert plan == FaultPlan(
            seed=1,
            crash_rate=0.25,
            crash_attempts=2,
            slow_rate=0.1,
            slow_seconds=0.5,
            region_loss={"use1": 0.05, "euw1": 0.1},
            rate_limit_rate=0.2,
            rate_limit_window=4,
            poison_shards=(3, 7),
        )

    def test_parse_bare_loss_is_wildcard(self):
        assert FaultPlan.parse("loss=0.2").region_loss == {"*": 0.2}

    def test_parse_empty_and_errors(self):
        assert FaultPlan.parse("") == FaultPlan()
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")

    def test_describe_mentions_active_faults(self):
        text = FaultPlan(crash_rate=0.25, region_loss={"use1": 0.1}).describe()
        assert "crash=0.25" in text and "use1:0.1" in text

    def test_parse_inline_rate_limit_window(self):
        # `0.2w5` is the describe() form: rate and window in one token.
        # It used to raise (float("0.2w5")); parsing it while dropping
        # the suffix would silently run window=3 -- both are wrong.
        plan = FaultPlan.parse("rate-limit=0.2w5")
        assert plan.rate_limit_rate == 0.2
        assert plan.rate_limit_window == 5

    def test_spec_plan_spec_round_trip_every_field(self):
        # One plan with every field off its default.
        plan = FaultPlan(
            seed=9,
            crash_rate=0.25,
            crash_attempts=2,
            slow_rate=0.1,
            slow_seconds=0.5,
            poison_shards=(3, 7),
            region_loss={"use1": 0.05, "*": 0.01},
            rate_limit_rate=0.2,
            rate_limit_window=5,
        )
        spec = plan.to_spec()
        reparsed = FaultPlan.parse(spec)
        assert reparsed == plan
        # spec -> plan -> spec is a fixed point (canonical form).
        assert reparsed.to_spec() == spec
        # The human-oriented describe() form must parse too: window
        # rides inline on the rate-limit token there.
        rate_part = next(
            part
            for part in plan.describe().strip("FaultPlan()").split(", ")
            if part.startswith("rate-limit=")
        )
        assert rate_part == "rate-limit=0.2w5"
        via_describe = FaultPlan.parse(rate_part)
        assert via_describe.rate_limit_rate == plan.rate_limit_rate
        assert via_describe.rate_limit_window == plan.rate_limit_window


def _within_4_sigma(hits, n, p):
    """Whether ``hits`` of ``n`` Bernoulli(p) trials lie within 4 sigma."""
    return abs(hits / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


class TestFaultDraw:
    """The keyed draw behind every fault decision, ``FaultPlan._u``.

    Every plan here has a fixed seed, so each check is deterministic:
    the 4-sigma bounds say how far a fair draw could stray, not how
    often a run may fail.
    """

    KEYS = (
        ("loss", "amazon", "us-east-1", 167772161, 5),
        ("rlimit", "amazon", "eu-west-1", 3232235777),
        ("crash", 17),
    )

    def test_draw_is_pinned(self):
        assert FaultPlan(seed=1)._u(*self.KEYS[0]) == 0.019138596530621443

    def test_draw_does_not_depend_on_the_process(self):
        plan = FaultPlan(seed=1)
        want = repr([plan._u(*key) for key in self.KEYS])
        script = (
            "from repro.measure.faults import FaultPlan\n"
            f"print(repr([FaultPlan(seed=1)._u(*key) for key in {self.KEYS!r}]))"
        )
        src = str(Path(repro.__file__).parents[1])
        for hashseed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src}
            got = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.strip()
            assert got == want, f"PYTHONHASHSEED={hashseed}"

    def test_decisions_keep_their_rates(self):
        plan = FaultPlan(seed=7, rate_limit_rate=0.3, region_loss={"*": 0.02})
        dsts = range(167772160, 167772160 + 20_000)
        windows = [plan.rate_limited_ttls("amazon", "us-east-1", d) for d in dsts]
        limited = [w for w in windows if w]
        assert _within_4_sigma(len(limited), len(windows), 0.3)
        for start in range(2, 10):
            opened = sum(1 for w in limited if w.start == start)
            assert _within_4_sigma(opened, len(limited), 1 / 8), start
        assert {len(w) for w in limited} == {plan.rate_limit_window}
        # One hop per destination, outside its window: only loss silences it.
        hops = [
            (d, 1 + d % 12, w) for d, w in zip(dsts, windows)
            if 1 + d % 12 not in w
        ]
        lost = sum(
            plan.hop_suppressed("amazon", "us-east-1", d, ttl, window=w)
            for d, ttl, w in hops
        )
        assert _within_4_sigma(lost, len(hops), 0.02)

    def test_crashes_keep_their_rate(self):
        plan = FaultPlan(seed=7, crash_rate=0.25)
        crashed = sum(1 for i in range(20_000) if plan.crash_failures(i))
        assert _within_4_sigma(crashed, 20_000, plan.crash_rate)

    def test_salt_zero_is_the_unsalted_draw(self):
        plan = FaultPlan(seed=7, rate_limit_rate=0.3, region_loss={"*": 0.3})
        dsts = range(167772160, 167772160 + 200)

        def schedule(**salt):
            return [
                (
                    plan.rate_limited_ttls("amazon", "us-east-1", d, **salt),
                    plan.hop_suppressed("amazon", "us-east-1", d, 1, **salt),
                )
                for d in dsts
            ]

        assert schedule(salt=0) == schedule()
        assert schedule(salt=1) != schedule()


# ----------------------------------------------------------------------
# Observation faults on the engine: deterministic, seed-keyed content.
# ----------------------------------------------------------------------


class TestEngineObservationFaults:
    def test_transport_only_plan_leaves_traces_untouched(self, tiny_world, probe_space):
        targets, regions = probe_space
        clean, _ = _run(tiny_world, targets, regions)
        crashy_engine = TracerouteEngine(
            tiny_world, faults=FaultPlan(crash_rate=0.9, slow_rate=0.5,
                                         slow_seconds=0.1)
        )
        assert crashy_engine._probe_faults is None
        got = [_trace_key(crashy_engine.trace("amazon", regions[0], t))
               for t in targets]
        want = [k for k in clean if k[1] == regions[0]]
        assert got == want

    def test_full_loss_silences_a_region(self, tiny_world, probe_space):
        targets, regions = probe_space
        lossy = TracerouteEngine(
            tiny_world, faults=FaultPlan(region_loss={regions[0]: 1.0})
        )
        for t in targets:
            assert not lossy.trace("amazon", regions[0], t).responsive_ips

    def test_observation_faults_deterministic_and_different(
        self, tiny_world, probe_space
    ):
        targets, regions = probe_space
        plan = FaultPlan(seed=4, region_loss={"*": 0.3}, rate_limit_rate=0.2)
        clean, _ = _run(tiny_world, targets, regions)
        once, _ = _run(tiny_world, targets, regions, faults=plan)
        again, _ = _run(tiny_world, targets, regions, faults=plan, workers=2)
        assert once == again  # pure function of the fault seed
        assert once != clean  # ... that actually changes what probes see


# ----------------------------------------------------------------------
# Executor resilience: retry, timeout, quarantine -- results unchanged.
# ----------------------------------------------------------------------


class TestExecutorResilience:
    def test_crash_retry_matches_clean_run(self, tiny_world, probe_space):
        targets, regions = probe_space
        clean_traces, clean_stats = _run(tiny_world, targets, regions)
        plan = FaultPlan(seed=5, crash_rate=0.5, crash_attempts=1)
        for workers in (1, 2):
            traces, stats = _run(
                tiny_world, targets, regions, workers=workers, faults=plan,
            )
            assert traces == clean_traces
            assert stats == clean_stats
            assert stats.failures, "the crash plan never fired"
            assert not stats.quarantined
            assert stats.completeness == 1.0

    # The worker pool takes a while to start, hence no deadline.
    @settings(max_examples=20, deadline=None)
    @example(workers=2, plan=FaultPlan(seed=5, crash_rate=0.5, crash_attempts=1))
    @given(workers=st.sampled_from((1, 2)), plan=fault_plans)
    def test_delivered_stream_does_not_depend_on_the_schedule(
        self, tiny_world, probe_space, workers, plan
    ):
        """Whatever crashes and retries a plan causes, ``ingest`` and the
        observer see the stream, and the campaign keeps the record, of a
        serial run of the same plan without crashes."""
        targets, regions = probe_space
        reference, reference_stats = _run(
            tiny_world, targets, regions, faults=plan.replace(crash_rate=0.0)
        )
        observer = _ProbeLog()
        traces, stats = _run(
            tiny_world, targets, regions, workers=workers, faults=plan,
            events=observer,
        )
        assert traces == reference
        assert _fingerprint(observer.traces) == reference
        assert stats == reference_stats
        assert not stats.quarantined

    def test_timeout_retries_inline_and_matches_clean(
        self, tiny_world, probe_space
    ):
        targets, regions = probe_space
        targets = targets[:6]
        regions = regions[:1]
        clean_traces, clean_stats = _run(
            tiny_world, targets, regions, shard_size=3
        )
        traces, stats = _run(
            tiny_world, targets, regions, workers=2, shard_size=3,
            faults=FaultPlan(slow_rate=1.0, slow_seconds=0.25),
            retry=RetryPolicy(shard_timeout=0.05, max_retries=3,
                              backoff_base_s=0.0),
        )
        assert traces == clean_traces
        assert stats == clean_stats
        assert stats.failures.get("timeout", 0) > 0

    def test_poisoned_shard_is_quarantined(self, tiny_world, probe_space):
        targets, regions = probe_space
        shard_size = 6
        shards = plan_shards(regions, targets, shard_size)
        poisoned = shards[1]
        traces, stats = _run(
            tiny_world, targets, regions, shard_size=shard_size,
            faults=FaultPlan(poison_shards=(poisoned.index,)),
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
        )
        clean_traces, _ = _run(
            tiny_world, targets, regions, shard_size=shard_size
        )
        lost = {(poisoned.region, dst) for dst in poisoned.targets}
        assert traces == [k for k in clean_traces if (k[1], k[2]) not in lost]
        assert stats.lost_probes == len(poisoned.targets)
        assert stats.quarantined_shards == 1
        assert stats.completeness == pytest.approx(
            (len(clean_traces) - len(lost)) / len(clean_traces)
        )
        assert list(stats.quarantined) == [poisoned.index]
        region, probes, error = stats.quarantined[poisoned.index]
        assert (region, probes) == (poisoned.region, len(poisoned.targets))
        assert error
        assert stats.failed_attempts == 2  # first attempt + one retry
        assert stats.retries == 1
        assert stats.completeness < 1.0

    def test_no_backoff_sleep_on_quarantine_paths(
        self, tiny_world, probe_space, monkeypatch
    ):
        """Backoff may only run when a retry definitely remains.

        Both quarantine exits (retries exhausted, study retry budget
        spent) return before the backoff sleep; with a poisoned shard,
        max_retries=0, and a huge backoff base, any sleep at all is the
        regression.
        """
        import repro.measure.executor as executor_mod

        sleeps: list = []
        monkeypatch.setattr(
            executor_mod.time, "sleep", lambda s: sleeps.append(s)
        )
        targets, regions = probe_space
        shards = plan_shards(regions, targets, 6)
        _, stats = _run(
            tiny_world, targets, regions, shard_size=6,
            faults=FaultPlan(poison_shards=(shards[0].index,)),
            retry=RetryPolicy(max_retries=0, backoff_base_s=60.0),
        )
        assert stats.quarantined_shards == 1
        assert sleeps == []

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        delays = [policy.backoff_seconds(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # doubles, then caps
        assert RetryPolicy(backoff_base_s=0.0).backoff_seconds(3) == 0.0


# ----------------------------------------------------------------------
# Checkpoint/resume: journal, fingerprint, and the kill/resume identity.
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_full_resume_replays_every_shard(
        self, tiny_world, probe_space, tmp_path
    ):
        targets, regions = probe_space
        first, first_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        second, second_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
        )
        assert second == first
        assert second_stats == first_stats
        assert second_stats.resumed_shards == _shard_count(targets, regions)

    def test_killed_midway_then_resumed_matches_clean(
        self, tiny_world, probe_space, tmp_path
    ):
        targets, regions = probe_space
        clean, clean_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        # Simulate the driver dying mid-campaign: keep the journal header
        # plus the first three completed shards, drop the rest.
        journal = tmp_path / "campaign.jsonl"
        lines = journal.read_text().splitlines()
        keep = 3
        journal.write_text("\n".join(lines[: 1 + keep]) + "\n")
        resumed, resumed_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
        )
        assert resumed == clean
        assert resumed_stats == clean_stats
        assert resumed_stats.resumed_shards == keep

    def test_pooled_journal_replays_serially(self, tiny_world, tmp_path):
        """Rows journalled from worker output replay in a serial run: the
        same traces and the same campaign record as the pooled run, and
        as a serial run that never packed a trace."""
        # Targets whose traces leave the cloud, so the journalled
        # ``left_cloud`` flags are not all False.
        targets = round1_targets(tiny_world)[200:212]
        regions = tiny_world.region_names("amazon")[:2]
        unpacked, unpacked_stats = _run(tiny_world, targets, regions, shard_size=4)
        assert unpacked_stats.left_cloud > 0
        pooled, pooled_stats = _run(
            tiny_world, targets, regions, workers=2, shard_size=4,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        serial, serial_stats = _run(
            tiny_world, targets, regions, shard_size=4,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
        )
        assert pooled == serial == unpacked
        assert pooled_stats == serial_stats == unpacked_stats
        assert serial_stats.resumed_shards == len(plan_shards(regions, targets, 4))

    def test_torn_final_line_is_dropped(self, tiny_world, probe_space, tmp_path):
        targets, regions = probe_space
        _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        journal = tmp_path / "campaign.jsonl"
        with open(journal, "a") as fh:
            fh.write('{"shard": 99, "packed": [99, "u')  # died mid-write
        resumed, resumed_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
        )
        clean, _ = _run(tiny_world, targets, regions)
        assert resumed == clean
        assert resumed_stats.resumed_shards == _shard_count(targets, regions)

    def test_appends_after_a_torn_tail_survive(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = CampaignCheckpoint(path, fingerprint="f")
        first.put(0, [0, "use1", 0.1, []])
        first.put(1, [1, "use1", 0.1, []])
        with open(path, "a") as fh:
            fh.write('{"shard": 2, "packed": [2, "u')  # killed mid-write
        # The resumed run journals shards 2 and 3, then is hard-killed
        # again before finalize().
        second = CampaignCheckpoint(path, fingerprint="f")
        second.put(2, [2, "use1", 0.1, []])
        second.put(3, [3, "use1", 0.1, []])
        reopened = CampaignCheckpoint(path, fingerprint="f")
        assert [reopened.has(i) for i in range(4)] == [True] * 4

    def test_fingerprint_mismatch_discards_journal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        old = CampaignCheckpoint(path, fingerprint="aaaa")
        old.put(0, [0, "use1", 0.1, []])
        reloaded = CampaignCheckpoint(path, fingerprint="bbbb")
        assert reloaded.stale
        assert reloaded.completed_shards == 0
        # The discarded journal is replaced by a fresh one for "bbbb".
        header = json.loads(path.read_text().splitlines()[0])
        assert header["fingerprint"] == "bbbb"

        # A journal written under the previous format version is
        # discarded too, under the same fingerprint: its rows held
        # another shape.
        header["version"] = RECORD_FORMAT_VERSION - 1
        row = {"shard": 0, "packed": [0, "use1", 0.1, []]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        older = CampaignCheckpoint(path, fingerprint="bbbb")
        assert older.stale
        assert older.completed_shards == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == RECORD_FORMAT_VERSION

    def test_resume_false_starts_over(self, tmp_path):
        path = tmp_path / "c.jsonl"
        old = CampaignCheckpoint(path, fingerprint="aaaa")
        old.put(0, [0, "use1", 0.1, []])
        fresh = CampaignCheckpoint(path, fingerprint="aaaa", resume=False)
        assert fresh.completed_shards == 0

    def test_put_is_idempotent(self, tmp_path):
        cp = CampaignCheckpoint(tmp_path / "c.jsonl", fingerprint="f")
        cp.put(0, [0, "use1", 0.1, []])
        cp.put(0, [0, "use1", 9.9, []])  # ignored: shard already journalled
        assert cp.get(0)[2] == 0.1
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 2

    def test_fingerprint_ignores_transport_but_not_observation_faults(
        self, tiny_world, probe_space
    ):
        clean = _journal_fingerprint(tiny_world, probe_space, None)
        assert _journal_fingerprint(
            tiny_world, probe_space, FaultPlan(crash_rate=0.5, poison_shards=(1,))
        ) == clean
        assert _journal_fingerprint(
            tiny_world, probe_space, FaultPlan(region_loss={"*": 0.1})
        ) != clean

    def test_fingerprint_is_pinned(self, tiny_world, probe_space):
        """Journals on disk stay valid only while this hash never moves.

        A reordered or extended fingerprint tuple would silently orphan
        every checkpoint journal written before the change.
        """
        assert probe_space[1] == ["ap-northeast-1", "ap-northeast-2"]
        assert _journal_fingerprint(tiny_world, probe_space, None) == (
            "19c1ad7833ef9f40b2d311b41068db53700d63bc7c107fd310d1be0b2bec4860"
        )
        assert _journal_fingerprint(
            tiny_world, probe_space, FaultPlan(seed=2, region_loss={"*": 0.1})
        ) == "03ff784695f45b016520aeb7afddc2ba10e0125e1323bf96b57231c07a7c2b06"

    @pytest.mark.parametrize(
        "faults, expected",
        [
            (None, "a6306eebec89b184c0236f2c86a925a52a3aae41d8ad0441eec6283e40a36ef3"),
            (
                FaultPlan(seed=2, region_loss={"*": 0.1}),
                "e0cc349099daeba48daa2d3fa8edbd6fb3c7a1d92c3f3f7cb1a686bc157408dc",
            ),
        ],
    )
    def test_journal_rows_are_pinned(
        self, tiny_world, probe_space, tmp_path, faults, expected
    ):
        """A resumed run replays journalled rows as traces, so their
        content is pinned too: a change to the hop type or the wire tuple
        that moved it would replay journals on disk as traces a fresh run
        no longer produces, under the same fingerprint."""
        targets, regions = probe_space
        _run(
            tiny_world, targets, regions, faults=faults, shard_size=4,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        records = read_records(
            tmp_path / "campaign.jsonl",
            _journal_fingerprint(tiny_world, probe_space, faults),
        )
        # Element 2 of a packed shard is its wall-clock seconds.  Element 3
        # is the shard's packed traces, base64-encoded; each is decoded
        # into the tuple layout rows had before they were packed, so the
        # pins cover content, not encoding.
        content = [
            (
                r["shard"],
                r["packed"][0],
                r["packed"][1],
                [
                    (
                        trace.dst,
                        trace.stop_reason,
                        tuple((h.ttl, h.ip, h.rtt_ms) for h in trace.hops),
                        left,
                    )
                    for trace, left in unpack_traces(
                        base64.b64decode(r["packed"][3]), "amazon", r["packed"][1]
                    )
                ],
            )
            for r in records
        ]
        assert len(content) == len(plan_shards(regions, targets, 4))
        digest = hashlib.sha256(
            json.dumps(content, separators=(",", ":")).encode()
        ).hexdigest()
        assert digest == expected

    def test_store_sanitizes_labels(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cp = store.campaign("vpi:google", "f")
        assert cp.path.name == "vpi_google.jsonl"
