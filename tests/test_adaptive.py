"""The adaptive resilience control plane, end to end (DESIGN.md 6.6).

Pins the tentpole contracts:

* adaptation **off** is the default and leaves no trace on the result;
* adaptation **on** under a clean plan is digest-identical to golden --
  the control plane is inert when nothing is sick;
* under a rate-limit-heavy plan, breakers engage, round 2 probes as
  many targets as the non-adaptive run, the recovery round heals, and
  completed-probe counts are **strictly higher** than the non-adaptive
  run under the same plan;
* a fixed ``(seed, fault plan)`` yields **one** adaptive digest across
  worker counts {1, 2, 4};
* quarantine losses heal through the breaker recovery path;
* stage-checkpoint resume restores governor state and replays the
  recovery stage digest-identically; the recovery record stores the
  breakers once, in its report, and a run resumed after it folds the
  same ``breaker_*`` counters;
* a run aborted before recovery resumes from the round-1 or round-2
  record -- recovery queue and round-2 seeds included -- to the
  uninterrupted run's digest and recovery report;
* recovery decodes each salt-0 baseline the merge deferred instead of
  tracing it again; only a governor restored from a record re-traces;
* the report's adaptive block, one fold of the healed round records,
  is pinned byte for byte -- still-lost probes and an exhausted retry
  budget included.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    AmazonPeeringStudy,
    FaultPlan,
    StudyConfig,
    StudyInterrupted,
    StudySupervisor,
    WorldConfig,
    build_world,
    render_report,
)
from repro.core import pipeline
from repro.core.stages import StageStore
from repro.measure.adapt import CAUSE_BREAKER, ProbeGovernor
from repro.measure.health import BreakerState, healthy
from repro.measure.traceroute import StopReason, TraceHop, Traceroute

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_study.json"

#: The canonical sick plan: heavy ICMP rate-limiting with a window
#: short enough (3 < the scamper gap limit of 5) to leave *interior*
#: silenced runs that fingerprint as rate-limiting rather than killing
#: the trace outright.
RL_PLAN = FaultPlan(seed=7, rate_limit_rate=0.3, rate_limit_window=3)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _config(golden, **overrides):
    base = golden["config"]
    return StudyConfig(
        seed=base["seed"],
        expansion_stride=base["expansion_stride"],
        run_vpi=base["run_vpi"],
        run_crossval=base["run_crossval"],
        **overrides,
    )


def _adaptive_config(golden, **overrides):
    return _config(
        golden,
        adaptive=True,
        breaker_threshold=2,
        recovery_rounds=2,
        **overrides,
    )


@pytest.fixture(scope="module")
def nonadaptive_rl(golden, tiny_world):
    return AmazonPeeringStudy(
        tiny_world, _config(golden, fault_plan=RL_PLAN)
    ).run()


@pytest.fixture(scope="module")
def adaptive_rl(golden, tiny_world):
    return AmazonPeeringStudy(
        tiny_world, _adaptive_config(golden, fault_plan=RL_PLAN)
    ).run()


# --- healthy: the failure fingerprint ----------------------------------


def _trace(ips, completed):
    hops = tuple(
        TraceHop(ttl=i + 1, ip=ip, rtt_ms=1.0 if ip else None)
        for i, ip in enumerate(ips)
    )
    reason = StopReason.COMPLETED if completed else StopReason.GAP_LIMIT
    return Traceroute("amazon", "use1", 99, hops, reason)


def test_health_counts_only_interior_silence():
    # 3-long silent run *resumed* by a responsive hop: fingerprinted,
    # wherever it starts.
    assert not healthy(_trace([1, None, None, None, 2], completed=True))
    assert not healthy(_trace([None, None, None, 2], completed=True))

    # The same silence as an unresumed tail: gap-limited, not sick.
    assert healthy(_trace([1, 2, None, None, None], completed=False))

    # Short interior gaps are ordinary loss, even several of them.
    assert healthy(_trace([1, None, 2, None, 3], completed=True))
    assert healthy(_trace([1, None, None, 2, None, None, 3], completed=True))


def test_healthy_ignores_completion():
    """A clean-but-incomplete trace must never look like region sickness."""
    silent_dst = _trace([1, 2, 3], completed=False)
    assert healthy(silent_dst)


# --- governor unit behavior --------------------------------------------


def test_governor_defers_behind_an_open_breaker():
    governor = ProbeGovernor(threshold=2)
    governor.begin_campaign("round1")
    sick = _trace([1, None, None, None, 2], completed=True)
    assert governor.admit(sick)  # streak 1
    assert governor.admit(sick)  # streak 2 -> opens
    breaker = governor.breaker("use1")
    assert breaker.state == BreakerState.OPEN
    assert not governor.admit(sick)  # deferred, not folded
    assert len(governor.pending) == 1
    assert governor.pending[0].cause == CAUSE_BREAKER
    assert governor.pending[0].label == "round1"
    assert breaker.outcomes == 2  # the deferral never folded
    assert [(b.cloud, b.region) for b in governor.breakers()] == [
        ("amazon", "use1")
    ]


def test_governor_state_dict_round_trip():
    governor = ProbeGovernor(threshold=2)
    governor.begin_campaign("round1")
    sick = _trace([1, None, None, None, 2], completed=True)
    for _ in range(3):
        governor.admit(sick)
    governor.note_quarantine("usw2", (7, 8, 9))
    state = governor.state_dict()

    fresh = ProbeGovernor(threshold=2)
    fresh.load_state(state)
    assert fresh.state_dict() == state
    assert fresh.breakers() == governor.breakers()
    assert fresh.pending == governor.pending
    # The restored breakers are the fresh governor's own copies.
    fresh.breaker("use1").record_quarantine(1)
    assert fresh.breakers() != governor.breakers()


# --- the end-to-end contracts ------------------------------------------


def test_adaptation_off_is_the_inert_default(nonadaptive_rl):
    assert nonadaptive_rl.resilience is None
    assert nonadaptive_rl.round1_stats.deferred_probes == 0
    assert nonadaptive_rl.round1_stats.recovered_probes == 0


def test_adaptive_clean_run_matches_golden(golden, tiny_world):
    """With nothing sick, the control plane must not move the digest."""
    result = AmazonPeeringStudy(tiny_world, _adaptive_config(golden)).run()
    assert result.digest() == golden["digest"]
    assert result.resilience is not None
    assert result.probe_account().deferred == 0
    assert result.resilience.breaker_events == ()


def test_breakers_engage_under_rate_limiting(adaptive_rl):
    report = adaptive_rl.resilience
    assert report is not None
    opens = sum(
        1 for e in report.breaker_events if e.to_state == BreakerState.OPEN
    )
    assert opens > 0, "the rate-limit plan never opened a breaker"
    account = adaptive_rl.probe_account()
    assert account.deferred > 0
    assert report.rounds_run == 2
    assert report.trial_probes > 0
    # Re-pacing never loses probes: every deferral was recovered.
    assert account.recovered == account.deferred
    assert account.still_lost == 0
    assert adaptive_rl.round1_stats.lost_probes == 0
    assert adaptive_rl.round2_stats.lost_probes == 0


def _assert_adaptive_beats_nonadaptive(nonadaptive, adaptive):
    """Round 2 expands around every round-1 CBI, deferred traces' too,
    so it probes exactly the non-adaptive run's targets, and recovery
    must then leave strictly more probes completed."""
    assert adaptive.round1_stats.deferred_probes > 0
    assert (
        adaptive.round2_stats.expected_probes
        == nonadaptive.round2_stats.expected_probes
    )
    base_completed = (
        nonadaptive.round1_stats.completed
        + nonadaptive.round2_stats.completed
    )
    adaptive_completed = (
        adaptive.round1_stats.completed + adaptive.round2_stats.completed
    )
    assert adaptive_completed > base_completed
    # ...and probe accounting balances: same expected totals per round.
    for attr in ("round1_stats", "round2_stats"):
        b, a = getattr(nonadaptive, attr), getattr(adaptive, attr)
        assert a.probes + a.lost_probes == b.probes + b.lost_probes


def test_adaptive_completeness_strictly_beats_nonadaptive(
    nonadaptive_rl, adaptive_rl
):
    _assert_adaptive_beats_nonadaptive(nonadaptive_rl, adaptive_rl)


def test_adaptive_completeness_strictly_beats_nonadaptive_at_plan_seed_3(
    golden, tiny_world
):
    """Plan seed 3 makes round 1 defer enough targets that a round 2
    planned from admitted traces alone would probe far fewer targets."""
    plan = RL_PLAN.replace(seed=3)
    _assert_adaptive_beats_nonadaptive(
        AmazonPeeringStudy(tiny_world, _config(golden, fault_plan=plan)).run(),
        AmazonPeeringStudy(
            tiny_world, _adaptive_config(golden, fault_plan=plan)
        ).run(),
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_adaptive_digest_stable_across_workers(
    golden, tiny_world, adaptive_rl, workers
):
    result = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(golden, fault_plan=RL_PLAN, workers=workers),
    ).run()
    assert result.digest() == adaptive_rl.digest()


def _poisoned_config(golden, **overrides):
    """Shard 0 of every campaign never succeeds and is quarantined."""
    return _adaptive_config(
        golden,
        fault_plan=FaultPlan(poison_shards=(0,)),
        max_retries=0,
        retry_backoff_s=0.0,
    ).replace(**overrides)


def _completeness_line(text, label):
    prefix = f"  {label}: completeness "
    return next(line for line in text.splitlines() if line.startswith(prefix))


INCOMPLETE = "WARNING: one or more campaigns are incomplete"


def test_quarantine_losses_heal_through_recovery(golden, tiny_world):
    result = AmazonPeeringStudy(tiny_world, _poisoned_config(golden)).run()
    assert result.resilience is not None
    account = result.probe_account()
    assert account.quarantined > 0
    assert account.still_lost == 0
    assert result.round1_stats.lost_probes == 0
    assert result.round1_stats.completeness == 1.0
    assert result.round2_stats.lost_probes == 0
    # The report reads the records recovery healed: both rounds are
    # whole again, though each had a shard quarantined.
    text = render_report(result)
    for label in ("round1", "round2"):
        line = _completeness_line(text, label)
        assert "completeness 100.0%" in line
        assert "1 quarantined shard(s)" in line
    # Recovery never re-probes the VPI campaigns: they keep their loss.
    vpi = [r for label, r in result.metrics.campaigns.items() if label.startswith("vpi:")]
    assert len(vpi) == 4
    for record in vpi:
        assert record.lost_probes > 0
        assert "completeness 100.0%" not in _completeness_line(text, record.label)
    assert INCOMPLETE in text


def test_quarantine_losses_heal_fully_without_vpi(golden, tiny_world):
    result = AmazonPeeringStudy(
        tiny_world, _poisoned_config(golden, run_vpi=False)
    ).run()
    assert result.metrics.total_quarantined == 2
    assert not result.metrics.degraded
    text = render_report(result)
    for label in ("round1", "round2"):
        assert "completeness 100.0%" in _completeness_line(text, label)
    assert INCOMPLETE not in text


def test_healed_quarantine_still_skips_stage_checkpoints(
    golden, tiny_world, tmp_path
):
    """No stage computed after a quarantine in this run is checkpointed.

    Recovery heals the probes, but not what the quarantine did to the
    run: the governor's ledger folded it into breaker state, and
    transport faults are outside the stage fingerprint, so a resume
    must recompute those stages rather than trust them.
    """
    checkpoint_dir = tmp_path / "ckpt"
    result = AmazonPeeringStudy(
        tiny_world,
        _poisoned_config(
            golden, run_vpi=False, checkpoint_dir=str(checkpoint_dir)
        ),
    ).run()
    assert result.round1_stats.completeness == 1.0
    assert not result.metrics.degraded
    saved = sorted(p.name for p in checkpoint_dir.glob("stage_*.json"))
    assert saved == ["stage_validate.json"]


def test_adaptive_resume_replays_recovery_stage(golden, tiny_world, tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    first = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(
            golden, fault_plan=RL_PLAN, checkpoint_dir=checkpoint_dir
        ),
    ).run()
    resumed = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(
            golden,
            fault_plan=RL_PLAN,
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ),
    ).run()
    assert resumed.digest() == first.digest()
    assert resumed.resilience is not None
    assert resumed.probe_account() == first.probe_account()
    assert resumed.resilience.breakers == first.resilience.breakers


class _BaselineSpy:
    """Logs the salt-0 traces recovery makes for breaker-deferred targets.

    Wraps the pipeline's ``run_recovery``: while it runs, the executor's
    engine logs each ``trace`` call, and each salt-0 call for a target
    the governor deferred behind a breaker is kept, with that target's
    campaign labels.
    """

    def __init__(self, monkeypatch) -> None:
        self.retraced = []
        self.fallbacks = 0
        real = pipeline.run_recovery

        def spying(governor, executor, *args, **kwargs):
            labels = {}
            for target in governor.pending:
                if target.cause == CAUSE_BREAKER:
                    labels.setdefault((target.region, target.dst), set()).add(
                        target.label
                    )
            engine = executor.engine

            def trace(cloud, region, dst, salt=0):
                if salt == 0 and (region, dst) in labels:
                    self.retraced.append(labels[region, dst])
                return type(engine).trace(engine, cloud, region, dst, salt)

            engine.trace = trace
            try:
                report = real(governor, executor, *args, **kwargs)
            finally:
                del engine.trace
            self.fallbacks += report.fallback_recovered
            return report

        monkeypatch.setattr(pipeline, "run_recovery", spying)


def test_recovery_decodes_every_deferred_baseline(
    golden, tiny_world, adaptive_rl, monkeypatch
):
    """An uninterrupted run traces no salt-0 baseline twice: recovery
    decodes the trace the merge deferred, and the digest is unchanged."""
    spy = _BaselineSpy(monkeypatch)
    result = AmazonPeeringStudy(
        tiny_world, _adaptive_config(golden, fault_plan=RL_PLAN)
    ).run()
    assert spy.fallbacks > 0  # the fallback path ran
    assert spy.retraced == []
    assert result.digest() == adaptive_rl.digest()


def _abort_and_resume(
    golden, tiny_world, adaptive_rl, checkpoint_dir, stage, monkeypatch
):
    """Abort an adaptive run after ``stage``; resume it on a fresh world
    and check it reproduces the uninterrupted run.  The resumed governor
    restores the queue of every round read from a record without its
    baselines, so recovery re-traces those targets -- and only those --
    at salt 0."""
    config = _adaptive_config(
        golden, fault_plan=RL_PLAN, checkpoint_dir=str(checkpoint_dir)
    )
    supervisor = StudySupervisor(abort_after_stage=stage)
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config, supervisor=supervisor).run()
    assert supervisor.stages_completed[-1] == stage

    fresh_world = build_world(
        WorldConfig(scale=golden["world"]["scale"], seed=golden["world"]["seed"])
    )
    spy = _BaselineSpy(monkeypatch)
    resumed = AmazonPeeringStudy(fresh_world, config.replace(resume=True)).run()
    restored = {"round1"} if stage == "round1" else {"round1", "round2"}
    assert spy.retraced
    assert all(labels & restored for labels in spy.retraced)
    resumed_stages = {
        r.name
        for r in resumed.metrics.tracer.records
        if r.category == "stage" and r.counter("resumed")
    }
    done = ("validate", "round1", "round2")
    assert resumed_stages == set(done[: done.index(stage) + 1])
    assert resumed.digest() == adaptive_rl.digest()
    assert resumed.resilience == adaptive_rl.resilience
    assert resumed.probe_account() == adaptive_rl.probe_account()


def test_adaptive_run_aborted_before_recovery_resumes_identically(
    golden, tiny_world, adaptive_rl, tmp_path, monkeypatch
):
    """Recovery on resume runs from the queue the round-2 record holds.

    Unlike a resume of a finished run, this one recomputes the recovery
    stage, so every deferred target (``baseline_completed`` included)
    is read back from disk before it is re-probed.
    """
    _abort_and_resume(
        golden, tiny_world, adaptive_rl, tmp_path / "ckpt", "round2",
        monkeypatch,
    )


def test_adaptive_run_aborted_after_round1_resumes_identically(
    golden, tiny_world, adaptive_rl, tmp_path, monkeypatch
):
    """Aborted after round 1, the resume plans round 2 from the round-1
    record: the CBIs of the traces round 1 deferred come from it, not
    from a re-run."""
    _abort_and_resume(
        golden, tiny_world, adaptive_rl, tmp_path / "ckpt", "round1",
        monkeypatch,
    )


def _study_counters(result, prefix):
    study = next(r for r in result.metrics.tracer.records if r.name == "study")
    return {name: value for name, value in study.counters if name.startswith(prefix)}


def test_adaptive_run_aborted_after_recovery_keeps_breaker_counters(
    golden, tiny_world, adaptive_rl, tmp_path, monkeypatch
):
    """The recovery record stores each breaker once, in its report: the
    governor stays out.  A run resumed after recovery restores the
    round-2 governor, so its study span folds the ``breaker_*`` counters
    from the report, and they equal the uninterrupted run's."""
    saved = {}
    original_save = StageStore.save

    def save(store, stage, fingerprint, payload):
        saved[stage] = set(payload)
        return original_save(store, stage, fingerprint, payload)

    monkeypatch.setattr(StageStore, "save", save)
    config = _adaptive_config(
        golden, fault_plan=RL_PLAN, checkpoint_dir=str(tmp_path / "ckpt")
    )
    supervisor = StudySupervisor(abort_after_stage="recovery")
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config, supervisor=supervisor).run()
    assert "governor" in saved["round2"]
    assert "governor" not in saved["recovery"]
    assert "resilience" in saved["recovery"]

    resumed = AmazonPeeringStudy(tiny_world, config.replace(resume=True)).run()
    assert resumed.digest() == adaptive_rl.digest()
    counters = _study_counters(resumed, "breaker_")
    assert counters == _study_counters(adaptive_rl, "breaker_")
    assert counters["breaker_opens"] > 0
    assert counters["breaker_closes"] > 0


def test_adaptive_study_span_counters(golden, tiny_world):
    result = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(golden, fault_plan=RL_PLAN, trace=True),
    ).run()
    study = next(
        r for r in result.metrics.tracer.records if r.name == "study"
    )
    counters = dict(study.counters)
    assert counters["breaker_opens"] > 0
    assert counters["governor_deferred"] > 0
    assert counters["recovered_probes"] == counters["governor_deferred"]
    assert counters["recovery_still_lost"] == 0
    recovery = [
        r for r in result.metrics.tracer.records if r.category == "recovery"
    ]
    assert [r.name for r in recovery] == ["recovery:1", "recovery:2"]


def test_report_renders_resilience_block(adaptive_rl, nonadaptive_rl):
    text = render_report(adaptive_rl)
    assert "adaptive control plane:" in text
    assert "round1 yield: completed" in text
    assert "breaker amazon/" in text
    base_text = render_report(nonadaptive_rl)
    assert "adaptive control plane:" not in base_text


# --- the adaptive block, pinned ------------------------------------------

#: The ``adaptive control plane:`` block ``adaptive_rl`` prints.
RL_BLOCK = (
    "  adaptive control plane:",
    "    deferred 25204 probe(s) behind open breakers; 0 probe(s) lost to quarantine",
    "    recovery: 2 round(s), 25204 recovered (12018 via salt-0 fallback), "
    "200 trial probe(s), 0 still lost",
    "    recovered by campaign: round1=12064, round2=13140",
    "    breaker amazon/ap-northeast-1: open (8/243 failed outcomes, "
    "6 rate-limit fingerprints; "
    "closed -> open@227 -> half-open@227 -> open@235 -> half-open@235 -> open@243)",
    "    breaker amazon/ap-northeast-2: open (10/290 failed outcomes, "
    "8 rate-limit fingerprints; "
    "closed -> open@274 -> half-open@274 -> open@282 -> half-open@282 -> open@290)",
    "    breaker amazon/ap-south-1: closed (9/292 failed outcomes, "
    "8 rate-limit fingerprints; "
    "closed -> open@276 -> half-open@276 -> open@284 -> half-open@284 -> closed@292)",
    "    breaker amazon/ap-southeast-1: closed (5/261 failed outcomes, "
    "5 rate-limit fingerprints; closed -> open@253 -> half-open@253 -> closed@261)",
    "    breaker amazon/ap-southeast-2: closed (7/255 failed outcomes, "
    "7 rate-limit fingerprints; closed -> open@247 -> half-open@247 -> closed@255)",
    "    breaker amazon/ca-central-1: closed (18/341 failed outcomes, "
    "18 rate-limit fingerprints; closed -> open@333 -> half-open@333 -> closed@341)",
    "    breaker amazon/eu-central-1: open (4/235 failed outcomes, "
    "2 rate-limit fingerprints; "
    "closed -> open@219 -> half-open@219 -> open@227 -> half-open@227 -> open@235)",
    "    breaker amazon/eu-west-1: closed (3/228 failed outcomes, 2 rate-limit fingerprints; "
    "closed -> open@212 -> half-open@212 -> open@220 -> half-open@220 -> closed@228)",
    "    breaker amazon/eu-west-2: closed (7/257 failed outcomes, 7 rate-limit fingerprints; "
    "closed -> open@249 -> half-open@249 -> closed@257)",
    "    breaker amazon/eu-west-3: open (8/256 failed outcomes, 6 rate-limit fingerprints; "
    "closed -> open@240 -> half-open@240 -> open@248 -> half-open@248 -> open@256)",
    "    breaker amazon/sa-east-1: open (4/224 failed outcomes, 2 rate-limit fingerprints; "
    "closed -> open@208 -> half-open@208 -> open@216 -> half-open@216 -> open@224)",
    "    breaker amazon/us-east-1: closed (16/334 failed outcomes, "
    "14 rate-limit fingerprints; "
    "closed -> open@318 -> half-open@318 -> open@326 -> half-open@326 -> closed@334)",
    "    breaker amazon/us-east-2: closed (3/221 failed outcomes, 3 rate-limit fingerprints; "
    "closed -> open@213 -> half-open@213 -> closed@221)",
    "    breaker amazon/us-west-1: open (19/317 failed outcomes, 16 rate-limit fingerprints; "
    "closed -> open@301 -> half-open@301 -> open@309 -> half-open@309 -> open@317)",
    "    breaker amazon/us-west-2: open (9/252 failed outcomes, 6 rate-limit fingerprints; "
    "closed -> open@236 -> half-open@236 -> open@244 -> half-open@244 -> open@252)",
)

#: The same block for :func:`_poisoned_budget_config`'s run: shards lost
#: to quarantine that stay lost, and breakers recovery never half-opens
#: because the retry budget ran out.
POISONED_BLOCK = (
    "  adaptive control plane:",
    "    deferred 23999 probe(s) behind open breakers; 1452 probe(s) lost to quarantine",
    "    recovery: 2 round(s), 24483 recovered (22556 via salt-0 fallback), "
    "8 trial probe(s), 968 still lost",
    "    recovered by campaign: round1=11781, round2=12702",
    "    breaker amazon/ap-northeast-1: closed (484/492 failed outcomes, "
    "0 rate-limit fingerprints; closed -> open@265 -> half-open@484 -> closed@492)",
    "    breaker amazon/ap-northeast-2: open (489/749 failed outcomes, "
    "5 rate-limit fingerprints; closed -> open@530)",
    "    breaker amazon/ap-south-1: open (489/749 failed outcomes, "
    "5 rate-limit fingerprints; closed -> open@530)",
    "    breaker amazon/ap-southeast-1: open (5/253 failed outcomes, "
    "5 rate-limit fingerprints; closed -> open@253)",
    "    breaker amazon/ap-southeast-2: open (7/247 failed outcomes, "
    "7 rate-limit fingerprints; closed -> open@247)",
    "    breaker amazon/ca-central-1: open (18/333 failed outcomes, "
    "18 rate-limit fingerprints; closed -> open@333)",
    "    breaker amazon/eu-central-1: open (2/219 failed outcomes, "
    "2 rate-limit fingerprints; closed -> open@219)",
    "    breaker amazon/eu-west-1: open (2/212 failed outcomes, 2 rate-limit fingerprints; "
    "closed -> open@212)",
    "    breaker amazon/eu-west-2: open (7/249 failed outcomes, 7 rate-limit fingerprints; "
    "closed -> open@249)",
    "    breaker amazon/eu-west-3: open (6/240 failed outcomes, 6 rate-limit fingerprints; "
    "closed -> open@240)",
    "    breaker amazon/sa-east-1: open (2/208 failed outcomes, 2 rate-limit fingerprints; "
    "closed -> open@208)",
    "    breaker amazon/us-east-1: open (14/318 failed outcomes, 14 rate-limit fingerprints; "
    "closed -> open@318)",
    "    breaker amazon/us-east-2: open (3/213 failed outcomes, 3 rate-limit fingerprints; "
    "closed -> open@213)",
    "    breaker amazon/us-west-1: open (16/301 failed outcomes, 16 rate-limit fingerprints; "
    "closed -> open@301)",
    "    breaker amazon/us-west-2: open (6/236 failed outcomes, 6 rate-limit fingerprints; "
    "closed -> open@236)",
)


def _adaptive_block(text):
    lines = text.splitlines()
    start = lines.index("  adaptive control plane:")
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        block.append(line)
    return tuple(block)


def _poisoned_budget_config():
    """Rate limits plus three poisoned shards per campaign, no shard
    retries, and a study-wide retry budget of one: recovery half-opens
    one breaker, finds the budget spent at every other, and leaves the
    quarantine-lost probes behind those breakers lost."""
    return StudyConfig(
        seed=11,
        expansion_stride=8,
        run_crossval=False,
        run_vpi=False,
        adaptive=True,
        breaker_threshold=2,
        recovery_rounds=2,
        max_retries=0,
        retry_backoff_s=0.0,
        retry_budget=1,
        fault_plan=FaultPlan(
            seed=7,
            rate_limit_rate=0.3,
            rate_limit_window=3,
            poison_shards=(0, 5, 9),
        ),
    )


def test_report_pins_the_adaptive_block(adaptive_rl):
    assert _adaptive_block(render_report(adaptive_rl)) == RL_BLOCK


def test_report_pins_the_adaptive_block_with_still_lost_probes(tiny_world):
    result = AmazonPeeringStudy(tiny_world, _poisoned_budget_config()).run()
    assert _adaptive_block(render_report(result)) == POISONED_BLOCK
    account = result.probe_account()
    assert account.still_lost == 968
    assert account.still_lost == (
        result.round1_stats.lost_probes + result.round2_stats.lost_probes
    )
    # The study span reads the same fold, and the breakers' events.
    study = next(r for r in result.metrics.tracer.records if r.name == "study")
    counters = dict(study.counters)
    assert {
        key: counters[key]
        for key in (
            "breaker_opens",
            "breaker_half_opens",
            "breaker_closes",
            "breaker_reopens",
            "governor_admitted",
            "governor_deferred",
            "governor_quarantined",
            "recovered_probes",
            "recovery_still_lost",
        )
    } == {
        "breaker_opens": 15,
        "breaker_half_opens": 1,
        "breaker_closes": 1,
        "breaker_reopens": 0,
        "governor_admitted": 3559,
        "governor_deferred": 23999,
        "governor_quarantined": 1452,
        "recovered_probes": 24483,
        "recovery_still_lost": 968,
    }
