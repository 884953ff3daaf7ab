"""Golden-snapshot regression test for the end-to-end study.

``tests/data/golden_study.json`` pins the sha256 content digest (census
counts, campaign yields, ABI/CBI sets, segments, alias sets, VPI
intersections -- see ``StudyResult.digest_inputs``) of a tiny-scale study.
Every run here must reproduce that digest bit-for-bit:

* a clean serial run (the reference),
* parallel runs at workers = 2 and 4,
* a run under an injected transport-fault plan with retries,
* a run degraded by a poisoned shard, then killed and ``--resume``-d
  from its checkpoint journal under a clean plan,
* runs under a fixed ``DataFaultPlan`` (dirty datasets), which must be
  digest-stable across worker counts and shuffled lookup order while
  differing from the clean digest.

The ``faulted`` keys pin the content of runs under observation faults
(rate-limit windows plus per-hop loss), once non-adaptive and once with
the adaptive control plane: no other test fixes *which* hops a fault
plan silences, so a rewrite of the fault schedule is checked here.

If an intentional change to the world model or inference shifts these
outputs, regenerate the snapshot (the ``world``/``config`` keys in the
JSON say exactly how to rebuild it) and account for the diff in review.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    AmazonPeeringStudy,
    DataFaultPlan,
    FaultPlan,
    StudyConfig,
    WorldConfig,
    build_world,
)
from repro.core.annotate import HopAnnotator

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_study.json"

#: the fixed dirty-dataset schedule the degradation tests run under.
DIRTY_PLAN = DataFaultPlan(
    seed=1,
    bgp_stale_rate=0.1,
    moas_rate=0.05,
    as2org_drop_rate=0.1,
    ixp_member_drop_rate=0.2,
    ixp_member_conflict_rate=0.1,
    whois_gap_rate=0.2,
    whois_nameonly_rate=0.3,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_world(golden, tiny_world):
    spec = golden["world"]
    # The session fixture is the same world; assert rather than rebuild.
    assert (tiny_world.config.scale, tiny_world.config.seed) == (
        spec["scale"],
        spec["seed"],
    ), "tiny_world fixture drifted from the golden snapshot spec"
    return tiny_world


def _config(golden, **overrides):
    base = golden["config"]
    return StudyConfig(
        seed=base["seed"],
        expansion_stride=base["expansion_stride"],
        run_vpi=base["run_vpi"],
        run_crossval=base["run_crossval"],
        **overrides,
    )


def test_snapshot_is_regenerable(golden):
    """The committed spec must rebuild the committed world."""
    world = build_world(
        WorldConfig(scale=golden["world"]["scale"], seed=golden["world"]["seed"])
    )
    assert len(world.client_ases) > 0


def test_serial_run_matches_golden(golden, golden_world):
    result = AmazonPeeringStudy(golden_world, _config(golden)).run()
    summary = golden["summary"]
    assert len(result.abis) == summary["abis"]
    assert len(result.cbis) == summary["cbis"]
    assert len(result.final_segments) == summary["segments"]
    assert len(result.alias_sets) == summary["alias_sets"]
    assert result.peer_ases_round2 == summary["peer_ases_round2"]
    assert result.round1_stats.probes == summary["round1_probes"]
    assert result.round2_stats.probes == summary["round2_probes"]
    assert result.vpi.pool_size == summary["vpi_pool_size"]
    assert result.vpi.amazon_cbis == summary["vpi_amazon_cbis"]
    assert result.digest() == golden["digest"]


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_run_matches_golden(golden, golden_world, workers):
    result = AmazonPeeringStudy(
        golden_world, _config(golden, workers=workers)
    ).run()
    assert result.digest() == golden["digest"]


def test_fault_injected_run_matches_golden(golden, golden_world):
    plan = FaultPlan(seed=5, crash_rate=0.3, crash_attempts=1,
                     slow_rate=0.1, slow_seconds=0.02)
    result = AmazonPeeringStudy(
        golden_world,
        _config(golden, workers=2, fault_plan=plan, retry_backoff_s=0.0),
    ).run()
    assert result.digest() == golden["digest"]
    assert result.metrics.total_failures > 0, "the fault plan never fired"
    assert result.metrics.total_quarantined == 0
    assert not result.metrics.degraded


def test_quarantined_then_resumed_run_matches_golden(
    golden, golden_world, tmp_path
):
    checkpoint_dir = str(tmp_path / "ckpt")
    # First run: shard 0 of every campaign is poisoned, so the study
    # degrades (lost probes, completeness < 1) but still completes --
    # journalling every healthy shard along the way.
    degraded = AmazonPeeringStudy(
        golden_world,
        _config(
            golden,
            fault_plan=FaultPlan(poison_shards=(0,)),
            max_retries=0,
            retry_backoff_s=0.0,
            checkpoint_dir=checkpoint_dir,
        ),
    ).run()
    assert degraded.metrics.degraded
    assert degraded.metrics.total_quarantined > 0
    assert degraded.round1_stats.lost_probes > 0
    assert degraded.round1_stats.completeness < 1.0
    assert degraded.digest() != golden["digest"]

    # Second run: same campaign identity, clean plan, --resume.  Healthy
    # shards replay from the journal; the quarantined shard (and any
    # campaign whose targets shifted in the degraded run) is re-probed.
    # The merged result must be bit-identical to the clean serial run.
    resumed = AmazonPeeringStudy(
        golden_world,
        _config(golden, checkpoint_dir=checkpoint_dir, resume=True),
    ).run()
    assert resumed.digest() == golden["digest"]
    assert resumed.metrics.total_resumed > 0
    assert not resumed.metrics.degraded
    assert resumed.round1_stats.lost_probes == 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_observation_faulted_run_matches_golden(golden, golden_world, adaptive):
    faulted = golden["faulted"]
    overrides = {"fault_plan": FaultPlan(**faulted["fault_plan"])}
    if adaptive:
        overrides.update(adaptive=True, **faulted["adaptive"])
    result = AmazonPeeringStudy(golden_world, _config(golden, **overrides)).run()
    expected = faulted["adaptive_digest" if adaptive else "digest"]
    assert result.digest() == expected


# --- annotation-cache sharing ------------------------------------------


@pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
def test_shared_annotators_match_private_annotators(golden, golden_world, dirty):
    """The shared cache is sound only if annotation never reads ``home_org``.

    Every interface is annotated by the round-2 annotator first, so each
    VPI annotator answers from an entry another home org filled.  A fresh
    ``HopAnnotator`` with a private cache and the same ``home_org`` is the
    reference, over clean and dirty datasets alike.
    """
    overrides = (
        {"data_fault_plan": DIRTY_PLAN, "min_confidence": 0.8} if dirty else {}
    )
    study = AmazonPeeringStudy(golden_world, _config(golden, **overrides))
    shared = [study.annotator_r2, *study.cloud_annotators.values()]
    private = [
        HopAnnotator(
            study.bgp_r2, study.whois, study.as2org, study.ixps,
            home_org=annotator.home_org,
        )
        for annotator in shared
    ]
    for ip in sorted(golden_world.interfaces):
        for annotator, reference in zip(shared, private):
            assert annotator.annotate(ip) == reference.annotate(ip), (
                ip, annotator.home_org,
            )


def test_traced_run_matches_golden(golden, golden_world):
    """Fine-grained tracing on a pooled run is digest-neutral."""
    result = AmazonPeeringStudy(
        golden_world, _config(golden, workers=2, trace=True)
    ).run()
    assert result.digest() == golden["digest"]
    assert result.metrics.tracer.records, "tracing recorded no spans"


def test_shared_cache_actually_shares(golden, golden_world):
    """The r2 and VPI annotators hold one cache object; r1 never does
    (it reads a different BGP snapshot, so sharing would be unsound)."""
    study = AmazonPeeringStudy(golden_world, _config(golden))
    r2_cache = study.annotator_r2._cache
    for annotator in study.cloud_annotators.values():
        assert annotator._cache is r2_cache
    assert study.annotator_r1._cache is not r2_cache


# --- dirty datasets ----------------------------------------------------


@pytest.fixture(scope="module")
def dirty_serial(golden, golden_world):
    """The reference dirty run: serial, fixed DataFaultPlan."""
    return AmazonPeeringStudy(
        golden_world,
        _config(golden, data_fault_plan=DIRTY_PLAN, min_confidence=0.8),
    ).run()


def test_dirty_run_diverges_from_clean_but_reports_quality(
    golden, dirty_serial
):
    """The plan must actually inject dirt, and the report must show it."""
    assert dirty_serial.digest() != golden["digest"]
    dq = dirty_serial.data_quality
    assert dq is not None
    assert dq.fault_plan == DIRTY_PLAN
    assert dq.validation is not None
    assert dq.total_disagreements > 0
    assert dq.mean_confidence < 1.0

    from repro import render_report

    report = render_report(dirty_serial)
    assert "data quality:" in report
    assert "disagreements" in report
    assert "flagged below min-confidence" in report


@pytest.mark.parametrize("workers", [2, 4])
def test_dirty_run_digest_stable_across_workers(
    golden, golden_world, dirty_serial, workers
):
    result = AmazonPeeringStudy(
        golden_world,
        _config(
            golden,
            workers=workers,
            data_fault_plan=DIRTY_PLAN,
            min_confidence=0.8,
        ),
    ).run()
    assert result.digest() == dirty_serial.digest()


def test_dirty_run_digest_stable_under_shuffled_lookup_order(
    golden, golden_world, dirty_serial
):
    """Pre-warming dataset caches in a shuffled order must change nothing.

    The dataset views draw per-key randomness, so the order lookups
    happen in (and therefore the order caches fill in) must not leak
    into any derived view or the final digest.
    """
    import random

    study = AmazonPeeringStudy(
        golden_world,
        _config(golden, data_fault_plan=DIRTY_PLAN, min_confidence=0.8),
    )
    ips = list(golden_world.interfaces)
    random.Random(99).shuffle(ips)
    for ip in ips:
        study.whois.lookup(ip)
        study.annotator_r1.annotate(ip)
    result = study.run()
    assert result.digest() == dirty_serial.digest()
