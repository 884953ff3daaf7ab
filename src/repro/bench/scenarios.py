"""The parameterized bench scenarios and their runner.

Every scenario builds the seeded synthetic world fresh (construction is
part of what it measures), runs its workload, and folds the outcome into
a :class:`~repro.bench.report.BenchReport`:

* ``annotate`` -- the annotation/LPM microbench: a differential
  longest-prefix-match sweep (indexed vs. the retained naive oracle,
  answers asserted equal) over every interface address, then a cold and
  a warm annotation pass.  Its counters prove the index does strictly
  less work for identical answers.
* ``study`` / ``study-workers{2,4}`` -- the full end-to-end study,
  serial and on a worker pool (digest must match the serial run).
* ``study-faulty`` -- the study under an injected transport-fault plan
  with retries (digest must still match the clean study).
* ``study-dirty`` -- the study over degraded datasets (its *own*
  digest, stable run-to-run, different from the clean one).
* ``adaptive`` -- the clean study with the adaptive resilience control
  plane armed: the baseline pins its governor/breaker counters at zero
  and its digest to the clean study's, so arming adaptation on a
  healthy fabric provably changes nothing.

Workload counters and digests are deterministic functions of
``(scenario, params)``; only the ``timings`` section varies between
runs of the same build.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import astuple, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.report import BenchReport
from repro.core.annotate import (
    AnnotationCache,
    AnnotationInternPool,
    HopAnnotator,
)
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.datasets import (
    as2org_from_world,
    ixp_directory_from_world,
    peeringdb_from_world,
    snapshot_from_world,
)
from repro.datasets.datafaults import DataFaultPlan
from repro.datasets.whois import WhoisRegistry
from repro.measure.faults import FaultPlan
from repro.obs.analyze import self_time_by_family
from repro.world.build import WorldConfig, build_world
from repro.world.model import World


@dataclass(frozen=True)
class BenchParams:
    """Knobs shared by every scenario (the scenario adds the rest)."""

    scale: float = 0.02
    seed: int = 7
    expansion_stride: int = 8
    run_crossval: bool = False
    run_vpi: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "expansion_stride": self.expansion_stride,
            "run_crossval": self.run_crossval,
            "run_vpi": self.run_vpi,
        }


@dataclass(frozen=True)
class BenchScenario:
    """One named workload shape."""

    name: str
    description: str
    kind: str = "study"  # "study" | "annotate"
    workers: int = 1
    #: ``FaultPlan.parse`` spec for injected transport/observation faults.
    fault_plan: Optional[str] = None
    #: ``DataFaultPlan.parse`` spec for degraded dataset views.
    data_fault_plan: Optional[str] = None
    #: arm the adaptive resilience control plane (DESIGN.md 6.6).
    adaptive: bool = False


_FAULTY_SPEC = "crash=0.25,crash-attempts=1,slow=0.05,slow-seconds=0.01,seed=5"
_DIRTY_SPEC = (
    "bgp-stale=0.1,moas=0.05,as2org-drop=0.1,ixp-drop=0.2,"
    "ixp-conflict=0.1,whois-gap=0.2,whois-nameonly=0.3,seed=1"
)

#: Registry, in canonical run order.
SCENARIOS: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            "annotate",
            "annotation/LPM microbench: differential indexed-vs-naive "
            "LPM sweep plus cold and warm annotation passes",
            kind="annotate",
        ),
        BenchScenario("study", "clean serial end-to-end study"),
        BenchScenario(
            "study-workers2", "end-to-end study on 2 workers", workers=2
        ),
        BenchScenario(
            "study-workers4", "end-to-end study on 4 workers", workers=4
        ),
        BenchScenario(
            "study-faulty",
            "study under injected worker crashes and slowdowns (retries "
            "must reconverge on the clean digest)",
            workers=2,
            fault_plan=_FAULTY_SPEC,
        ),
        BenchScenario(
            "study-dirty",
            "study over degraded dataset views (dirty BGP/WHOIS/as2org/"
            "IXP); digest differs from clean but is stable run-to-run",
            data_fault_plan=_DIRTY_SPEC,
        ),
        BenchScenario(
            "adaptive",
            "clean study with the adaptive control plane armed: breakers "
            "must stay closed, the governor must defer nothing, and the "
            "digest must match the clean serial study",
            adaptive=True,
        ),
    )
}


def run_scenario(
    name: str, params: Optional[BenchParams] = None
) -> BenchReport:
    """Run one scenario and fold its results into a report."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown bench scenario {name!r} "
            f"(known: {', '.join(SCENARIOS)})"
        )
    params = params if params is not None else BenchParams()
    if scenario.kind == "annotate":
        return _run_annotate(scenario, params)
    return _run_study(scenario, params)


# ----------------------------------------------------------------------


def _build_world(params: BenchParams) -> Tuple[World, float]:
    t0 = time.perf_counter()
    world = build_world(WorldConfig(scale=params.scale, seed=params.seed))
    return world, time.perf_counter() - t0


def _scenario_params(
    scenario: BenchScenario, params: BenchParams
) -> Dict[str, Any]:
    merged = params.as_dict()
    merged["workers"] = scenario.workers
    merged["fault_plan"] = scenario.fault_plan
    merged["data_fault_plan"] = scenario.data_fault_plan
    merged["adaptive"] = scenario.adaptive
    return merged


def _run_study(scenario: BenchScenario, params: BenchParams) -> BenchReport:
    t0 = time.perf_counter()
    world, build_seconds = _build_world(params)
    config = StudyConfig(
        scale=params.scale,
        seed=params.seed,
        expansion_stride=params.expansion_stride,
        run_crossval=params.run_crossval,
        run_vpi=params.run_vpi,
        workers=scenario.workers,
        fault_plan=(
            FaultPlan.parse(scenario.fault_plan)
            if scenario.fault_plan
            else None
        ),
        data_fault_plan=(
            DataFaultPlan.parse(scenario.data_fault_plan)
            if scenario.data_fault_plan
            else None
        ),
        retry_backoff_s=0.0,
        adaptive=scenario.adaptive,
    )
    study = AmazonPeeringStudy(world, config)
    result = study.run()
    total_seconds = time.perf_counter() - t0

    annotators = [
        study.annotator_r1,
        study.annotator_r2,
        *study.cloud_annotators.values(),
    ]
    cache_hits = sum(a.cache_hits for a in annotators)
    cache_misses = sum(a.cache_misses for a in annotators)
    lpm_lookups = study.bgp_r1.lookup_count + study.bgp_r2.lookup_count
    lpm_probes = study.bgp_r1.probe_count + study.bgp_r2.probe_count

    counters: Dict[str, int] = {
        "round1_probes": result.round1_stats.probes,
        "round1_completed": result.round1_stats.completed,
        "round1_left_cloud": result.round1_stats.left_cloud,
        "round2_probes": result.round2_stats.probes,
        "abis": len(result.abis),
        "cbis": len(result.cbis),
        "segments": len(result.final_segments),
        "alias_sets": len(result.alias_sets),
        "peer_ases_round2": result.peer_ases_round2,
        "annotation_cache_hits": cache_hits,
        "annotation_cache_misses": cache_misses,
        "lpm_lookups": lpm_lookups,
        "lpm_probes": lpm_probes,
    }
    if scenario.adaptive:
        # Pin the control plane's inertness on a clean run: any nonzero
        # value here means a breaker opened (or a probe was re-paced)
        # with nothing injected -- a false positive the baseline gates.
        account = result.probe_account()
        counters["governor_deferred"] = account.deferred
        counters["recovered_probes"] = account.recovered
        counters["recovery_still_lost"] = account.still_lost
        resilience = result.resilience
        counters["breaker_transitions"] = (
            len(resilience.breaker_events) if resilience else 0
        )
    total_annotations = cache_hits + cache_misses
    efficiency: Dict[str, float] = {
        "lpm_probes_per_lookup": (
            lpm_probes / lpm_lookups if lpm_lookups else 0.0
        ),
        "annotation_miss_rate": (
            cache_misses / total_annotations if total_annotations else 0.0
        ),
    }
    timings: Dict[str, float] = {
        "world_build_seconds": build_seconds,
        "total_seconds": total_seconds,
    }
    for family, seconds in sorted(
        self_time_by_family(result.metrics.tracer.records).items()
    ):
        timings[f"span/{family}"] = seconds
    return BenchReport(
        scenario=scenario.name,
        params=_scenario_params(scenario, params),
        digest=result.digest(),
        counters=counters,
        efficiency=efficiency,
        timings=timings,
    )


def _run_annotate(scenario: BenchScenario, params: BenchParams) -> BenchReport:
    t0 = time.perf_counter()
    world, build_seconds = _build_world(params)
    seed = params.seed
    bgp = snapshot_from_world(world, "r2")
    whois = WhoisRegistry(world, seed=seed)
    as2org = as2org_from_world(world, seed=seed)
    peeringdb = peeringdb_from_world(world, seed=seed)
    ixps = ixp_directory_from_world(world, peeringdb, seed=seed)
    ips = sorted(world.interfaces)

    # Differential LPM sweep: the indexed path and the retained naive
    # oracle must return identical matches over every address; their
    # counters quantify exactly how much probing the index saves.
    naive = bgp.naive_reference()
    t = time.perf_counter()
    indexed_matches = [bgp.lookup(ip) for ip in ips]
    indexed_sweep_seconds = time.perf_counter() - t
    t = time.perf_counter()
    naive_matches = [naive.lookup(ip) for ip in ips]
    naive_sweep_seconds = time.perf_counter() - t
    if indexed_matches != naive_matches:
        diverged = sum(
            1 for a, b in zip(indexed_matches, naive_matches) if a != b
        )
        raise RuntimeError(
            f"LPM differential failure: indexed and naive lookups "
            f"diverged on {diverged}/{len(ips)} addresses"
        )

    # Cold pass computes every annotation; the warm pass must be pure
    # cache hits.  A private cache + intern pool keeps the counters
    # self-contained (the process-wide pool would leak other runs in).
    pool = AnnotationInternPool()
    annotator = HopAnnotator(
        bgp, whois, as2org, ixps, cache=AnnotationCache(intern_pool=pool)
    )
    t = time.perf_counter()
    annotations = [annotator.annotate(ip) for ip in ips]
    cold_seconds = time.perf_counter() - t
    t = time.perf_counter()
    for ip in ips:
        annotator.annotate(ip)
    warm_seconds = time.perf_counter() - t

    digest = hashlib.sha256(
        "\n".join(repr(astuple(ann)) for ann in annotations).encode()
    ).hexdigest()
    lookups = len(ips)
    counters: Dict[str, int] = {
        "addresses": lookups,
        "lpm_lookups": lookups,
        # The sweep's probe cost per side: one bisect per indexed lookup
        # by construction; the naive table counts one dict probe per
        # prefix length walked.
        "lpm_probes_indexed": lookups,
        "lpm_probes_naive": naive.probe_count,
        "annotations_distinct": len(pool),
        "annotation_cache_misses": annotator.cache_misses,
        "annotation_cache_hits": annotator.cache_hits,
        "intern_hits": pool.hits,
    }
    efficiency: Dict[str, float] = {
        "probes_per_lookup_indexed": (
            counters["lpm_probes_indexed"] / lookups if lookups else 0.0
        ),
        "probes_per_lookup_naive": (
            counters["lpm_probes_naive"] / lookups if lookups else 0.0
        ),
        "lpm_probe_ratio": (
            counters["lpm_probes_indexed"] / counters["lpm_probes_naive"]
            if counters["lpm_probes_naive"]
            else 0.0
        ),
    }
    timings: Dict[str, float] = {
        "world_build_seconds": build_seconds,
        "lpm_sweep_indexed_seconds": indexed_sweep_seconds,
        "lpm_sweep_naive_seconds": naive_sweep_seconds,
        "annotate_cold_seconds": cold_seconds,
        "annotate_warm_seconds": warm_seconds,
        "total_seconds": time.perf_counter() - t0,
    }
    return BenchReport(
        scenario=scenario.name,
        params=_scenario_params(scenario, params),
        digest=digest,
        counters=counters,
        efficiency=efficiency,
        timings=timings,
    )


def scenario_table() -> List[Tuple[str, str]]:
    """(name, description) rows for ``repro bench --list``."""
    return [(s.name, s.description) for s in SCENARIOS.values()]
