"""End-to-end study driver: §3 through §7 in one call.

``AmazonPeeringStudy(world, config=StudyConfig(...)).run()`` executes the
full methodology -- sweep, expansion, heuristics, alias verification,
pinning, cross-validation, VPI detection, grouping, and graph
characterisation -- and returns a :class:`StudyResult` from which every
table and figure of the paper can be regenerated.

Configuration lives in one frozen :class:`StudyConfig`.  With
``StudyConfig(workers=N)`` the probing campaigns run on a sharded
``multiprocessing`` pool and -- because traces are a pure function of
``(seed, cloud, region, dst)`` and shards merge in serial order -- the
``StudyResult`` is identical for any worker count.  Every campaign of a
run (round 1, round 2 and the VPI clouds) runs on one
:class:`~repro.measure.executor.ShardedExecutor` and keeps one
:class:`~repro.measure.campaign.CampaignStats` record, registered on
``result.metrics``; an optional :class:`~repro.measure.sink.EventSink`
sees every probe, merged shard and closed span of the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import DataError, StageError, StudyInterrupted
from repro.net.asn import AMAZON_ASNS, CLOUD_ORG_IDS
from repro.net.ip import IPv4
from repro.core.aliasverify import AliasVerifier
from repro.core.anchors import AnchorBuilder
from repro.core.annotate import AnnotationCache, AnnotationSource, HopAnnotator
from repro.core.borders import BorderObservatory
from repro.core.config import StudyConfig
from repro.core.crossval import cross_validate_pinning
from repro.core.dnsgeo import DNSGeoParser
from repro.core.graph import InterfaceConnectivityGraph
from repro.core.grouping import PeeringGrouper
from repro.core.heuristics import SegmentVerifier
from repro.core.pinning import IterativePinner, regional_fallback
from repro.core.results import DataQualityReport, InterfaceCensus, StudyResult
from repro.core.stages import StageChain, StageStore, study_fingerprint
from repro.core.vpi import VPIDetector
from repro.datasets import (
    as2org_from_world,
    ixp_directory_from_world,
    peeringdb_from_world,
    relationships_from_world,
    snapshot_from_world,
)
from repro.datasets.validate import DatasetValidationReport, validate_datasets
from repro.datasets.whois import WhoisRegistry
from repro.measure.adapt import ProbeGovernor, run_recovery
from repro.measure.alias import AliasResolver
from repro.measure.campaign import CampaignStats, expansion_targets, round1_targets
from repro.measure.checkpoint import CheckpointStore
from repro.measure.dnslookup import ReverseDNS
from repro.measure.executor import RetryPolicy, ShardedExecutor
from repro.measure.health import HealthLedger
from repro.measure.metrics import StudyMetrics
from repro.measure.sink import EventSink, FanoutEvents
from repro.measure.ping import Pinger
from repro.measure.supervise import StudySupervisor
from repro.obs.export import write_trace
from repro.measure.reachability import PublicVantagePoint
from repro.measure.traceroute import TracerouteEngine
from repro.world.model import World


class _RunContext:
    """Mutable per-run state threaded through the stage graph.

    Holds everything a stage body needs beyond ``self``: the result under
    construction, the metrics/tracer pair, the executor every campaign
    runs on, and the event-stream helpers.  One context per ``run()`` (or
    ``salvage()``) call, so concurrent runs never share state.
    """

    def __init__(
        self,
        result: StudyResult,
        metrics: StudyMetrics,
        executor: ShardedExecutor,
        events: Optional[EventSink],
        governor: Optional[ProbeGovernor] = None,
    ) -> None:
        self.result = result
        self.metrics = metrics
        self.tracer = metrics.tracer
        self.executor = executor
        self.events = events
        #: adaptive control plane (None unless ``config.adaptive``).
        self.governor = governor
        #: set by the validate stage; consumed by the quality stage.
        self.validation: Optional[DatasetValidationReport] = None

    def campaign_sink(self, sink: EventSink) -> EventSink:
        """Tee a campaign's event stream to the study-wide sink."""
        if self.events is None:
            return sink
        return FanoutEvents(sink, self.events)


class _Stage(NamedTuple):
    """One node of the declarative stage graph.

    ``compute`` produces the stage's payload (a flat dict of
    checkpoint-codec-encodable values); ``apply`` projects a payload --
    freshly computed *or* loaded from a stage checkpoint -- onto the
    result and run context.  ``apply`` must be cheap and side-effect
    equivalent on both paths: that is the whole resume contract.
    """

    name: str
    enabled: bool
    compute: Callable[[_RunContext], Dict[str, Any]]
    apply: Callable[[_RunContext, Dict[str, Any], bool], None]


class AmazonPeeringStudy:
    """Runs the paper's full measurement study against a world."""

    def __init__(
        self,
        world: World,
        config: Optional[StudyConfig] = None,
        *,
        events: Optional[EventSink] = None,
        supervisor: Optional[StudySupervisor] = None,
    ) -> None:
        config = config if config is not None else StudyConfig()
        self.world = world
        self.config = config
        #: the run's one event consumer: probes, merged shards, and
        #: closed spans all flow here.
        self.events = events
        seed = config.seed

        # Public datasets, optionally degraded by the data fault plan.
        data_faults = config.data_fault_plan
        self.whois = WhoisRegistry(world, seed=seed, data_faults=data_faults)
        self.as2org = as2org_from_world(world, seed=seed, data_faults=data_faults)
        self.peeringdb = peeringdb_from_world(world, seed=seed)
        self.ixps = ixp_directory_from_world(
            world, self.peeringdb, seed=seed, data_faults=data_faults
        )
        self.relationships = relationships_from_world(world)
        self.bgp_r1 = snapshot_from_world(world, "r1", data_faults=data_faults)
        self.bgp_r2 = snapshot_from_world(world, "r2", data_faults=data_faults)

        # Measurement plane.  The engine carries the study's one fault
        # plan: the executor reads its transport side from the engine.
        self.engine = TracerouteEngine(world, seed=seed, faults=config.fault_plan)
        self.retry_policy = RetryPolicy(
            shard_timeout=config.shard_timeout,
            max_retries=config.max_retries,
            backoff_base_s=config.retry_backoff_s,
        )
        self.checkpoint_store = (
            CheckpointStore(config.checkpoint_dir, resume=config.resume)
            if config.checkpoint_dir
            else None
        )
        self.stage_store = (
            StageStore(config.checkpoint_dir, resume=config.resume)
            if config.checkpoint_dir
            else None
        )
        # The supervisor owns cancellation, the study deadline, and the
        # study-wide retry budget.  An injected one (the CLI installs
        # signal handlers on its own) wins; the default is built from
        # the config's supervision knobs.
        self.supervisor = (
            supervisor
            if supervisor is not None
            else StudySupervisor(
                deadline_s=config.deadline_s,
                retry_budget=config.retry_budget,
            )
        )
        self.pinger = Pinger(world, seed=seed)
        self.public_vp = PublicVantagePoint(world, seed=seed)
        self.rdns = ReverseDNS(world)
        self.alias_resolver = AliasResolver(world, seed=seed)

        # Annotators per round and per probing cloud.  The round-2 and
        # per-cloud annotators read the same datasets (home_org never
        # changes annotation content), so they share one read-only
        # cache: an address annotated during expansion is never
        # recomputed for any VPI cloud.  Round 1 reads a different
        # snapshot and keeps its own cache.
        r2_cache = AnnotationCache()
        self.annotator_r1 = HopAnnotator(self.bgp_r1, self.whois, self.as2org, self.ixps)
        self.annotator_r2 = HopAnnotator(
            self.bgp_r2, self.whois, self.as2org, self.ixps, cache=r2_cache
        )
        self.cloud_annotators: Dict[str, HopAnnotator] = {
            cloud: HopAnnotator(
                self.bgp_r2,
                self.whois,
                self.as2org,
                self.ixps,
                home_org=org,
                cache=r2_cache,
            )
            for cloud, org in CLOUD_ORG_IDS.items()
            if cloud != "amazon"
        }

        self.observatory = BorderObservatory(
            self.annotator_r1, min_confidence=config.min_confidence
        )
        self.region_metro = {
            name: rt.metro_code for name, rt in world.regions["amazon"].items()
        }

    # ------------------------------------------------------------------
    # the declarative stage graph
    # ------------------------------------------------------------------

    def _stage_graph(self) -> List[_Stage]:
        """The study as an ordered stage graph (§3 through §7).

        Each stage is (name, enabled, compute, apply); ``run`` walks the
        graph, loading completed stages from the :class:`StageStore`
        instead of recomputing them and checkpointing fresh ones, all
        under one rolling fingerprint chain.
        """
        return [
            _Stage("validate", True, self._compute_validate, self._apply_validate),
            _Stage("round1", True, self._compute_round1, self._apply_round1),
            _Stage("round2", True, self._compute_round2, self._apply_round2),
            _Stage(
                "recovery",
                self.config.adaptive,
                self._compute_recovery,
                self._apply_recovery,
            ),
            _Stage(
                "heuristics", True, self._compute_heuristics, self._apply_heuristics
            ),
            _Stage("alias", True, self._compute_alias, self._apply_alias),
            _Stage("pinning", True, self._compute_pinning, self._apply_pinning),
            _Stage(
                "crossval",
                self.config.run_crossval,
                self._compute_crossval,
                self._apply_crossval,
            ),
            _Stage("vpi", self.config.run_vpi, self._compute_vpi, self._apply_vpi),
            _Stage("grouping", True, self._compute_grouping, self._apply_grouping),
            _Stage("icg", True, self._compute_icg, self._apply_icg),
            _Stage("quality", True, self._compute_quality, self._apply_quality),
        ]

    def _make_context(
        self, result: StudyResult, metrics: StudyMetrics, worker_spans: bool
    ) -> _RunContext:
        governor: Optional[ProbeGovernor] = None
        if self.config.adaptive:
            governor = ProbeGovernor(
                HealthLedger(threshold=self.config.breaker_threshold),
                cloud="amazon",
            )
        executor = ShardedExecutor(
            self.world,
            self.engine,
            workers=self.config.workers,
            retry=self.retry_policy,
            supervisor=self.supervisor,
            checkpoint_store=self.checkpoint_store,
            tracer=metrics.tracer,
            worker_spans=worker_spans,
        )
        return _RunContext(
            result=result,
            metrics=metrics,
            executor=executor,
            events=self.events,
            governor=governor,
        )

    def run(self) -> StudyResult:
        config = self.config
        metrics = StudyMetrics()
        tracer = metrics.tracer
        #: fine-grained (worker-side) spans are opt-in; coarse spans
        #: (study/stage/campaign/shard) are always recorded and cheap.
        worker_spans = bool(config.trace or config.trace_out)
        events = self.events
        if events is not None:
            tracer.add_listener(events.on_span_closed)
        result = StudyResult(
            seed=config.seed,
            scale=self.world.config.scale,
            config=config,
            metrics=metrics,
        )
        study_span = tracer.span("study", category="study")
        ctx = self._make_context(result, metrics, worker_spans)
        store = self.stage_store
        supervisor = self.supervisor
        chain = StageChain(
            study_fingerprint(
                self.world.config.scale, self.world.config.seed, config
            )
        )
        try:
            with supervisor:
                for stage in self._stage_graph():
                    if not stage.enabled:
                        continue
                    fingerprint = chain.fingerprint(stage.name)
                    supervisor.poll()
                    with metrics.stage(stage.name) as span:
                        loaded = (
                            store.load(stage.name, fingerprint)
                            if store is not None
                            else None
                        )
                        if loaded is not None:
                            payload, digest = loaded
                            stage.apply(ctx, payload, True)
                            span.set("resumed", 1)
                        else:
                            try:
                                payload = stage.compute(ctx)
                            except StudyInterrupted:
                                raise
                            except Exception as exc:
                                raise StageError(stage.name, exc) from exc
                            stage.apply(ctx, payload, False)
                            # A stage computed after any shard quarantine
                            # in this run is degraded content, even once
                            # recovery healed the probes: the governor's
                            # ledger folded the quarantine, and transport
                            # faults are outside the fingerprint.  Never
                            # checkpoint it; resume re-runs it, healing
                            # the quarantined shards from the campaign
                            # journals instead.
                            if store is not None and not metrics.total_quarantined:
                                digest = store.save(
                                    stage.name, fingerprint, payload
                                )
                            else:
                                digest = "-"
                    chain.advance(stage.name, digest)
                    supervisor.note_stage_complete(stage.name)
        except StudyInterrupted as exc:
            # Graceful shutdown: leave a span explaining why the run
            # stopped and let the interrupt propagate (the CLI maps it to
            # a distinct exit code).  Each campaign fsynced its journal
            # on the way out; each stage record was fsynced when saved.
            interrupt_span = tracer.span("study-interrupted", category="interrupt")
            interrupt_span.set(
                "stages_completed", len(supervisor.stages_completed)
            )
            interrupt_span.set("deadline", 1 if exc.category == "deadline" else 0)
            interrupt_span.close()
            raise
        finally:
            self._close_study_span(study_span, ctx)
            if config.trace_out:
                write_trace(
                    config.trace_out,
                    tracer.records,
                    meta={
                        "seed": config.seed,
                        "scale": self.world.config.scale,
                        "workers": config.workers,
                    },
                )
            if events is not None:
                events.close()
        return result

    def salvage(self) -> Tuple[StudyResult, List[str]]:
        """Rebuild a partial :class:`StudyResult` from stage checkpoints.

        No probing, no computation: the stage graph is replayed from the
        :class:`StageStore` until the first missing (or invalidated)
        checkpoint, and whatever prefix was recovered is applied to a
        fresh result.  Returns ``(result, recovered_stage_names)`` --
        the degradation ladder's last rung, feeding
        ``repro study --salvage``'s partial report.
        """
        if self.stage_store is None:
            raise DataError(
                "salvage requires a checkpoint directory with stage "
                "checkpoints (run with checkpoint_dir set)"
            )
        config = self.config
        metrics = StudyMetrics()
        result = StudyResult(
            seed=config.seed,
            scale=self.world.config.scale,
            config=config,
            metrics=metrics,
        )
        ctx = self._make_context(result, metrics, worker_spans=False)
        chain = StageChain(
            study_fingerprint(
                self.world.config.scale, self.world.config.seed, config
            )
        )
        recovered: List[str] = []
        for stage in self._stage_graph():
            if not stage.enabled:
                continue
            loaded = self.stage_store.load(
                stage.name, chain.fingerprint(stage.name)
            )
            if loaded is None:
                break  # the chain is only valid as an unbroken prefix
            payload, digest = loaded
            with metrics.stage(stage.name) as span:
                stage.apply(ctx, payload, True)
                span.set("resumed", 1)
            chain.advance(stage.name, digest)
            recovered.append(stage.name)
        return result, recovered

    def _close_study_span(self, study_span: Any, ctx: _RunContext) -> None:
        # Annotation-layer counters ride on the study span: cache
        # behaviour, mean fallback-chain depth, and how often sources
        # disagreed.  Observability only -- outside the digest.
        annotators = [
            self.annotator_r1,
            self.annotator_r2,
            *self.cloud_annotators.values(),
        ]
        study_span.set(
            "annotation_cache_hits", sum(a.cache_hits for a in annotators)
        )
        study_span.set(
            "annotation_cache_misses", sum(a.cache_misses for a in annotators)
        )
        study_span.set(
            "annotation_fallback_depth",
            sum(a.fallback_depth_total for a in annotators),
        )
        study_span.set(
            "annotation_disagreements",
            sum(a.disagreement_flags for a in annotators),
        )
        study_span.set(
            "bgp_lpm_lookups",
            self.bgp_r1.lookup_count + self.bgp_r2.lookup_count,
        )
        study_span.set(
            "bgp_lpm_probes",
            self.bgp_r1.probe_count + self.bgp_r2.probe_count,
        )
        quality = ctx.result.data_quality
        study_span.set(
            "dataset_disagreements",
            quality.total_disagreements if quality is not None else 0,
        )
        study_span.set(
            "low_confidence_inferences",
            quality.flagged_count if quality is not None else 0,
        )
        if ctx.governor is not None:
            # Adaptive control-plane counters (DESIGN.md §6.6): breaker
            # transitions fold from the ledger's event log, governor
            # decisions from its own tallies.  Digest-neutral.
            counts = ctx.governor.ledger.counts()
            study_span.set("breaker_opens", counts.opens)
            study_span.set("breaker_half_opens", counts.half_opens)
            study_span.set("breaker_closes", counts.closes)
            study_span.set("breaker_reopens", counts.reopens)
            study_span.set("governor_admitted", ctx.governor.admitted)
            study_span.set("governor_deferred", ctx.governor.deferred)
            study_span.set("governor_quarantined", ctx.governor.quarantined)
            resilience = ctx.result.resilience
            if resilience is not None:
                study_span.set("recovered_probes", resilience.recovered)
                study_span.set("recovery_still_lost", resilience.still_lost)
        study_span.close()

    # ------------------------------------------------------------------
    # stage bodies: compute() produces a checkpointable payload, apply()
    # projects it onto the result -- identically for fresh and resumed
    # payloads, which is what makes the digest resume-invariant.
    # ------------------------------------------------------------------

    def _compute_validate(self, ctx: _RunContext) -> Dict[str, Any]:
        # Dataset cross-validation, *before* any probing: how much do the
        # sources disagree with each other up front?
        return {
            "validation": validate_datasets(
                self.bgp_r2, self.whois, self.as2org, self.ixps
            )
        }

    def _apply_validate(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.validation = payload["validation"]

    def _compute_round1(self, ctx: _RunContext) -> Dict[str, Any]:
        # §3-§4.1: round-1 sweep.
        stats = ctx.executor.run(
            "amazon",
            "round1",
            round1_targets(self.world),
            ctx.campaign_sink(self.observatory),
            governor=ctx.governor,
        )
        ctx.metrics.campaigns[stats.label] = stats
        r1_abis = self.observatory.candidate_abis()
        r1_cbis = self.observatory.candidate_cbis()
        return {
            "stats": stats,
            "observatory": self.observatory.state_dict(),
            "table1": [
                self._census("ABI", r1_abis, self.annotator_r1),
                self._census("CBI", r1_cbis, self.annotator_r1),
            ],
            "peer_ases_round1": len(
                self._peer_ases(r1_cbis, self.annotator_r1)
            ),
            "adaptive": (
                ctx.governor.state_dict() if ctx.governor is not None else None
            ),
        }

    def _apply_round1(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        if resumed:
            self.observatory.load_state(payload["observatory"])
            if (
                ctx.governor is not None
                and payload.get("adaptive") is not None
            ):
                ctx.governor.load_state(payload["adaptive"])
        result = ctx.result
        result.round1_stats = payload["stats"]
        result.table1.extend(payload["table1"])
        result.peer_ases_round1 = payload["peer_ases_round1"]

    def _compute_round2(self, ctx: _RunContext) -> Dict[str, Any]:
        # §4.2: expansion probing under the round-2 snapshot.
        r1_cbis = self.observatory.candidate_cbis()
        self.observatory.start_round("r2", self.annotator_r2)
        stats = ctx.executor.run(
            "amazon",
            "round2",
            expansion_targets(r1_cbis, self.config.expansion_stride),
            ctx.campaign_sink(self.observatory),
            governor=ctx.governor,
        )
        ctx.metrics.campaigns[stats.label] = stats
        e_abis = self.observatory.candidate_abis()
        e_cbis = self.observatory.candidate_cbis()
        return {
            "stats": stats,
            "observatory": self.observatory.state_dict(),
            "table1": [
                self._census("eABI", e_abis, self.annotator_r2),
                self._census("eCBI", e_cbis, self.annotator_r2),
            ],
            "peer_ases_round2": len(
                self._peer_ases(e_cbis, self.annotator_r2)
            ),
            "adaptive": (
                ctx.governor.state_dict() if ctx.governor is not None else None
            ),
        }

    def _apply_round2(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        if resumed:
            self.observatory.load_state(payload["observatory"])
            # The restored state says round "r2"; point the live
            # annotator at the round-2 snapshot to match.
            self.observatory.start_round("r2", self.annotator_r2)
            if (
                ctx.governor is not None
                and payload.get("adaptive") is not None
            ):
                ctx.governor.load_state(payload["adaptive"])
        result = ctx.result
        result.round2_stats = payload["stats"]
        result.table1.extend(payload["table1"])
        result.peer_ases_round2 = payload["peer_ases_round2"]

    def _compute_recovery(self, ctx: _RunContext) -> Dict[str, Any]:
        # DESIGN.md §6.6: the bounded re-probe round.  Serial in the
        # parent -- recovery never shards, so its probe order (and with
        # it the digest) is identical at any worker count.  Recovered
        # traces stream into the observatory under the current round
        # ("r2") and heal the campaign stats they were deferred from.
        assert ctx.governor is not None  # stage gated on config.adaptive
        stats_by_label: Dict[str, CampaignStats] = {}
        if ctx.result.round1_stats is not None:
            stats_by_label["round1"] = ctx.result.round1_stats
        if ctx.result.round2_stats is not None:
            stats_by_label["round2"] = ctx.result.round2_stats
        events = ctx.campaign_sink(self.observatory)
        try:
            report = run_recovery(
                ctx.governor,
                self.engine,
                ctx.executor.membership("amazon"),
                stats_by_label,
                events,
                rounds=self.config.recovery_rounds,
                supervisor=self.supervisor,
                tracer=ctx.tracer,
            )
        finally:
            events.close()
        return {
            "round1_stats": ctx.result.round1_stats,
            "round2_stats": ctx.result.round2_stats,
            "observatory": self.observatory.state_dict(),
            "report": report,
        }

    def _apply_recovery(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        if resumed:
            self.observatory.load_state(payload["observatory"])
            self.observatory.start_round("r2", self.annotator_r2)
        result = ctx.result
        # Recovery heals round stats in place; on the resume path the
        # healed copies come from the payload instead.
        result.round1_stats = payload["round1_stats"]
        result.round2_stats = payload["round2_stats"]
        result.resilience = payload["report"]

    def _compute_heuristics(self, ctx: _RunContext) -> Dict[str, Any]:
        # §5.1: heuristics.
        verifier = SegmentVerifier(
            self.observatory,
            self.public_vp,
            min_confidence=self.config.min_confidence,
        )
        return {"heuristics": verifier.verify()}

    def _apply_heuristics(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.result.heuristics = payload["heuristics"]

    def _compute_alias(self, ctx: _RunContext) -> Dict[str, Any]:
        # §5.2: alias resolution and ownership verification.
        candidates = sorted(
            self.observatory.candidate_abis() | self.observatory.candidate_cbis()
        )
        alias_sets = self.alias_resolver.resolve(candidates)
        alias_verifier = AliasVerifier(self.observatory, set(AMAZON_ASNS))
        verification = alias_verifier.verify(alias_sets)
        return {"alias_sets": alias_sets, "verification": verification}

    def _apply_alias(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        result = ctx.result
        result.alias_sets = payload["alias_sets"]
        result.verification = payload["verification"]
        result.final_segments = result.verification.final_segments
        result.abis = result.verification.abis
        result.cbis = result.verification.cbis

    def _compute_pinning(self, ctx: _RunContext) -> Dict[str, Any]:
        # §6: RTT data, anchors, iterative pinning, regional fallback.
        config = self.config
        result = ctx.result
        abi_min_rtts = self._abi_min_rtts(result.abis)
        segment_rtt_diff = self._segment_rtt_diffs(result.final_segments)
        parser = DNSGeoParser(self.world.catalog)
        anchor_builder = AnchorBuilder(
            observatory=self.observatory,
            abis=result.abis,
            cbis=result.cbis,
            pinger=self.pinger,
            rdns=self.rdns,
            parser=parser,
            ixps=self.ixps,
            peeringdb=self.peeringdb,
            catalog=self.world.catalog,
            region_metro=self.region_metro,
        )
        anchors = anchor_builder.build(result.alias_sets)
        confidence = {
            ip: self.annotator_r2.annotate(ip).confidence
            for ip in sorted(result.abis | result.cbis)
        }
        pinner = IterativePinner(
            anchors.anchors,
            result.alias_sets,
            result.final_segments,
            segment_rtt_diff,
            confidence=confidence,
            min_confidence=config.min_confidence,
        )
        pinning = pinner.run()
        regional_fallback(
            pinning,
            result.abis | result.cbis,
            self.pinger,
            confidence=confidence,
            min_confidence=config.min_confidence,
        )
        return {
            "abi_min_rtts": abi_min_rtts,
            "segment_rtt_diff": segment_rtt_diff,
            "anchors": anchors,
            "pinning": pinning,
        }

    def _apply_pinning(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        result = ctx.result
        result.abi_min_rtts = payload["abi_min_rtts"]
        result.segment_rtt_diff = payload["segment_rtt_diff"]
        result.anchors = payload["anchors"]
        result.pinning = payload["pinning"]

    def _compute_crossval(self, ctx: _RunContext) -> Dict[str, Any]:
        # §6.2: stratified cross-validation.
        result = ctx.result
        return {
            "crossval": cross_validate_pinning(
                result.anchors.anchors,
                result.alias_sets,
                result.final_segments,
                result.segment_rtt_diff,
                folds=self.config.crossval_folds,
                seed=self.config.seed,
            )
        }

    def _apply_crossval(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.result.crossval = payload["crossval"]

    def _compute_vpi(self, ctx: _RunContext) -> Dict[str, Any]:
        # §7.1: VPI detection from the other clouds.
        result = ctx.result
        detector = VPIDetector(self.cloud_annotators, ctx.executor)
        ixp_cbis = {
            cbi for cbi in result.cbis if self.annotator_r2.annotate(cbi).is_ixp
        }
        vpi = detector.detect(
            result.cbis, ixp_cbis, self.observatory.discovery_dsts()
        )
        for stats in vpi.stats.values():
            ctx.metrics.campaigns[stats.label] = stats
        return {"vpi": vpi}

    def _apply_vpi(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.result.vpi = payload["vpi"]

    def _compute_grouping(self, ctx: _RunContext) -> Dict[str, Any]:
        # §7.2-§7.3: grouping.
        result = ctx.result
        vpi_cbis: Set[IPv4] = (
            result.vpi.vpi_cbis if result.vpi is not None else set()
        )
        router_owner = (
            result.verification.ownership.owner_of_ip()
            if result.verification and result.verification.ownership
            else {}
        )
        grouper = PeeringGrouper(
            self.observatory,
            self.relationships,
            vpi_cbis,
            router_owner=router_owner,
            home_asns=set(AMAZON_ASNS),
        )
        amazon_bgp_peers = self.relationships.amazon_links()
        pinned_metros = {
            ip: loc.metro_code for ip, loc in result.pinning.pinned.items()
        }
        grouping = grouper.group(
            result.final_segments,
            amazon_bgp_peers,
            pinned_metro=pinned_metros,
            rtt_diff=result.segment_rtt_diff,
        )
        return {
            "grouping": grouping,
            "bgp_visible_peers": amazon_bgp_peers,
            "recovered_bgp_peers": amazon_bgp_peers & grouping.all_ases(),
        }

    def _apply_grouping(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        result = ctx.result
        result.grouping = payload["grouping"]
        result.bgp_visible_peers = payload["bgp_visible_peers"]
        result.recovered_bgp_peers = payload["recovered_bgp_peers"]

    def _compute_icg(self, ctx: _RunContext) -> Dict[str, Any]:
        # §7.4: the ICG.
        result = ctx.result
        pinned_metros = {
            ip: loc.metro_code for ip, loc in result.pinning.pinned.items()
        }
        icg = InterfaceConnectivityGraph(
            result.final_segments, result.segment_rtt_diff
        )
        return {
            "icg": icg.summarize(
                pinned_metro=pinned_metros,
                catalog=self.world.catalog,
                region_metros=sorted(self.region_metro.values()),
            )
        }

    def _apply_icg(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.result.icg = payload["icg"]

    def _compute_quality(self, ctx: _RunContext) -> Dict[str, Any]:
        # Data-quality rollup: what the sources disagreed on and which
        # inferences the confidence floor flagged.  Observability only --
        # deliberately outside the digest.
        validation = ctx.validation
        if validation is None:
            raise DataError("quality stage needs the validate stage's output")
        return {"data_quality": self._data_quality(ctx.result, validation)}

    def _apply_quality(
        self, ctx: _RunContext, payload: Dict[str, Any], resumed: bool
    ) -> None:
        ctx.result.data_quality = payload["data_quality"]

    # ------------------------------------------------------------------

    def _data_quality(
        self, result: StudyResult, validation: DatasetValidationReport
    ) -> DataQualityReport:
        """Score the final border interfaces and collect flagged sets."""
        config = self.config
        annotate = self.annotator_r2.annotate
        interfaces = sorted(result.abis | result.cbis)
        source_counts: Dict[str, int] = {}
        disagreement_counts: Dict[str, int] = {}
        total_confidence = 0.0
        for ip in interfaces:
            ann = annotate(ip)
            total_confidence += ann.confidence
            source_counts[ann.source] = source_counts.get(ann.source, 0) + 1
            for label in ann.disagreements:
                disagreement_counts[label] = (
                    disagreement_counts.get(label, 0) + 1
                )
        low_cbis: Set[IPv4] = set()
        low_abis: Set[IPv4] = set()
        low_pins: Set[IPv4] = set()
        if config.min_confidence > 0.0:
            low_cbis = {
                ip
                for ip in result.cbis
                if annotate(ip).confidence < config.min_confidence
            }
            if result.heuristics is not None:
                low_abis = set(result.heuristics.low_confidence_abis)
            if result.pinning is not None:
                low_pins = set(result.pinning.low_confidence)
        return DataQualityReport(
            fault_plan=config.data_fault_plan,
            min_confidence=config.min_confidence,
            validation=validation,
            interfaces_scored=len(interfaces),
            mean_confidence=(
                total_confidence / len(interfaces) if interfaces else 1.0
            ),
            source_counts=source_counts,
            disagreement_counts=disagreement_counts,
            low_confidence_cbis=low_cbis,
            low_confidence_abis=low_abis,
            low_confidence_pins=low_pins,
        )

    def _census(
        self, label: str, ips: Set[IPv4], annotator: HopAnnotator
    ) -> InterfaceCensus:
        """A Table 1 row: counts plus BGP/WHOIS/IXP source fractions."""
        total = len(ips)
        if not total:
            return InterfaceCensus(label, 0, 0.0, 0.0, 0.0)
        bgp = whois = ixp = 0
        for ip in ips:
            ann = annotator.annotate(ip)
            if ann.is_ixp:
                ixp += 1
            elif ann.source == AnnotationSource.BGP:
                bgp += 1
            elif ann.source == AnnotationSource.WHOIS:
                whois += 1
        return InterfaceCensus(
            label=label,
            total=total,
            bgp_fraction=bgp / total,
            whois_fraction=whois / total,
            ixp_fraction=ixp / total,
        )

    def _peer_ases(self, cbis: Set[IPv4], annotator: HopAnnotator) -> Set[int]:
        peers: Set[int] = set()
        for cbi in cbis:
            ann = annotator.annotate(cbi)
            if ann.asn and ann.asn not in AMAZON_ASNS:
                peers.add(ann.asn)
        return peers

    def _abi_min_rtts(self, abis: Set[IPv4]) -> List[float]:
        """Fig. 4a series: min-RTT from the closest region per ABI."""
        rtts: List[float] = []
        for abi in sorted(abis):
            closest = self.pinger.closest_region("amazon", abi)
            if closest is not None:
                rtts.append(closest[1])
        return rtts

    def _segment_rtt_diffs(
        self, segments: Iterable[Tuple[IPv4, IPv4]]
    ) -> Dict[Tuple[IPv4, IPv4], float]:
        """Fig. 4b data: |rtt(cbi) - rtt(abi)| from the ABI's closest VM."""
        diffs: Dict[Tuple[IPv4, IPv4], float] = {}
        for abi, cbi in sorted(segments):
            closest = self.pinger.closest_region("amazon", abi)
            if closest is None:
                continue
            region, abi_rtt = closest
            cbi_rtt = self.pinger.min_rtt("amazon", region, cbi)
            if cbi_rtt is None:
                continue
            diffs[(abi, cbi)] = abs(cbi_rtt - abi_rtt)
        return diffs

