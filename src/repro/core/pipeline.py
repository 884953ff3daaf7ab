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
:class:`~repro.measure.executor.ShardedExecutor`, feeds its traces to a
border observatory's ``ingest`` and keeps one
:class:`~repro.measure.campaign.CampaignStats` record, registered on
``result.metrics``.  An optional :class:`~repro.measure.sink.EventSink`
is the run's one observer: it sees every delivered probe (recovery's
included), merged shard and closed span, and the caller that built it
owns it -- the study never closes it.

A run walks :func:`~repro.core.stages.stages_for` its config, in
:data:`~repro.core.stages.STAGE_ORDER`.  A stage is one method,
``_compute_<stage>``, returning a payload keyed by the ``StudyResult``
fields it fills plus the run state it changed; one ``_apply`` projects
a payload onto the run, whether it was just computed or loaded from a
stage checkpoint.  Each ``run()`` and ``salvage()`` call builds its own
state -- result, executor, border observatory, adaptive governor -- so
two runs of one study return one digest.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

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
from repro.core.stages import StageChain, StageStore, stages_for, study_fingerprint
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
from repro.measure.campaign import expansion_targets, round1_targets
from repro.measure.checkpoint import CheckpointStore
from repro.measure.dnslookup import ReverseDNS
from repro.measure.executor import RetryPolicy, ShardedExecutor
from repro.measure.health import BreakerState
from repro.measure.metrics import StudyMetrics
from repro.measure.sink import EventSink
from repro.measure.ping import Pinger
from repro.measure.supervise import StudySupervisor
from repro.obs.export import write_trace
from repro.measure.reachability import PublicVantagePoint
from repro.measure.traceroute import TracerouteEngine
from repro.world.model import World


class _RunContext:
    """Everything one ``run()`` or ``salvage()`` call owns.

    The result under construction, the metrics/tracer pair, the executor
    every campaign runs on (it carries the study's observer), and the
    run's own mutable state: its border observatory, its adaptive
    governor, and the validate stage's report.  Each call builds a fresh
    context, so a second ``run()`` on one study starts from nothing the
    first left behind.
    """

    def __init__(
        self,
        result: StudyResult,
        metrics: StudyMetrics,
        executor: ShardedExecutor,
        observatory: BorderObservatory,
        governor: Optional[ProbeGovernor],
    ) -> None:
        self.result = result
        self.metrics = metrics
        self.tracer = metrics.tracer
        self.executor = executor
        self.observatory = observatory
        #: adaptive control plane (None unless ``config.adaptive``).
        self.governor = governor
        #: set by the validate stage; consumed by the quality stage.
        self.validation: Optional[DatasetValidationReport] = None
        #: CBIs of the round-1 traces the governor deferred; round 2
        #: expands around them too.
        self.deferred_cbis: Set[IPv4] = set()

    def probe_state(self) -> Dict[str, Any]:
        """The round stages' share of the payload: observatory and governor."""
        state: Dict[str, Any] = {"observatory": self.observatory.state_dict()}
        if self.governor is not None:
            state["governor"] = self.governor.state_dict()
        return state


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
        #: the run's one observer: every campaign's delivered probes and
        #: merged shards, and every closed span, flow here.  The caller
        #: owns it; the study never closes it.
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
            StageStore(config.checkpoint_dir) if config.checkpoint_dir else None
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

        #: the latest run's observatory (each run builds its own).
        self.observatory: Optional[BorderObservatory] = None
        self.region_metro = {
            name: rt.metro_code for name, rt in world.regions["amazon"].items()
        }

    # ------------------------------------------------------------------
    # the stage walk
    # ------------------------------------------------------------------

    def _make_context(self, worker_spans: bool) -> _RunContext:
        """A fresh run: result, metrics, executor, observatory, governor."""
        config = self.config
        metrics = StudyMetrics()
        result = StudyResult(
            seed=config.seed,
            scale=self.world.config.scale,
            config=config,
            metrics=metrics,
        )
        governor: Optional[ProbeGovernor] = None
        if config.adaptive:
            governor = ProbeGovernor(threshold=config.breaker_threshold)
        executor = ShardedExecutor(
            self.world,
            self.engine,
            workers=config.workers,
            retry=self.retry_policy,
            supervisor=self.supervisor,
            checkpoint_store=self.checkpoint_store,
            events=self.events,
            tracer=metrics.tracer,
            worker_spans=worker_spans,
        )
        observatory = BorderObservatory(
            self.annotator_r1, min_confidence=config.min_confidence
        )
        self.observatory = observatory
        return _RunContext(result, metrics, executor, observatory, governor)

    def _stage_chain(self) -> StageChain:
        return StageChain(
            study_fingerprint(
                self.world.config.scale, self.world.config.seed, self.config
            )
        )

    def run(self) -> StudyResult:
        """Walk :func:`stages_for` the config, computing or resuming each.

        With ``config.resume``, a stage whose record matches the rolling
        fingerprint chain is loaded instead of computed; every stage
        computed here is saved (when the study checkpoints).
        """
        config = self.config
        # Fine-grained (worker-side) spans are opt-in; coarse spans
        # (study/stage/campaign/shard) are always recorded and cheap.
        ctx = self._make_context(bool(config.trace or config.trace_out))
        metrics = ctx.metrics
        tracer = ctx.tracer
        if self.events is not None:
            tracer.add_listener(self.events.on_span_closed)
        study_span = tracer.span("study", category="study")
        store = self.stage_store
        supervisor = self.supervisor
        chain = self._stage_chain()
        try:
            with supervisor:
                for name in stages_for(config):
                    fingerprint = chain.fingerprint(name)
                    supervisor.poll()
                    with metrics.stage(name) as span:
                        loaded = (
                            store.load(name, fingerprint)
                            if store is not None and config.resume
                            else None
                        )
                        if loaded is not None:
                            payload, digest = loaded
                            span.set("resumed", 1)
                        else:
                            try:
                                payload = getattr(self, f"_compute_{name}")(ctx)
                            except StudyInterrupted:
                                raise
                            except Exception as exc:
                                raise StageError(name, exc) from exc
                            # A stage computed after any shard quarantine
                            # in this run is degraded content, even once
                            # recovery healed the probes: the governor's
                            # breakers folded the quarantine, and transport
                            # faults are outside the fingerprint.  Never
                            # checkpoint it; resume re-runs it, healing
                            # the quarantined shards from the campaign
                            # journals instead.
                            if store is not None and not metrics.total_quarantined:
                                digest = store.save(name, fingerprint, payload)
                            else:
                                digest = "-"
                        self._apply(ctx, payload)
                    chain.advance(name, digest)
                    supervisor.note_stage_complete(name)
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
        return ctx.result

    def salvage(self) -> Tuple[StudyResult, List[str]]:
        """Rebuild a partial :class:`StudyResult` from stage checkpoints.

        No probing, no computation, no writes: the stages are replayed
        from the :class:`StageStore` until the first missing (or
        invalidated) checkpoint, and whatever prefix was recovered is
        applied to a fresh result -- the same prefix whether or not the
        config says ``resume``.  Returns ``(result,
        recovered_stage_names)`` -- the degradation ladder's last rung,
        feeding ``repro study --salvage``'s partial report.
        """
        if self.stage_store is None:
            raise DataError(
                "salvage requires a checkpoint directory with stage "
                "checkpoints (run with checkpoint_dir set)"
            )
        ctx = self._make_context(worker_spans=False)
        chain = self._stage_chain()
        recovered: List[str] = []
        for name in stages_for(self.config):
            loaded = self.stage_store.load(name, chain.fingerprint(name))
            if loaded is None:
                break  # the chain is only valid as an unbroken prefix
            payload, digest = loaded
            with ctx.metrics.stage(name) as span:
                self._apply(ctx, payload)
                span.set("resumed", 1)
            chain.advance(name, digest)
            recovered.append(name)
        return ctx.result, recovered

    def _apply(self, ctx: _RunContext, payload: Dict[str, Any]) -> None:
        """Project one stage payload -- fresh or loaded -- onto the run.

        Each key names either the run's own state (``validation``,
        ``deferred_cbis``, ``observatory``, ``governor``) or the
        :class:`StudyResult` field the value fills.  Fresh and loaded
        payloads take this one path, which is the whole resume contract:
        a fresh payload's state *is* the run's live state, so restoring
        it changes nothing.
        """
        for key, value in payload.items():
            if key == "validation":
                ctx.validation = value
            elif key == "deferred_cbis":
                ctx.deferred_cbis = value
            elif key == "observatory":
                observatory = ctx.observatory
                observatory.load_state(value)
                # Point the restored state back at its round's snapshot.
                label = observatory.current_round
                observatory.start_round(
                    label,
                    self.annotator_r2 if label == "r2" else self.annotator_r1,
                )
            elif key == "governor":
                assert ctx.governor is not None  # saved by adaptive runs only
                ctx.governor.load_state(value)
            else:
                setattr(ctx.result, key, value)

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
            # transitions fold from the breakers' event logs, probe
            # counts from the round records.  Digest-neutral.  Once
            # recovery has run, its report holds the final breakers:
            # nothing admits a probe after it, and its record does not
            # carry the governor.
            resilience = ctx.result.resilience
            breakers = (
                resilience.breakers
                if resilience is not None
                else ctx.governor.breakers()
            )
            edges = Counter(
                (event.from_state, event.to_state)
                for breaker in breakers
                for event in breaker.events
            )
            closed, opened, half = (
                BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN
            )
            study_span.set("breaker_opens", edges[closed, opened])
            study_span.set("breaker_half_opens", edges[opened, half])
            study_span.set("breaker_closes", edges[half, closed])
            study_span.set("breaker_reopens", edges[half, opened])
            account = ctx.result.probe_account()
            study_span.set("governor_admitted", account.admitted)
            study_span.set("governor_deferred", account.deferred)
            study_span.set("governor_quarantined", account.quarantined)
            if resilience is not None:
                study_span.set("recovered_probes", account.recovered)
                study_span.set("recovery_still_lost", account.still_lost)
        study_span.close()

    # ------------------------------------------------------------------
    # stage bodies: _compute_<stage> returns the stage's payload, keyed
    # by the StudyResult fields it fills plus any run state it changed;
    # _apply projects it onto the run.
    # ------------------------------------------------------------------

    def _compute_validate(self, ctx: _RunContext) -> Dict[str, Any]:
        # Dataset cross-validation, *before* any probing: how much do the
        # sources disagree with each other up front?
        return {
            "validation": validate_datasets(
                self.bgp_r2, self.whois, self.as2org, self.ixps
            )
        }

    def _compute_round1(self, ctx: _RunContext) -> Dict[str, Any]:
        # §3-§4.1: round-1 sweep.  A trace the governor defers never
        # feeds inference, but its CBI still seeds round 2 (DESIGN.md
        # §6.6): a planning observatory collects those CBIs, so round 2
        # expands around every CBI of round 1, as a non-adaptive run does.
        planner = BorderObservatory(self.annotator_r1)
        stats = ctx.executor.run(
            "amazon",
            "round1",
            round1_targets(self.world),
            ctx.observatory.ingest,
            governor=ctx.governor,
            deferred=planner.ingest,
        )
        ctx.metrics.campaigns[stats.label] = stats
        r1_abis = ctx.observatory.candidate_abis()
        r1_cbis = ctx.observatory.candidate_cbis()
        payload: Dict[str, Any] = {
            "round1_stats": stats,
            "table1": [
                self._census("ABI", r1_abis, self.annotator_r1),
                self._census("CBI", r1_cbis, self.annotator_r1),
            ],
            "peer_ases_round1": len(
                self._peer_ases(r1_cbis, self.annotator_r1)
            ),
            **ctx.probe_state(),
        }
        # Only a run that deferred something carries the key, so every
        # other run writes the round-1 record it always wrote.
        deferred_cbis = planner.candidate_cbis()
        if deferred_cbis:
            payload["deferred_cbis"] = deferred_cbis
        return payload

    def _compute_round2(self, ctx: _RunContext) -> Dict[str, Any]:
        # §4.2: expansion probing under the round-2 snapshot.
        r1_cbis = ctx.observatory.candidate_cbis() | ctx.deferred_cbis
        ctx.observatory.start_round("r2", self.annotator_r2)
        stats = ctx.executor.run(
            "amazon",
            "round2",
            expansion_targets(r1_cbis, self.config.expansion_stride),
            ctx.observatory.ingest,
            governor=ctx.governor,
        )
        ctx.metrics.campaigns[stats.label] = stats
        e_abis = ctx.observatory.candidate_abis()
        e_cbis = ctx.observatory.candidate_cbis()
        return {
            "round2_stats": stats,
            "table1": [
                *ctx.result.table1,
                self._census("eABI", e_abis, self.annotator_r2),
                self._census("eCBI", e_cbis, self.annotator_r2),
            ],
            "peer_ases_round2": len(
                self._peer_ases(e_cbis, self.annotator_r2)
            ),
            **ctx.probe_state(),
        }

    def _compute_recovery(self, ctx: _RunContext) -> Dict[str, Any]:
        # DESIGN.md §6.6: the bounded re-probe round.  Serial in the
        # parent -- recovery never shards, so its probe order (and with
        # it the digest) is identical at any worker count.  Recovered
        # traces stream into the observatory under the current round
        # ("r2") and heal the campaign stats they were deferred from.
        assert ctx.governor is not None  # stage gated on config.adaptive
        rounds = (ctx.result.round1_stats, ctx.result.round2_stats)
        report = run_recovery(
            ctx.governor,
            ctx.executor,
            {stats.label: stats for stats in rounds if stats is not None},
            ctx.observatory.ingest,
            rounds=self.config.recovery_rounds,
        )
        # Recovery heals the round stats in place; the payload carries
        # the healed records and the observatory.  The governor stays
        # out: no later stage admits a probe (VPI campaigns run without
        # one), and the report already holds its breakers.
        return {
            "round1_stats": ctx.result.round1_stats,
            "round2_stats": ctx.result.round2_stats,
            "resilience": report,
            "observatory": ctx.observatory.state_dict(),
        }

    def _compute_heuristics(self, ctx: _RunContext) -> Dict[str, Any]:
        # §5.1: heuristics.
        verifier = SegmentVerifier(
            ctx.observatory,
            self.public_vp,
            min_confidence=self.config.min_confidence,
        )
        return {"heuristics": verifier.verify()}

    def _compute_alias(self, ctx: _RunContext) -> Dict[str, Any]:
        # §5.2: alias resolution and ownership verification.
        candidates = sorted(
            ctx.observatory.candidate_abis() | ctx.observatory.candidate_cbis()
        )
        alias_sets = self.alias_resolver.resolve(candidates)
        alias_verifier = AliasVerifier(ctx.observatory, set(AMAZON_ASNS))
        verification = alias_verifier.verify(alias_sets)
        return {
            "alias_sets": alias_sets,
            "verification": verification,
            "final_segments": verification.final_segments,
            "abis": verification.abis,
            "cbis": verification.cbis,
        }

    def _compute_pinning(self, ctx: _RunContext) -> Dict[str, Any]:
        # §6: RTT data, anchors, iterative pinning, regional fallback.
        config = self.config
        result = ctx.result
        abi_min_rtts = self._abi_min_rtts(result.abis)
        segment_rtt_diff = self._segment_rtt_diffs(result.final_segments)
        parser = DNSGeoParser(self.world.catalog)
        anchor_builder = AnchorBuilder(
            observatory=ctx.observatory,
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

    def _compute_vpi(self, ctx: _RunContext) -> Dict[str, Any]:
        # §7.1: VPI detection from the other clouds.
        result = ctx.result
        detector = VPIDetector(self.cloud_annotators, ctx.executor)
        ixp_cbis = {
            cbi for cbi in result.cbis if self.annotator_r2.annotate(cbi).is_ixp
        }
        vpi = detector.detect(
            result.cbis, ixp_cbis, ctx.observatory.discovery_dsts()
        )
        for stats in vpi.stats.values():
            ctx.metrics.campaigns[stats.label] = stats
        return {"vpi": vpi}

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
            ctx.observatory,
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

    def _compute_quality(self, ctx: _RunContext) -> Dict[str, Any]:
        # Data-quality rollup: what the sources disagreed on and which
        # inferences the confidence floor flagged.  Observability only --
        # deliberately outside the digest.
        validation = ctx.validation
        if validation is None:
            raise DataError("quality stage needs the validate stage's output")
        return {"data_quality": self._data_quality(ctx.result, validation)}

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

