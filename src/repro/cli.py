"""Command-line entry point: build a world, run the study, print the report.

::

    repro-study --scale 0.05 --seed 7
    python -m repro --config study.toml --workers 4   # flags override the file
    python -m repro --scale 0.1 --expansion-stride 4 --with-bdrmap
    python -m repro --trace-out trace.json            # Perfetto-loadable trace
    python -m repro trace trace.json                  # self-time + probe funnel
    python -m repro audit                   # layering, lockfiles, REP rules
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.analysis.report import render_report, render_salvage, render_sensitivity
from repro.core.config import StudyConfig
from repro.core.evaluation import evaluate_study
from repro.core.pipeline import AmazonPeeringStudy
from repro.core.stages import STAGE_ORDER
from repro.datasets.datafaults import DataFaultPlan
from repro.errors import EXIT_INTERRUPTED, StudyInterrupted
from repro.measure.faults import FaultPlan
from repro.measure.supervise import StudySupervisor
from repro.measure.sink import EventSink
from repro.world.build import WorldConfig, build_world

if TYPE_CHECKING:
    from repro.measure.campaign import CampaignStats
    from repro.measure.metrics import ShardTiming
    from repro.obs.span import SpanRecord


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Reproduce the IMC'19 study of Amazon's peering fabric against a "
            "seeded synthetic Internet."
        ),
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's 3,548 peer ASes (default 0.05)")
    parser.add_argument("--seed", type=int, default=7, help="world + campaign seed")
    parser.add_argument("--expansion-stride", type=int, default=4,
                        help="probe every Nth address in expansion /24s (1 = exhaustive)")
    parser.add_argument("--crossval-folds", type=int, default=10)
    parser.add_argument("--skip-vpi", action="store_true",
                        help="skip the multi-cloud VPI detection round")
    parser.add_argument("--skip-crossval", action="store_true")
    parser.add_argument("--workers", type=int, default=1,
                        help="probing worker processes; results are identical "
                             "for any value (default 1 = serial)")
    parser.add_argument("--progress", action="store_true",
                        help="print live campaign progress to stderr")
    parser.add_argument("--fault-plan", type=str, default=None, metavar="SPEC",
                        help="inject deterministic faults, e.g. "
                             "'crash=0.25,slow=0.1,slow-seconds=0.5,"
                             "loss=use1:0.05,rate-limit=0.2,seed=1'")
    parser.add_argument("--shard-timeout", type=float, default=None, metavar="S",
                        help="seconds before a silent pooled shard attempt "
                             "is abandoned and retried inline")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per shard before quarantine (default 2)")
    parser.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                        help="journal completed shards here so a killed run "
                             "can restart without re-probing them")
    parser.add_argument("--resume", action="store_true",
                        help="replay finished shards and completed stages "
                             "from --checkpoint-dir")
    parser.add_argument("--salvage", action="store_true",
                        help="do not probe at all: rebuild a partial report "
                             "from the stage checkpoints in --checkpoint-dir")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="wall-clock budget for the study; exceeding it "
                             "stops at the next stage/shard boundary with a "
                             f"resumable exit (code {EXIT_INTERRUPTED})")
    parser.add_argument("--retry-budget", type=int, default=None, metavar="N",
                        help="study-wide cap on shard retries across all "
                             "campaigns (per-shard --max-retries still applies)")
    parser.add_argument("--abort-after-stage", type=str, default=None,
                        metavar="STAGE", choices=sorted(STAGE_ORDER),
                        help="chaos hook: request a graceful interrupt right "
                             "after STAGE completes (for resume testing)")
    parser.add_argument("--kill-after-stage", type=str, default=None,
                        metavar="STAGE", choices=sorted(STAGE_ORDER),
                        help="chaos hook: SIGKILL this process right after "
                             "STAGE completes (for crash-resume testing)")
    parser.add_argument("--adaptive", action="store_true",
                        help="engage the adaptive control plane: per-region "
                             "circuit breakers over a deterministic health "
                             "ledger, probe deferral behind open breakers, "
                             "and a bounded re-probe recovery stage "
                             "(DESIGN.md 6.6); off = historical digest")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        metavar="N",
                        help="consecutive rate-limit fingerprints that open "
                             "a region's breaker (default 3)")
    parser.add_argument("--recovery-rounds", type=int, default=1,
                        metavar="N",
                        help="bounded re-probe rounds after round 2 "
                             "(default 1; 0 = defer-only, deferred probes "
                             "heal via the salt-0 fallback)")
    parser.add_argument("--data-fault-plan", type=str, default=None,
                        metavar="SPEC",
                        help="degrade the dataset views deterministically, e.g. "
                             "'bgp-stale=0.1,moas=0.05,as2org-drop=0.1,"
                             "ixp-drop=0.2,ixp-conflict=0.1,whois-gap=0.2,"
                             "whois-nameonly=0.3,seed=1'")
    parser.add_argument("--min-confidence", type=float, default=0.0,
                        metavar="C",
                        help="flag CBIs/ABIs/pins whose annotation confidence "
                             "falls below C in the data-quality block "
                             "(default 0 = no flagging)")
    parser.add_argument("--sensitivity", action="store_true",
                        help="also run a clean twin of the study and print "
                             "paper-table deltas (requires --data-fault-plan)")
    parser.add_argument("--digest", action="store_true",
                        help="print the result's sha256 content digest "
                             "(identical across workers/faults/resume)")
    parser.add_argument("--with-bdrmap", action="store_true",
                        help="also run the bdrmap baseline comparison (section 8)")
    parser.add_argument("--with-evaluation", action="store_true",
                        help="score the study against the world's ground truth")
    parser.add_argument("--config", type=str, default=None, metavar="FILE",
                        help="load study configuration from a TOML file "
                             "(see StudyConfig.to_toml); explicit CLI flags "
                             "override the file's values")
    parser.add_argument("--trace", action="store_true",
                        help="record fine-grained worker-side spans (probe "
                             "batches, fault delays); coarse spans are always "
                             "recorded and tracing never changes the digest")
    parser.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                        help="write the study's span trace: *.jsonl -> JSONL, "
                             "anything else -> Chrome trace JSON loadable in "
                             "Perfetto/about:tracing (implies --trace)")
    return parser


def _config_defaults(config: StudyConfig) -> Dict[str, Any]:
    """Map a file-loaded ``StudyConfig`` onto parser defaults.

    Applied via ``parser.set_defaults`` *before* parsing, so any flag the
    user types overrides the file while everything else inherits from it.
    """
    return {
        "scale": config.scale if config.scale is not None else 0.05,
        "seed": config.seed,
        "expansion_stride": config.expansion_stride,
        "crossval_folds": config.crossval_folds,
        "skip_vpi": not config.run_vpi,
        "skip_crossval": not config.run_crossval,
        "workers": config.workers,
        "fault_plan": (
            config.fault_plan.to_spec() if config.fault_plan else None
        ),
        "shard_timeout": config.shard_timeout,
        "max_retries": config.max_retries,
        "checkpoint_dir": config.checkpoint_dir,
        "resume": config.resume,
        "deadline": config.deadline_s,
        "retry_budget": config.retry_budget,
        "adaptive": config.adaptive,
        "breaker_threshold": config.breaker_threshold,
        "recovery_rounds": config.recovery_rounds,
        "data_fault_plan": (
            config.data_fault_plan.to_spec() if config.data_fault_plan else None
        ),
        "min_confidence": config.min_confidence,
        "trace": config.trace,
        "trace_out": config.trace_out,
    }


class _ProgressPrinter(EventSink):
    """Throttled stderr progress for ``--progress``.

    Merged shards of every campaign, VPI included, print the campaign
    record's running count and rate, throttled to ``min_interval`` on
    the monotonic clock, so a wall clock stepping back cannot silence
    it.  Every campaign's last line comes from
    its campaign span closing, which carries the final counters and the
    elapsed time, so the last update can never be swallowed by the
    throttle -- or skipped when the final shard is quarantined and never
    merges.

    The adaptive recovery stage heals campaign records after their
    spans closed.  Each recovery round prints what it recovered when
    its span closes, and when the stage closes, every record it healed
    -- the live one its merged shards carried -- prints a corrected
    line.
    """

    def __init__(self, min_interval: float = 0.5) -> None:
        self._min_interval = min_interval
        self._last_time = -math.inf
        #: each campaign's record by label, as its merged shards carry it.
        self._records: Dict[str, CampaignStats] = {}

    def on_shard_merged(
        self, record: CampaignStats, timing: ShardTiming
    ) -> None:
        self._records[record.label] = record
        merged = record.probes + record.lost_probes
        if merged >= record.expected_probes:
            return  # the campaign span's closing line reports the end
        now = time.monotonic()
        if now - self._last_time < self._min_interval:
            return
        self._last_time = now
        elapsed = timing.campaign_seconds
        rate = record.probes / elapsed if elapsed > 0 else 0.0
        print(
            f"  {record.label}: {record.probes}/{record.expected_probes} "
            f"probes ({_percent(record.probes, record.expected_probes)}), "
            f"{rate:.0f}/s",
            file=sys.stderr,
        )

    def on_span_closed(self, record: SpanRecord) -> None:
        if record.category == "recovery":
            print(
                f"  recovery round {record.name.partition(':')[2]}: "
                f"{int(record.counter('recovered'))} recovered, "
                f"{int(record.counter('pending_after'))} pending",
                file=sys.stderr,
            )
        elif record.category == "stage" and record.name == "recovery":
            for stats in self._records.values():
                if stats.recovered_probes > 0:
                    self._print_recovered(stats)
        elif record.category == "campaign":
            self._print_campaign(record)

    def _print_recovered(self, stats: CampaignStats) -> None:
        text = (
            f"  {stats.label}: {stats.probes}/{stats.expected_probes} probes "
            f"({_percent(stats.probes, stats.expected_probes)}) after "
            f"recovery, {stats.recovered_probes} recovered"
        )
        if stats.lost_probes:
            text += f", {stats.lost_probes} probe(s) lost"
        print(text, file=sys.stderr)

    def _print_campaign(self, record: SpanRecord) -> None:
        label = record.name.partition(":")[2] or record.name
        probes = int(record.counter("probes"))
        expected = int(record.counter("expected"))
        rate = probes / record.duration if record.duration > 0 else 0.0
        text = (
            f"  {label}: {probes}/{expected} probes "
            f"({_percent(probes, expected)}), {rate:.0f}/s, "
            f"{int(record.counter('workers'))} worker(s)"
        )
        lost = int(record.counter("lost"))
        if lost:
            text += f", {lost} probe(s) lost"
        print(text, file=sys.stderr)


def _percent(part: int, whole: int) -> str:
    return f"{(part / whole if whole else 1.0) * 100:.0f}%"


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "audit":
        # `repro audit` runs the static checker: import-graph layering,
        # the schema and API lockfiles, and the REP determinism rules.
        from repro.devtools.audit.driver import main as audit_main

        return audit_main(argv[1:])
    if argv and argv[0] == "trace":
        # `repro trace <file>` renders the self-time table and probe
        # funnel of a trace written by --trace-out.
        from repro.obs.analyze import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "bench":
        # `repro bench [scenario...|--compare old new]` runs the perf
        # scenarios and writes/diffs BENCH_<scenario>.json reports.
        from repro.bench.cli import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "study":
        # `repro study ...` is the explicit spelling of the default
        # subcommand (the resume/salvage docs use it throughout).
        argv = argv[1:]
    parser = build_parser()
    # First pass: find --config so the file's values become the parser
    # defaults; any flag the user actually types then overrides the file.
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    pre_args, _ = pre.parse_known_args(argv)
    file_config: Optional[StudyConfig] = None
    if pre_args.config:
        try:
            file_config = StudyConfig.from_file(pre_args.config)
        except (OSError, TypeError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        parser.set_defaults(**_config_defaults(file_config))
    args = parser.parse_args(argv)
    # Spell these two out before StudyConfig validation gets a chance:
    # the operator fixing a dead run at 3am deserves the exact flag name.
    if args.resume and not args.checkpoint_dir:
        parser.error(
            "--resume replays journals and stage checkpoints from a "
            "checkpoint directory; pass --checkpoint-dir DIR (the same "
            "one the interrupted run used)"
        )
    if args.salvage and not args.checkpoint_dir:
        parser.error(
            "--salvage rebuilds a partial report from stage checkpoints; "
            "pass --checkpoint-dir DIR (the same one the interrupted "
            "run used)"
        )
    try:
        fault_plan = (
            FaultPlan.parse(args.fault_plan) if args.fault_plan else None
        )
        data_fault_plan = (
            DataFaultPlan.parse(args.data_fault_plan)
            if args.data_fault_plan
            else None
        )
        if args.sensitivity and data_fault_plan is None:
            raise ValueError("--sensitivity requires --data-fault-plan")
        config = StudyConfig(
            scale=args.scale,
            seed=args.seed,
            expansion_stride=args.expansion_stride,
            crossval_folds=args.crossval_folds,
            run_vpi=not args.skip_vpi,
            run_crossval=not args.skip_crossval,
            workers=args.workers,
            fault_plan=fault_plan,
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume or args.salvage,
            deadline_s=args.deadline,
            retry_budget=args.retry_budget,
            adaptive=args.adaptive,
            breaker_threshold=args.breaker_threshold,
            recovery_rounds=args.recovery_rounds,
            data_fault_plan=data_fault_plan,
            min_confidence=args.min_confidence,
            retry_backoff_s=(
                file_config.retry_backoff_s
                if file_config is not None
                else 0.05
            ),
            trace=args.trace,
            trace_out=args.trace_out,
        )
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.time()
    print(f"building world (scale={args.scale}, seed={args.seed})...", file=sys.stderr)
    world = build_world(WorldConfig(scale=args.scale, seed=args.seed))
    print(
        f"  {len(world.client_ases)} peer ASes, "
        f"{len(world.interconnections)} interconnections, "
        f"{len(world.interfaces)} interfaces "
        f"({time.time() - t0:.1f}s)",
        file=sys.stderr,
    )

    supervisor = StudySupervisor(
        deadline_s=config.deadline_s,
        retry_budget=config.retry_budget,
        handle_signals=True,
        abort_after_stage=args.abort_after_stage,
        kill_after_stage=args.kill_after_stage,
    )
    study = AmazonPeeringStudy(
        world,
        config,
        events=_ProgressPrinter() if args.progress else None,
        supervisor=supervisor,
    )
    if args.salvage:
        print("salvaging from stage checkpoints (no probing)...",
              file=sys.stderr)
        result, recovered = study.salvage()
        print(render_salvage(result, recovered))
        if args.digest:
            print(f"study digest: {result.digest()}")
        return 0
    print("running the measurement study...", file=sys.stderr)
    try:
        result = study.run()
    except StudyInterrupted as exc:
        done = len(supervisor.stages_completed)
        print(f"study interrupted ({exc}); {done} stage(s) checkpointed",
              file=sys.stderr)
        if config.checkpoint_dir:
            print(
                f"resume with: repro study --resume "
                f"--checkpoint-dir {config.checkpoint_dir} "
                f"(or --salvage for a partial report)",
                file=sys.stderr,
            )
        else:
            print("(no --checkpoint-dir: nothing was persisted; a rerun "
                  "starts from scratch)", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(render_report(result, study.relationships))
    if args.trace_out:
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.digest:
        print(f"study digest: {result.digest()}")

    if args.sensitivity:
        print("running the clean twin for the sensitivity report...",
              file=sys.stderr)
        clean_config = config.replace(
            data_fault_plan=None,
            min_confidence=0.0,
            checkpoint_dir=None,
            resume=False,
            # The twin must not overwrite the main run's trace file.
            trace=False,
            trace_out=None,
        )
        clean_result = AmazonPeeringStudy(world, clean_config).run()
        print()
        print(render_sensitivity(clean_result, result))

    if args.with_bdrmap:
        from repro.bdrmap import BdrmapEngine, compare

        print("\nrunning the bdrmap baseline (section 8)...", file=sys.stderr)
        engine = BdrmapEngine(world, study.bgp_r2, study.relationships, study.engine)
        bdr = engine.run_all()
        home = {
            ip
            for ip in bdr.flip_interfaces()
            if study.bgp_r2.origin_of(ip) in study.cloud_annotators
            or study.annotator_r2.is_home(study.annotator_r2.annotate(ip))
        }
        cmp = compare(bdr, result, study.relationships, home_announced=home)
        print("\nbdrmap comparison (section 8)")
        print(f"  bdrmap: {cmp.bdrmap_abis} ABIs, {cmp.bdrmap_cbis} CBIs, {cmp.bdrmap_ases} ASes")
        print(f"  ours:   {cmp.ours_abis} ABIs, {cmp.ours_cbis} CBIs, {cmp.ours_ases} ASes")
        print(f"  common: {cmp.common_abis} ABIs, {cmp.common_cbis} CBIs, {cmp.common_ases} ASes")
        print(f"  AS0-owner CBIs: {cmp.as0_owner_cbis}; conflicting owners: "
              f"{cmp.conflicting_owner_cbis} (max {cmp.max_owners_per_cbi} owners)")
        print(f"  ABI/CBI flips across regions: {cmp.flip_interfaces}")

    if args.with_evaluation:
        ev = evaluate_study(world, result)
        print("\nground-truth evaluation (not available to the paper's authors)")
        print(f"  ABI precision {ev.borders.abi_precision * 100:.1f}%  recall {ev.borders.abi_recall * 100:.1f}%")
        print(f"  CBI precision {ev.borders.cbi_precision * 100:.1f}%  recall {ev.borders.cbi_recall * 100:.1f}%"
              f"  (near-misses on client routers: {ev.borders.cbi_near_misses})")
        print(f"  pinning accuracy {ev.pinning.accuracy * 100:.1f}% over {ev.pinning.evaluated} interfaces")
        print(f"  VPI lower bound: detected {ev.vpi.detected_true}/{ev.vpi.true_vpi_cbis} true VPI ports "
              f"({ev.vpi.lower_bound_tightness * 100:.0f}%); "
              f"recall of detectable ports {ev.vpi.recall_of_detectable * 100:.0f}%")
        print(f"  interconnections never observed: {ev.unobserved_interconnections} "
              f"(of which {ev.private_vpi_interconnections} private-address VPIs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
