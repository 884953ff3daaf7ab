"""The EventSink surface, the run's one observer, and the StudyConfig redesign."""

import dataclasses

import pytest

from repro.core.borders import BorderObservatory
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.measure.campaign import CampaignStats
from repro.measure.faults import FaultPlan
from repro.measure.sink import EventSink
from repro.measure.traceroute import StopReason, TraceHop, Traceroute
from repro.world.build import WorldConfig, build_world


def _trace(region="use1", dst=0x0B000001, completed=True):
    return Traceroute(
        cloud="amazon",
        region=region,
        dst=dst,
        hops=[TraceHop(ttl=1, ip=0x0A000001, rtt_ms=1.0)],
        stop_reason=StopReason.COMPLETED if completed else StopReason.GAP_LIMIT,
    )


class TestAsEventSink:
    def test_deprecated_shims_are_gone(self):
        import repro
        import repro.measure.campaign as campaign_mod
        import repro.measure.metrics as metrics_mod
        import repro.measure.sink as sink_mod

        for name in (
            "as_sink", "FanoutSink", "CallbackSink", "as_event_sink",
            "close_sink", "ProbeSink", "SinkLike", "ProbeSinkEvents",
            "CallbackEvents", "ProgressCallbackEvents", "StatsSink",
            "FanoutEvents", "CollectorSink", "NullSink",
        ):
            assert not hasattr(sink_mod, name)
            assert not hasattr(repro, name)
        # Nothing in the program closes a sink, so a sink has no close().
        assert not hasattr(EventSink, "close")
        for name in ("CampaignProgress", "ProgressCallback"):
            assert not hasattr(metrics_mod, name)
        assert not hasattr(campaign_mod, "TraceConsumer")
        assert not hasattr(repro, "as_event_sink")


class _CountingObserver(EventSink):
    """Counts delivered probes and collects the labels of merged shards."""

    def __init__(self):
        self.probes = 0
        self.labels = set()

    def on_probe(self, trace):
        self.probes += 1

    def on_shard_merged(self, record, timing):
        self.labels.add(record.label)


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(scale=0.005, seed=13))


class TestRunObserver:
    """Every campaign of a run -- round 1, round 2, recovery and the four
    VPI clouds -- feeds ``BorderObservatory.ingest`` and reports each
    delivered probe to the run's one observer; round 1 also hands each
    trace the governor defers to a planning observatory's ``ingest``."""

    CONFIG = StudyConfig(seed=1, expansion_stride=8, run_crossval=False)

    def _run(self, world, config, monkeypatch):
        # Counted at class level: studybench times the observatory by
        # wrapping ``BorderObservatory.ingest`` by name, so every campaign
        # must reach it through that attribute.
        ingested = []
        ingest = BorderObservatory.ingest

        def counting_ingest(self, trace):
            ingested.append(1)
            return ingest(self, trace)

        monkeypatch.setattr(BorderObservatory, "ingest", counting_ingest)
        observer = _CountingObserver()
        result = AmazonPeeringStudy(world, config, events=observer).run()
        delivered = sum(s.probes for s in result.metrics.campaigns.values())
        return result, observer, len(ingested), delivered

    def test_clean_run_reports_every_probe(self, world, monkeypatch):
        result, observer, ingested, delivered = self._run(
            world, self.CONFIG, monkeypatch
        )
        assert result.digest().startswith("481ee457")
        assert observer.probes == ingested == delivered == 29_192
        assert observer.labels == set(result.metrics.campaigns) == {
            "round1", "round2",
            "vpi:microsoft", "vpi:google", "vpi:ibm", "vpi:oracle",
        }

    def test_recovery_reprobes_reach_ingest_and_the_observer(
        self, world, monkeypatch
    ):
        config = self.CONFIG.replace(
            adaptive=True,
            breaker_threshold=2,
            recovery_rounds=2,
            fault_plan=FaultPlan.parse("rate-limit=0.3w3,seed=7"),
        )
        result, observer, ingested, delivered = self._run(
            world, config, monkeypatch
        )
        assert result.digest().startswith("fbe0ead9")
        assert result.probe_account().recovered > 0
        assert observer.probes == delivered == 29_322
        # Each trace round 1 deferred reaches ``ingest`` once more, on
        # the planning observatory whose CBIs seed round 2.
        deferred = result.round1_stats.deferred_probes
        assert deferred > 0
        assert ingested == delivered + deferred
        assert observer.labels == set(result.metrics.campaigns)
        assert len(observer.labels) == 6


class TestStudyConfig:
    def test_frozen(self):
        config = StudyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 8

    def test_defaults(self):
        config = StudyConfig()
        assert config.workers == 1
        assert config.run_vpi and config.run_crossval
        assert config.scale is None

    def test_replace(self):
        config = StudyConfig(seed=5).replace(workers=4)
        assert (config.seed, config.workers) == (5, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"expansion_stride": 0},
            {"crossval_folds": 1},
            {"workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)

    def test_as_dict_round_trips(self):
        config = StudyConfig(seed=9, workers=3)
        assert StudyConfig(**config.as_dict()) == config


class TestLegacyKwargsShim:
    def test_config_object_does_not_warn(self, tiny_world, recwarn):
        study = AmazonPeeringStudy(tiny_world, StudyConfig(seed=2))
        assert study.config.seed == 2
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]

    def test_unknown_kwarg_rejected(self, tiny_world):
        with pytest.raises(TypeError):
            AmazonPeeringStudy(tiny_world, frobnicate=True)
        # StudyConfig fields are not keyword arguments of the study.
        with pytest.raises(TypeError):
            AmazonPeeringStudy(tiny_world, seed=5)


# ----------------------------------------------------------------------
# The unified EventSink surface (PR 6).
# ----------------------------------------------------------------------

from repro.measure.metrics import ShardTiming  # noqa: E402
from repro.obs.span import SpanRecord  # noqa: E402


def _span_record(name="campaign:round1", category="campaign", **counters):
    return SpanRecord(
        span_id=1,
        parent_id=None,
        name=name,
        category=category,
        start=0.0,
        duration=2.0,
        counters=tuple(sorted((k, float(v)) for k, v in counters.items())),
    )


_TIMING = ShardTiming(index=0, region="use1", probes=4, seconds=0.1)


class TestEventSink:
    def test_base_handlers_are_noops(self):
        sink = EventSink()
        sink.on_probe(_trace())
        sink.on_shard_merged(CampaignStats(label="x"), _TIMING)
        sink.on_span_closed(_span_record())


class TestProgressPrinter:
    """The --progress printer: throttling plus the guaranteed final line."""

    def _printer(self, min_interval):
        from repro.cli import _ProgressPrinter

        return _ProgressPrinter(min_interval=min_interval)

    def _record(self, probes, expected=100):
        return CampaignStats(
            label="round1", expected_probes=expected, probes=probes
        )

    def test_throttle_swallows_intermediate_lines(self, capsys):
        printer = self._printer(min_interval=3600.0)
        printer.on_shard_merged(self._record(10), _TIMING)   # first: printed
        printer.on_shard_merged(self._record(20), _TIMING)   # throttled
        printer.on_shard_merged(self._record(30), _TIMING)   # throttled
        err = capsys.readouterr().err
        assert "round1: 10/100" in err
        assert "20/100" not in err and "30/100" not in err

    def test_campaign_close_always_flushes_final_state(self, capsys):
        # The historical bug: with every trailing shard line throttled
        # away (or the final shard quarantined, so on_shard_merged never
        # fires at 100%), the user's last line understated the campaign.
        printer = self._printer(min_interval=3600.0)
        printer.on_shard_merged(self._record(10), _TIMING)
        printer.on_shard_merged(self._record(90), _TIMING)   # throttled
        printer.on_span_closed(
            _span_record(
                probes=90, expected=100, lost=10, workers=2, retries=3,
            )
        )
        err = capsys.readouterr().err
        assert "round1: 90/100 probes (90%), 45/s, 2 worker(s)" in err
        assert "10 probe(s) lost" in err

    def test_final_flush_dedupes_when_merge_already_printed(self, capsys):
        # The merge that completes a campaign leaves the final line to
        # the campaign span, so 100% prints exactly once.
        printer = self._printer(min_interval=0.0)
        printer.on_shard_merged(self._record(50), _TIMING)
        printer.on_shard_merged(self._record(100), _TIMING)
        printer.on_span_closed(
            _span_record(probes=100, expected=100, workers=2)
        )
        err = capsys.readouterr().err
        assert "50/100" in err
        assert err.count("100/100") == 1

    def test_rate_divides_by_this_runs_campaign_clock(self, capsys):
        # On resume the first merges are journal replays: ``seconds`` is
        # the tracing time of the run that wrote the journal, so a start
        # guessed from it is wrong.  The campaign's own clock is not.
        printer = self._printer(min_interval=0.0)
        replayed = ShardTiming(
            index=0, region="use1", probes=4, seconds=30.0, campaign_seconds=0.5
        )
        printer.on_shard_merged(self._record(40), replayed)
        later = ShardTiming(
            index=1, region="use1", probes=4, seconds=30.0, campaign_seconds=2.0
        )
        printer.on_shard_merged(self._record(60), later)
        err = capsys.readouterr().err
        assert "round1: 40/100 probes (40%), 80/s" in err
        assert "round1: 60/100 probes (60%), 30/s" in err

    def test_wall_clock_stepping_back_does_not_silence_progress(
        self, capsys, monkeypatch
    ):
        # NTP or a VM resume can step the wall clock back an hour; the
        # throttle must not swallow every line until it catches up.
        import time

        clock = {"wall": 1_000_000.0, "mono": 500.0}
        monkeypatch.setattr(time, "time", lambda: clock["wall"])
        monkeypatch.setattr(time, "monotonic", lambda: clock["mono"])
        printer = self._printer(min_interval=0.5)
        printer.on_shard_merged(self._record(10), _TIMING)
        clock["wall"] += 0.6 - 3600.0
        clock["mono"] += 0.6
        printer.on_shard_merged(self._record(20), _TIMING)
        err = capsys.readouterr().err
        assert "round1: 10/100" in err
        assert "round1: 20/100" in err

    def test_non_campaign_spans_are_ignored(self, capsys):
        printer = self._printer(min_interval=0.0)
        printer.on_span_closed(_span_record(name="shard:3", category="shard"))
        assert capsys.readouterr().err == ""

    def test_recovery_prints_its_rounds_and_corrects_healed_rounds(
        self, capsys
    ):
        # Recovery heals the live records after their campaign spans
        # closed, which printed 40 of round 1's probes as lost.
        printer = self._printer(min_interval=3600.0)
        healed = CampaignStats(
            label="round1", expected_probes=100, probes=60,
            lost_probes=40, deferred_probes=40,
        )
        untouched = CampaignStats(label="round2", expected_probes=50, probes=50)
        printer.on_shard_merged(healed, _TIMING)
        printer.on_shard_merged(untouched, _TIMING)
        capsys.readouterr()
        healed.probes, healed.lost_probes, healed.recovered_probes = 98, 2, 38
        printer.on_span_closed(
            _span_record(
                name="recovery:1", category="recovery",
                queued=40, recovered=38, pending_after=2,
            )
        )
        printer.on_span_closed(_span_record(name="round2", category="stage"))
        printer.on_span_closed(_span_record(name="recovery", category="stage"))
        assert capsys.readouterr().err.splitlines() == [
            "  recovery round 1: 38 recovered, 2 pending",
            "  round1: 98/100 probes (98%) after recovery, 38 recovered, "
            "2 probe(s) lost",
        ]


# ----------------------------------------------------------------------
# TOML config files and plan spec round-trips (PR 6).
# ----------------------------------------------------------------------

from repro.datasets.datafaults import DataFaultPlan  # noqa: E402
from repro.measure.faults import FaultPlan  # noqa: E402


def _full_config():
    return StudyConfig(
        scale=0.02,
        seed=9,
        expansion_stride=8,
        crossval_folds=4,
        run_vpi=False,
        workers=3,
        fault_plan=FaultPlan(
            seed=2,
            crash_rate=0.25,
            crash_attempts=2,
            slow_rate=0.1,
            slow_seconds=0.5,
            poison_shards=(3, 7),
            region_loss={"use1": 0.05, "euw1": 0.1},
            rate_limit_rate=0.2,
            rate_limit_window=5,
        ),
        shard_timeout=2.5,
        max_retries=1,
        retry_backoff_s=0.01,
        deadline_s=120.0,
        retry_budget=10,
        data_fault_plan=DataFaultPlan(seed=3, bgp_stale_rate=0.1, whois_gap_rate=0.2),
        min_confidence=0.4,
        trace=True,
        trace_out="trace.json",
    )


class TestPlanSpecs:
    def test_fault_plan_spec_round_trips(self):
        plan = _full_config().fault_plan
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_default_fault_plan_spec_round_trips(self):
        assert FaultPlan.parse(FaultPlan().to_spec()) == FaultPlan()

    def test_data_fault_plan_spec_round_trips(self):
        plan = _full_config().data_fault_plan
        assert DataFaultPlan.parse(plan.to_spec()) == plan
        assert DataFaultPlan.parse(DataFaultPlan().to_spec()) == DataFaultPlan()


class TestTomlConfig:
    def test_round_trip_every_field(self):
        config = _full_config()
        assert StudyConfig.from_toml(config.to_toml()) == config

    def test_round_trip_defaults(self):
        config = StudyConfig()
        assert StudyConfig.from_toml(config.to_toml()) == config

    def test_from_file(self, tmp_path):
        path = tmp_path / "study.toml"
        path.write_text(_full_config().to_toml())
        assert StudyConfig.from_file(path) == _full_config()

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown config key"):
            StudyConfig.from_toml("wrokers = 4\n")

    def test_invalid_value_propagates(self):
        with pytest.raises(ValueError):
            StudyConfig.from_toml("workers = 0\n")

    def test_from_mapping_parses_plan_specs(self):
        config = StudyConfig.from_mapping(
            {"fault_plan": "crash=0.5,seed=4", "data_fault_plan": "moas=0.1,seed=2"}
        )
        assert config.fault_plan == FaultPlan(seed=4, crash_rate=0.5)
        assert config.data_fault_plan == DataFaultPlan(seed=2, moas_rate=0.1)

    def test_from_mapping_accepts_plan_objects(self):
        plan = FaultPlan(seed=1, crash_rate=0.1)
        assert StudyConfig.from_mapping({"fault_plan": plan}).fault_plan is plan


class TestConfigFlagPrecedence:
    """`--config study.toml` with explicit CLI flags as overrides."""

    def test_file_sets_defaults_and_flags_override(self, tmp_path):
        from repro.cli import _config_defaults, build_parser

        config = _full_config()
        parser = build_parser()
        parser.set_defaults(**_config_defaults(config))
        args = parser.parse_args(["--seed", "99", "--workers", "1"])
        # Typed flags win...
        assert args.seed == 99
        assert args.workers == 1
        # ...everything else inherits from the file.
        assert args.scale == 0.02
        assert args.expansion_stride == 8
        assert args.skip_vpi is True
        assert args.skip_crossval is False
        assert args.max_retries == 1
        assert args.shard_timeout == 2.5
        assert args.min_confidence == 0.4
        assert args.trace is True
        assert args.trace_out == "trace.json"
        # Fault plans travel as their canonical spec strings.
        assert FaultPlan.parse(args.fault_plan) == config.fault_plan
        assert (
            DataFaultPlan.parse(args.data_fault_plan) == config.data_fault_plan
        )

    def test_header_command_line_parses_its_own_file(self, tmp_path, monkeypatch):
        """The command a generated file's header names gets past argument
        parsing and reaches the world build with the file's values."""
        import shlex

        import repro.cli as cli

        class WorldBuildReached(Exception):
            pass

        def build_world(world_config):
            raise WorldBuildReached(world_config)

        config = _full_config()
        text = config.to_toml()
        path = tmp_path / "study.toml"
        path.write_text(text)
        header = text.splitlines()[0]
        command = header[header.index("(") + 1 : header.rindex(")")]
        argv = shlex.split(command.replace("<file>", str(path)))
        assert argv[0] == "repro"
        monkeypatch.setattr(cli, "build_world", build_world)
        with pytest.raises(WorldBuildReached) as excinfo:
            cli.main(argv[1:])
        world_config = excinfo.value.args[0]
        assert (world_config.scale, world_config.seed) == (config.scale, config.seed)

    def test_cli_errors_on_bad_config_file(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "study.toml"
        path.write_text("wrokers = 4\n")
        with pytest.raises(SystemExit):
            cli_main(["--config", str(path)])
        assert "unknown config key" in capsys.readouterr().err
