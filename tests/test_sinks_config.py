"""The EventSink surface, sink composition, and the StudyConfig redesign."""

import dataclasses

import pytest

from repro.core.borders import BorderObservatory
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.measure.campaign import CampaignStats
from repro.measure.sink import CollectorSink, EventSink, FanoutEvents, NullSink
from repro.measure.traceroute import StopReason, TraceHop, Traceroute


def _trace(region="use1", dst=0x0B000001, completed=True):
    return Traceroute(
        cloud="amazon",
        region=region,
        dst=dst,
        hops=[TraceHop(ttl=1, ip=0x0A000001, rtt_ms=1.0)],
        stop_reason=StopReason.COMPLETED if completed else StopReason.GAP_LIMIT,
    )


class _Tagged(EventSink):
    """Appends ``(event, tag)`` to a shared log for every event."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_probe(self, trace):
        self.log.append(("probe", self.tag))

    def on_span_closed(self, record):
        self.log.append(("span", self.tag))

    def close(self):
        self.log.append(("close", self.tag))


class TestAsEventSink:
    def test_passes_event_sinks_through(self):
        a, b = CollectorSink(), NullSink()
        assert FanoutEvents(a, b).sinks == [a, b]

    def test_deprecated_shims_are_gone(self):
        import repro
        import repro.measure.campaign as campaign_mod
        import repro.measure.metrics as metrics_mod
        import repro.measure.sink as sink_mod

        for name in (
            "as_sink", "FanoutSink", "CallbackSink", "as_event_sink",
            "close_sink", "ProbeSink", "SinkLike", "ProbeSinkEvents",
            "CallbackEvents", "ProgressCallbackEvents", "StatsSink",
        ):
            assert not hasattr(sink_mod, name)
        for name in ("CampaignProgress", "ProgressCallback"):
            assert not hasattr(metrics_mod, name)
        assert not hasattr(campaign_mod, "TraceConsumer")
        assert not hasattr(repro, "as_event_sink")

    def test_observatory_is_a_probe_sink(self, monkeypatch):
        # on_probe must go through the ``ingest`` attribute, so wrapping
        # ``BorderObservatory.ingest`` sees every campaign probe.
        seen = []
        monkeypatch.setattr(
            BorderObservatory, "ingest", lambda self, trace: seen.append(trace)
        )
        observatory = BorderObservatory(annotator=None)
        assert isinstance(observatory, EventSink)
        trace = _trace()
        observatory.on_probe(trace)
        assert seen == [trace]


class TestFanout:
    def test_fanout_delivers_in_order(self):
        order = []
        fan = FanoutEvents(_Tagged("a", order), _Tagged("b", order))
        fan.on_probe(_trace())
        fan.on_probe(_trace())
        assert order == [("probe", "a"), ("probe", "b")] * 2

    def test_fanout_close_propagates(self):
        order = []
        fan = FanoutEvents(_Tagged("a", order), CollectorSink())
        fan.close()
        assert order == [("close", "a")]

    def test_fanout_drops_none_entries(self):
        fan = FanoutEvents(None, CollectorSink(), None)
        assert len(fan.sinks) == 1

    def test_fanout_is_an_event_sink(self):
        assert isinstance(FanoutEvents(), EventSink)


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
        sink.close()

    def test_fanout_events_drops_none_and_fans_out(self):
        order = []
        fan = FanoutEvents(_Tagged("a", order), None, _Tagged("b", order))
        assert len(fan.sinks) == 2
        fan.on_probe(_trace())
        fan.on_span_closed(_span_record())
        fan.on_shard_merged(CampaignStats(label="x"), _TIMING)
        fan.close()
        assert order == [
            ("probe", "a"), ("probe", "b"),
            ("span", "a"), ("span", "b"),
            ("close", "a"), ("close", "b"),
        ]


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

    def test_non_campaign_spans_are_ignored(self, capsys):
        printer = self._printer(min_interval=0.0)
        printer.on_span_closed(_span_record(name="shard:3", category="shard"))
        assert capsys.readouterr().err == ""


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

    def test_cli_errors_on_bad_config_file(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "study.toml"
        path.write_text("wrokers = 4\n")
        with pytest.raises(SystemExit):
            cli_main(["--config", str(path)])
        assert "unknown config key" in capsys.readouterr().err
