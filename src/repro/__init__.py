"""repro: a full reproduction of "How Cloud Traffic Goes Hiding: A Study of
Amazon's Peering Fabric" (IMC 2019).

The package has four layers:

* :mod:`repro.world` -- a seeded synthetic Internet with ground truth:
  clouds, regions, colo facilities, IXPs, cloud exchanges, client ASes, and
  every flavour of interconnection (public, cross-connect, VPI);
* :mod:`repro.measure` -- the measurement plane (traceroute, ping, public
  reachability, MIDAR-style alias resolution) -- the only window inference
  gets onto the world;
* :mod:`repro.datasets` -- public-data substrates (BGP, WHOIS, as2org,
  PeeringDB, merged IXP view) derived with realistic coverage gaps;
* :mod:`repro.core` -- the paper's methodology: border inference,
  verification heuristics, alias verification, pinning, VPI detection,
  peering grouping, and graph characterisation, plus :mod:`repro.bdrmap`
  (the §8 baseline) and :mod:`repro.analysis` (tables/figures/report).

Cross-cutting: :mod:`repro.obs` is the digest-neutral span tracer and
trace exporter behind ``--trace-out`` / ``repro trace``,
:class:`repro.measure.sink.EventSink` is the run's one observer of
probe / shard-merged / span-closed events (every campaign reports to it,
and whoever builds a sink owns it), and :mod:`repro.bench` is
the ``repro bench`` perf harness (scenario runs folded into diffable
``BENCH_<scenario>.json`` reports).

Quickstart::

    from repro import (
        StudyConfig, WorldConfig, build_world, AmazonPeeringStudy, render_report,
    )

    world = build_world(WorldConfig(scale=0.05, seed=7))
    result = AmazonPeeringStudy(world, StudyConfig(seed=7, workers=4)).run()
    print(render_report(result))
"""

from repro.analysis.report import render_report, render_salvage, render_sensitivity
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.core.results import DataQualityReport, StudyResult
from repro.core.stages import StageStore
from repro.datasets.datafaults import DataFaultPlan
from repro.datasets.validate import validate_datasets
from repro.errors import (
    EXIT_INTERRUPTED,
    DataError,
    DeadlineExceeded,
    ReproError,
    ShardTimeoutError,
    StageError,
    StudyInterrupted,
    TransportError,
)
from repro.measure.checkpoint import CheckpointStore
from repro.measure.executor import RetryPolicy
from repro.measure.faults import FaultPlan
from repro.measure.supervise import StudySupervisor
from repro.measure.sink import EventSink
from repro.obs import (
    NULL_TRACER,
    SpanRecord,
    Tracer,
    read_trace,
    render_trace_summary,
    write_trace,
)
from repro.world.build import WorldConfig, build_world
from repro.world.model import World

__version__ = "4.0.0"

__all__ = [
    "AmazonPeeringStudy",
    "CheckpointStore",
    "DataError",
    "DataFaultPlan",
    "DataQualityReport",
    "DeadlineExceeded",
    "EXIT_INTERRUPTED",
    "EventSink",
    "FaultPlan",
    "NULL_TRACER",
    "ReproError",
    "RetryPolicy",
    "ShardTimeoutError",
    "SpanRecord",
    "StageError",
    "StageStore",
    "StudyConfig",
    "StudyInterrupted",
    "StudyResult",
    "StudySupervisor",
    "Tracer",
    "TransportError",
    "World",
    "WorldConfig",
    "build_world",
    "read_trace",
    "render_report",
    "render_salvage",
    "render_sensitivity",
    "render_trace_summary",
    "validate_datasets",
    "write_trace",
    "__version__",
]
