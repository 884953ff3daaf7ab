"""Measurement plane: traceroute, ping, public reachability, alias resolution.

These tools are the *only* window the inference pipeline has onto the
synthetic Internet -- the same observables the paper's authors had onto the
real one.
"""

from repro.measure.alias import AliasResolver
from repro.measure.campaign import (
    CampaignStats,
    CloudMembership,
    expansion_targets,
    round1_targets,
    vpi_target_pool,
)
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.executor import (
    RetryPolicy,
    Shard,
    ShardedExecutor,
    partition_targets,
    plan_shards,
)
from repro.measure.faults import FaultPlan, InjectedWorkerCrash
from repro.measure.metrics import ShardTiming, StudyMetrics
from repro.measure.ping import Pinger
from repro.measure.reachability import PublicVantagePoint
from repro.measure.sink import EventSink
from repro.measure.traceroute import (
    GAP_LIMIT,
    StopReason,
    TraceHop,
    Traceroute,
    TracerouteEngine,
)

__all__ = [
    "AliasResolver",
    "CampaignCheckpoint",
    "CampaignStats",
    "CheckpointStore",
    "CloudMembership",
    "EventSink",
    "FaultPlan",
    "GAP_LIMIT",
    "InjectedWorkerCrash",
    "Pinger",
    "PublicVantagePoint",
    "RetryPolicy",
    "Shard",
    "ShardTiming",
    "ShardedExecutor",
    "StopReason",
    "StudyMetrics",
    "TraceHop",
    "Traceroute",
    "TracerouteEngine",
    "expansion_targets",
    "partition_targets",
    "plan_shards",
    "round1_targets",
    "vpi_target_pool",
]
