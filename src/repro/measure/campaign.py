"""Probing campaigns (§3, §4.2, §7.1): their targets and their record.

Round 1 sweeps the ``.1`` of every /24 in the target universe from every
region (:func:`round1_targets`).  Round 2 ("expansion probing") targets
every other address of the /24s around the CBIs discovered in round 1
(:func:`expansion_targets`).  The VPI round re-probes a target pool from
the four other clouds (:func:`vpi_target_pool`).  Every campaign runs on
the study's one :class:`~repro.measure.executor.ShardedExecutor`, which
feeds each delivered trace to the campaign's consumer function, reports
it to the run's one :class:`~repro.measure.sink.EventSink` observer, and
keeps one :class:`CampaignStats` record per campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.net.ip import IPv4, IPv4IntervalSet, dot1_targets, is_private_or_shared
from repro.measure.traceroute import Traceroute
from repro.world.model import World


@dataclass
class CampaignStats:
    """The one record of a probing campaign: its §3 yield and account.

    The executor updates it once per merged shard, failed attempt,
    quarantine and replayed shard, and the recovery round heals it in
    place.  Everything else reads it: the campaign span counters,
    ``EventSink.on_shard_merged``, the report's throughput and
    resilience blocks, ``--progress`` and the ``StudyMetrics`` rollups.

    The last three fields say *how* the yield was obtained, which
    depends on the execution schedule; they are left out of ``==`` (and
    of the study digest), so a retried or resumed campaign still equals
    a clean one.
    """

    label: str = "campaign"
    #: regions x targets the campaign set out to probe.
    expected_probes: int = 0
    probes: int = 0
    completed: int = 0
    left_cloud: int = 0
    gap_limited: int = 0
    #: probes not delivered: their shard was quarantined, or they were
    #: deferred and recovery has not healed them (yet).
    lost_probes: int = 0
    #: probes re-paced behind an open circuit breaker (adaptive runs
    #: only); counted in ``lost_probes`` until recovery heals them.
    deferred_probes: int = 0
    #: probes the recovery round delivered after deferral/quarantine.
    recovered_probes: int = 0
    by_region: Dict[str, int] = field(default_factory=dict)
    #: failed shard attempts by error category, in first-seen order.
    failures: Dict[str, int] = field(default_factory=dict, compare=False)
    #: quarantined shard index -> (region, probes lost, error).
    quarantined: Dict[int, Tuple[str, int, str]] = field(
        default_factory=dict, compare=False
    )
    #: shards replayed from a checkpoint journal instead of re-probed.
    resumed_shards: int = field(default=0, compare=False)

    def record(self, trace: Traceroute, left_cloud: bool) -> None:
        self.probes += 1
        self.by_region[trace.region] = self.by_region.get(trace.region, 0) + 1
        if trace.completed:
            self.completed += 1
        else:
            self.gap_limited += 1
        if left_cloud:
            self.left_cloud += 1

    def note_failure(self, category: str) -> None:
        self.failures[category] = self.failures.get(category, 0) + 1

    def note_quarantine(
        self, index: int, region: str, probes: int, error: str
    ) -> None:
        self.lost_probes += probes
        self.quarantined[index] = (region, probes, error)

    @property
    def quarantined_shards(self) -> int:
        return len(self.quarantined)

    @property
    def failed_attempts(self) -> int:
        return sum(self.failures.values())

    @property
    def retries(self) -> int:
        """Failed attempts that were retried (not final quarantines)."""
        return self.failed_attempts - len(self.quarantined)

    @property
    def completeness(self) -> float:
        """Delivered / expected probes; < 1.0 after shard quarantine."""
        expected = self.probes + self.lost_probes
        return self.probes / expected if expected else 1.0

    @property
    def completed_fraction(self) -> float:
        return self.completed / self.probes if self.probes else 0.0

    @property
    def left_cloud_fraction(self) -> float:
        return self.left_cloud / self.probes if self.probes else 0.0


class CloudMembership:
    """Decides whether a trace escaped the probing cloud's address space.

    Stateless after construction: the executor builds one per cloud
    (``ShardedExecutor.membership``) and each pool worker rebuilds it
    from ``(world, cloud)``.
    """

    def __init__(self, world: World, cloud: str) -> None:
        # Flattened to disjoint intervals once: membership is one bisect
        # per hop instead of a scan over every announced/infra block.
        self._own = IPv4IntervalSet(
            list(world.cloud_announced_blocks.get(cloud, []))
            + list(world.cloud_infra_blocks.get(cloud, []))
        )

    def left_cloud(self, trace: Traceroute) -> bool:
        own = self._own
        dst = trace.dst
        for ip in trace.responsive_ips:
            if ip == dst:
                continue
            if ip not in own and not is_private_or_shared(ip):
                return True
        return False


def round1_targets(world: World) -> List[IPv4]:
    """The ``.1`` of every /24 in the sweep universe (§3).

    Materialized in one batched pass (the executor needs the full list
    anyway to plan shards) instead of a generator that converts prefixes
    one call at a time.
    """
    return dot1_targets(world.sweep_slash24s)


def expansion_targets(cbi_ips: Iterable[IPv4], stride: int = 1) -> List[IPv4]:
    """All other addresses in the /24 of every discovered CBI (§4.2).

    ``stride`` sub-samples each /24 for cheaper runs; 1 reproduces the
    paper's exhaustive expansion.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    # Batched /24 conversion: one masking pass collects the distinct
    # nets (keyed by the lowest CBI that claimed each, preserving the
    # historical per-net exclusion), then a precomputed offset row is
    # replayed per net instead of re-deriving it 254/stride times per /24.
    claimed: Dict[int, int] = {}
    for cbi in sorted(set(cbi_ips)):
        net = cbi & 0xFFFFFF00
        if net not in claimed:
            claimed[net] = cbi
    offsets = tuple(range(1, 255, stride))
    targets: List[IPv4] = []
    for net, cbi in sorted(claimed.items()):
        targets.extend(
            addr for addr in (net + o for o in offsets) if addr != cbi
        )
    return targets


def vpi_target_pool(
    non_ixp_cbis: Iterable[IPv4], discovery_dsts: Iterable[IPv4]
) -> List[IPv4]:
    """§7.1's probe pool: non-IXP CBIs, their +1 addresses, and the
    destinations of the traceroutes that discovered each CBI."""
    pool: Set[IPv4] = set()
    for cbi in non_ixp_cbis:
        pool.add(cbi)
        pool.add(cbi + 1)
    pool.update(discovery_dsts)
    return sorted(pool)
