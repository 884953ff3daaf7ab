"""Study observability: stage wall-clock and the per-campaign records.

:class:`StudyMetrics` carries the study's :class:`~repro.obs.span.Tracer`
plus the :class:`~repro.measure.campaign.CampaignStats` record of every
campaign the run probed; it rides on ``StudyResult`` and is rendered by
``render_report``.  Everything it reports is a fold: per-stage
wall-clock (``metrics.stages``) and each campaign's elapsed time, worker
count and shard latencies (``campaign_clock``) over the closed spans,
the resilience rollups over the campaign records.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.obs.span import Span, SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - annotation only (import cycle)
    from repro.measure.campaign import CampaignStats


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock of one merged shard and of its campaign so far."""

    index: int
    region: str
    probes: int
    #: the shard's tracing time, as observed by the worker; a shard
    #: replayed from a journal carries the run that traced it.
    seconds: float
    #: this run's ``perf_counter`` seconds since its campaign started,
    #: at the merge (0.0 when not known).
    campaign_seconds: float = 0.0


class StudyMetrics:
    """Per-stage wall-clock plus the campaign records of one study run.

    Always carries a real :class:`~repro.obs.span.Tracer`: stage,
    campaign, and shard spans are cheap enough to record unconditionally,
    and ``stages`` / the report's timings are views over that stream.
    Fine-grained worker-side spans are opt-in at the executor
    (``worker_spans``).
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        #: the span stream the timings are folded from.
        self.tracer: Tracer = tracer if tracer is not None else Tracer()
        #: campaign label -> record, for the campaigns this run probed
        #: (a stage restored from a checkpoint probes nothing).
        self.campaigns: Dict[str, "CampaignStats"] = {}

    @property
    def stages(self) -> Dict[str, float]:
        """Stage name -> wall-clock seconds, in execution order.

        Folded from the closed stage-category spans, so the dict the
        report renders and the trace a viewer loads cannot disagree.
        """
        folded: Dict[str, float] = {}
        for record in self.tracer.records:
            if record.category == "stage":
                folded[record.name] = folded.get(record.name, 0.0) + record.duration
        return folded

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        """Time a pipeline stage: ``with metrics.stage("round1"): ...``.

        Yields the span so callers can attach attributes (the stage
        runner marks checkpoint-restored stages with ``resumed=1``).
        """
        with self.tracer.span(name, category="stage") as span:
            yield span

    def campaign_clock(
        self, label: str
    ) -> Tuple[Optional[SpanRecord], List[float]]:
        """One campaign's ``campaign:<label>`` span and shard latencies.

        The latencies are the ``worker_seconds`` of the span's merged
        ``shard`` children; a quarantined shard records none.
        """
        records = self.tracer.records
        name = f"campaign:{label}"
        campaign = next(
            (r for r in records if r.category == "campaign" and r.name == name),
            None,
        )
        if campaign is None:
            return None, []
        latencies: List[float] = []
        for r in records:
            if r.parent_id == campaign.span_id and r.category == "shard":
                counters = dict(r.counters)
                if "worker_seconds" in counters:
                    latencies.append(counters["worker_seconds"])
        return campaign, latencies

    def campaign_summary(self, label: str) -> str:
        """One campaign's throughput line: its record, timed by its spans."""
        record = self.campaigns[label]
        span, latencies = self.campaign_clock(label)
        elapsed = span.duration if span is not None else 0.0
        workers = int(span.counter("workers", 1)) if span is not None else 1
        rate = record.probes / elapsed if elapsed > 0 else 0.0
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        text = (
            f"{label}: {record.probes} probes in {elapsed:.1f}s "
            f"({rate:.0f}/s) over {len(latencies)} shards x {workers} "
            f"worker(s); {len(record.by_region)} regions, shard latency "
            f"mean {mean * 1000:.0f}ms / "
            f"max {max(latencies, default=0.0) * 1000:.0f}ms"
        )
        if record.failures or record.quarantined or record.resumed_shards:
            text += (
                f"; resilience: {record.failed_attempts} failed attempt(s), "
                f"{record.quarantined_shards} quarantined, "
                f"{record.resumed_shards} resumed, "
                f"completeness {record.completeness * 100:.1f}%"
            )
        return text

    # --- resilience rollups -------------------------------------------

    @property
    def total_failures(self) -> int:
        return sum(r.failed_attempts for r in self.campaigns.values())

    @property
    def total_quarantined(self) -> int:
        return sum(r.quarantined_shards for r in self.campaigns.values())

    @property
    def total_resumed(self) -> int:
        return sum(r.resumed_shards for r in self.campaigns.values())

    @property
    def degraded(self) -> bool:
        """True when any campaign still misses probes after recovery."""
        return any(r.completeness < 1.0 for r in self.campaigns.values())
