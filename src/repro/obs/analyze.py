"""Offline trace analysis: the ``repro trace`` subcommand.

Consumes a saved trace (JSONL or Chrome JSON, see
:mod:`repro.obs.export`) and renders:

* a **top-N self-time table** -- spans grouped by ``(category, name
  family)`` with call counts, total time, and *self* time (total minus
  time attributed to child spans), so the hottest layer of the
  study / stage / campaign / shard / probe-batch hierarchy is obvious;
* a **per-stage probe-yield funnel** -- every campaign span in start
  order with its expected vs. delivered vs. lost probes, retries, and
  quarantines -- the campaign record's final counts, rebuilt purely
  from the span stream.

Everything here is a pure function of the trace file; nothing reads
clocks or the environment.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import read_trace
from repro.obs.span import SpanRecord

__all__ = [
    "CampaignRow",
    "SelfTimeRow",
    "campaign_funnel",
    "main",
    "render_funnel",
    "render_self_time",
    "render_trace_summary",
    "self_time_by_family",
    "self_time_table",
]


def _family(record: SpanRecord) -> Tuple[str, str]:
    """Aggregation key: category plus the name with per-instance ids
    stripped (``shard:17`` -> ``shard``, ``campaign:round1`` stays)."""
    name = record.name
    if record.category in ("shard", "worker", "probe-batch", "pack", "faults"):
        name = name.split(":", 1)[0]
    return (record.category, name)


@dataclass(frozen=True)
class SelfTimeRow:
    """One aggregated row of the self-time table."""

    category: str
    name: str
    count: int
    total_seconds: float
    self_seconds: float


def self_time_table(
    records: Sequence[SpanRecord], top_n: int = 15
) -> List[SelfTimeRow]:
    """Spans aggregated by family, ranked by self time (descending).

    Self time is a span's duration minus the summed durations of its
    direct children, floored at zero (adopted worker spans overlap the
    parent-side wait, so a child can nominally exceed its parent).
    """
    child_time: Dict[int, float] = {}
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration
            )
    totals: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        key = _family(record)
        row = totals.setdefault(key, [0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += record.duration
        row[2] += max(0.0, record.duration - child_time.get(record.span_id, 0.0))
    rows = [
        SelfTimeRow(
            category=key[0],
            name=key[1],
            count=int(agg[0]),
            total_seconds=agg[1],
            self_seconds=agg[2],
        )
        for key, agg in sorted(totals.items())
    ]
    rows.sort(key=lambda r: (-r.self_seconds, r.category, r.name))
    return rows[: max(1, top_n)]


def self_time_by_family(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Self time folded to ``"category/name"`` keys, for machine readers.

    The bench harness records these (sorted keys, floats in seconds) in
    its ``timings`` section; same aggregation as :func:`self_time_table`
    but unranked and untruncated.
    """
    return {
        f"{row.category}/{row.name}": row.self_seconds
        for row in self_time_table(records, top_n=len(records) or 1)
    }


def render_self_time(records: Sequence[SpanRecord], top_n: int = 15) -> str:
    rows = self_time_table(records, top_n)
    wall = max((r.end for r in records), default=0.0)
    lines = [
        f"top {len(rows)} span families by self time "
        f"(trace wall-clock {wall:.2f}s):",
        f"  {'category':<12} {'name':<22} {'count':>7} "
        f"{'total s':>9} {'self s':>9} {'self %':>7}",
    ]
    for row in rows:
        pct = (row.self_seconds / wall * 100.0) if wall > 0 else 0.0
        lines.append(
            f"  {row.category:<12} {row.name:<22} {row.count:>7} "
            f"{row.total_seconds:>9.3f} {row.self_seconds:>9.3f} {pct:>6.1f}%"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class CampaignRow:
    """One campaign reconstructed from its span counters.

    A thin view over the span stream: the campaign record's final
    counts, recovered offline.
    """

    label: str
    seconds: float
    expected: int
    probes: int
    lost: int
    retries: int
    quarantined: int
    resumed: int

    @property
    def yield_fraction(self) -> float:
        return self.probes / self.expected if self.expected else 1.0


def campaign_funnel(records: Sequence[SpanRecord]) -> List[CampaignRow]:
    """Every campaign span, in start order -- the probe-yield funnel."""
    campaigns = sorted(
        (r for r in records if r.category == "campaign"),
        key=lambda r: (r.start, r.span_id),
    )
    rows: List[CampaignRow] = []
    for record in campaigns:
        label = record.name.split(":", 1)[1] if ":" in record.name else record.name
        rows.append(
            CampaignRow(
                label=label,
                seconds=record.duration,
                expected=int(record.counter("expected")),
                probes=int(record.counter("probes")),
                lost=int(record.counter("lost")),
                retries=int(record.counter("retries")),
                quarantined=int(record.counter("quarantined")),
                resumed=int(record.counter("resumed")),
            )
        )
    return rows


def render_funnel(records: Sequence[SpanRecord]) -> str:
    rows = campaign_funnel(records)
    if not rows:
        return "probe funnel: no campaign spans in this trace"
    first = rows[0].probes or 1
    lines = [
        "probe-yield funnel (campaigns in start order):",
        f"  {'campaign':<14} {'probes':>9} {'expected':>9} {'yield':>7} "
        f"{'vs first':>9} {'lost':>6} {'retry':>6} {'quar':>5} {'resume':>7} "
        f"{'secs':>8}",
    ]
    for row in rows:
        lines.append(
            f"  {row.label:<14} {row.probes:>9} {row.expected:>9} "
            f"{row.yield_fraction * 100:>6.1f}% "
            f"{row.probes / first * 100:>8.1f}% {row.lost:>6} "
            f"{row.retries:>6} {row.quarantined:>5} {row.resumed:>7} "
            f"{row.seconds:>8.2f}"
        )
    return "\n".join(lines)


def render_trace_summary(
    path: str, top_n: int = 15, records: Optional[Sequence[SpanRecord]] = None
) -> str:
    """The full ``repro trace`` report for one saved trace file."""
    if records is None:
        meta, records = read_trace(path)
    else:
        meta = {}
    lines = [f"trace: {path} ({len(records)} spans)"]
    if meta:
        lines.append(
            "meta: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
    lines.append("")
    lines.append(render_self_time(records, top_n))
    lines.append("")
    lines.append(render_funnel(records))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro trace <file> [--top N]``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Render the self-time table and probe-yield funnel of a saved "
            "trace (JSONL or Chrome trace JSON from --trace-out)."
        ),
    )
    parser.add_argument("path", help="trace file written by --trace-out")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the self-time table (default 15)")
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        print(render_trace_summary(args.path, top_n=args.top))
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return 0
