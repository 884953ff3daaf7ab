"""The observer of a study run's event stream.

:class:`EventSink` is the one observer type of the measurement plane,
with three events:

* ``on_probe(trace)`` -- one delivered traceroute, in serial order;
* ``on_shard_merged(record, timing)`` -- a shard's results just entered
  the merged stream (``record`` is the campaign's live
  :class:`~repro.measure.campaign.CampaignStats`);
* ``on_span_closed(record)`` -- a tracer span closed (study, stage,
  campaign, shard, probe-batch, ...).

All handlers default to no-ops, so a sink subclasses only what it
needs.  A run has one observer: every campaign reports to it, and the
code that builds a sink owns it -- nothing in the program closes one.
A campaign's *consumer* is not a sink but a plain function of one
trace (``BorderObservatory.ingest``, ``list.append``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.measure.traceroute import Traceroute

if TYPE_CHECKING:
    from repro.measure.campaign import CampaignStats
    from repro.measure.metrics import ShardTiming
    from repro.obs.span import SpanRecord


class EventSink:
    """The run's observer; every handler is a no-op.

    Subclass and override only the events you care about.
    """

    def on_probe(self, trace: Traceroute) -> None:
        pass

    def on_shard_merged(
        self, record: "CampaignStats", timing: "ShardTiming"
    ) -> None:
        pass

    def on_span_closed(self, record: "SpanRecord") -> None:
        pass
