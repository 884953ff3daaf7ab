"""Sharded parallel campaign execution with a deterministic ordered merge.

The paper's measurement plane is embarrassingly parallel: round 1 sweeps
15.6M /24s from 15 regions and expansion probing exhausts every /24 around
a discovered CBI (§3, §4.2).  This module splits a campaign's
``regions x targets`` space into deterministic contiguous shards, traces
each shard on a ``multiprocessing`` worker pool, and merges the results
back **in shard order** so downstream consumers (the
``BorderObservatory``, the campaign record) see exactly the
trace stream a serial run would have produced.

Two properties make the merge bit-for-bit reproducible at any worker
count:

* every probe's noise comes from an RNG derived only from
  ``(engine seed, cloud, region, dst)`` -- see
  ``TracerouteEngine.probe_rng`` -- so a trace does not depend on how many
  probes ran before it in the same process;
* shards are enumerated region-major over the exact serial iteration
  order and merged in that order, so the merged stream equals the serial
  stream.

At campaign scale, failure is routine, so the executor is resilient:

* each shard attempt is bounded by :class:`RetryPolicy` -- a per-shard
  timeout, then bounded retries with exponential backoff (a pool-side
  failure retries *inline* in the parent, which always makes progress);
* a shard that exhausts its retries is **quarantined**: its probes are
  reported lost (``CampaignStats.lost_probes`` and completeness) and the
  campaign degrades gracefully instead of dying;
* with a :class:`~repro.measure.checkpoint.CampaignCheckpoint`, every
  completed shard is journalled to disk, and a killed run restarts
  without re-probing finished shards.

A shard's traces cross the pool and reach the journal as one blob
(:func:`~repro.measure.traceroute.pack_traces`): a worker packs it once,
the parent decodes it for the merge and journals the very blob it
received, base64-encoded in a JSON row.  An inline attempt packs its
traces only when a journal needs them.

Because a shard's traces are a pure function of the probe key (plus the
observation-fault plan), none of this changes the merged stream: a run
with injected crashes, timeouts, or a checkpoint resume produces the same
results as a clean serial run once every shard eventually succeeds.

One executor serves every campaign of a study run (round 1, round 2 and
the VPI clouds).  It holds what they share -- world, engine, workers,
retry policy, supervisor, checkpoint store, tracer and the run's one
observer -- and :meth:`ShardedExecutor.run` takes what differs: cloud,
label, targets, the consumer function, the optional adaptive
governor and the consumer of the traces it defers.  The engine's :class:`~repro.measure.faults.FaultPlan` is the
only fault plan: its observation side shapes trace content inside the
engine, and its transport side (crash, slow, poison) fires in
:func:`trace_shard`.

Workers rebuild their ``TracerouteEngine`` from the pickled world plus the
engine seed and fault plan in the pool initializer; no live engine state
ever crosses the process boundary.
"""

from __future__ import annotations

import binascii
import hashlib
import math
import multiprocessing
import signal
import sys
import time
from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ReproError,
    ShardTimeoutError,
    StudyInterrupted,
    wrap_error,
)
from repro.measure.campaign import CampaignStats, CloudMembership
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.faults import FaultPlan
from repro.measure.metrics import ShardTiming
from repro.measure.supervise import StudySupervisor
from repro.measure.sink import EventSink
from repro.measure.traceroute import (
    Traceroute,
    TracerouteEngine,
    pack_traces,
    unpack_traces,
)
from repro.net.ip import IPv4
from repro.obs.span import NULL_TRACER, PackedSpan, Tracer, TracerLike
from repro.world.model import World

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.pool import AsyncResult

    from repro.measure.adapt import ProbeGovernor

#: Target shards per worker per region; >1 keeps the pool load-balanced
#: when shard runtimes are uneven without drowning in pickling overhead.
SHARDS_PER_WORKER = 4

#: Probes per probe-batch span when fine-grained tracing is on; coarse
#: enough that span overhead stays invisible next to the engine work.
PROBE_BATCH = 64


@dataclass(frozen=True)
class Shard:
    """One unit of work: a contiguous slice of targets for one region."""

    index: int
    region: str
    targets: Tuple[IPv4, ...]


@dataclass
class ShardResult:
    """One traced shard: traces in target order, plus timing.

    It crosses the pool and the journal packed (``_pack_result``)."""

    index: int
    region: str
    seconds: float
    #: ``(trace, left_cloud)`` per target, in the shard's target order.
    items: List[Tuple[Traceroute, bool]]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard the executor fights for each shard."""

    #: seconds to wait for a pooled shard before retrying inline;
    #: ``None`` waits forever (the pre-resilience behaviour).
    shard_timeout: Optional[float] = None
    #: attempts beyond the first before the shard is quarantined.
    max_retries: int = 2
    #: first backoff sleep; doubles per retry up to ``backoff_cap_s``.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )


def default_shard_size(n_targets: int, workers: int) -> int:
    """Deterministic shard size: ~`SHARDS_PER_WORKER` shards per worker."""
    if n_targets <= 0:
        return 1
    return max(1, math.ceil(n_targets / max(1, workers * SHARDS_PER_WORKER)))


def partition_targets(
    targets: Sequence[IPv4], shard_size: int
) -> List[Tuple[IPv4, ...]]:
    """Contiguous, order-preserving slices of at most ``shard_size``."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        tuple(targets[i : i + shard_size])
        for i in range(0, len(targets), shard_size)
    ]


def plan_shards(
    regions: Sequence[str], targets: Sequence[IPv4], shard_size: int
) -> List[Shard]:
    """Region-major shard plan matching the serial iteration order."""
    slices = partition_targets(targets, shard_size)
    shards: List[Shard] = []
    for region in regions:
        for chunk in slices:
            shards.append(Shard(index=len(shards), region=region, targets=chunk))
    return shards


# ----------------------------------------------------------------------
# Worker side.  Globals are (re)built once per worker process by the pool
# initializer; only the world, cloud name, engine seed, and fault plan
# cross the process boundary.
# ----------------------------------------------------------------------

_WORKER_STATE: Optional[Tuple[TracerouteEngine, CloudMembership, str, bool]] = None


def _init_worker(
    world: World,
    cloud: str,
    seed: int,
    faults: Optional[FaultPlan],
    worker_spans: bool,
) -> None:
    global _WORKER_STATE
    # A forked worker inherits the parent's signal handlers.  Under the
    # study supervisor's SIGTERM handler it would survive
    # ``pool.terminate()`` and hang the pool's join; cancelling is the
    # parent's job.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The same plan the parent's engine carries, so worker-built engines
    # shape traces and fire transport faults exactly as the parent would.
    engine = TracerouteEngine(world, seed=seed, faults=faults)
    _WORKER_STATE = (engine, CloudMembership(world, cloud), cloud, worker_spans)


def _trace_shard_in_worker(shard: Shard, attempt: int = 0) -> Tuple[Any, ...]:
    assert _WORKER_STATE is not None, "pool initializer did not run"
    engine, membership, cloud, worker_spans = _WORKER_STATE
    if not worker_spans:
        return _pack_result(
            trace_shard(engine, membership, cloud, shard, attempt=attempt)
        )
    # Worker processes cannot share the parent's tracer: record into a
    # local one, time the wire serialization too, and ship the packed
    # spans as an extra wire element the parent adopts under its shard
    # span.  Packed spans never enter checkpoint journals -- the parent
    # journals the first four elements only -- so a resume never
    # replays stale wall-clock.
    tracer = Tracer()
    root = tracer.span(f"worker:{shard.index}", category="worker")
    result = trace_shard(
        engine, membership, cloud, shard, attempt=attempt, tracer=tracer
    )
    root.set("probes", len(result.items))
    with tracer.span(f"pack:{shard.index}", category="pack"):
        packed = _pack_result(result)
    root.close()
    return packed + (tracer.pack(),)


def _pack_result(result: ShardResult) -> Tuple[Any, ...]:
    """The wire tuple: index, region, seconds and the shard's traces as
    one blob.  The blob pickles as a single bytes object, and the parent
    journals it as received (:func:`_journal_row`)."""
    return (result.index, result.region, result.seconds, pack_traces(result.items))


def _unpack_result(packed: Sequence[Any], cloud: str) -> ShardResult:
    # Element 5, when present, is the worker's packed span rows (see
    # _trace_shard_in_worker); it is never journalled.
    index, region, seconds, blob = packed[0], packed[1], packed[2], packed[3]
    return ShardResult(
        index=index,
        region=region,
        seconds=seconds,
        items=unpack_traces(blob, cloud, region),
    )


def _journal_row(packed: Sequence[Any]) -> List[Any]:
    """A wire tuple as a JSON journal row: its first four elements, the
    blob base64-encoded.  (``binascii`` is loaded already; the ``base64``
    module would add 128 KiB to every process for the same bytes.)"""
    blob = binascii.b2a_base64(packed[3], newline=False).decode("ascii")
    return [packed[0], packed[1], packed[2], blob]


def _from_journal(row: Sequence[Any]) -> Tuple[Any, ...]:
    """The wire tuple a :func:`_journal_row` row holds."""
    return (row[0], row[1], row[2], binascii.a2b_base64(row[3]))


def _packed_spans(packed: Sequence[Any]) -> Optional[List[PackedSpan]]:
    """The worker's span rows riding on the wire tuple, if any."""
    if len(packed) > 4 and packed[4]:
        return list(packed[4])
    return None


def trace_shard(
    engine: TracerouteEngine,
    membership: CloudMembership,
    cloud: str,
    shard: Shard,
    attempt: int = 0,
    tracer: TracerLike = NULL_TRACER,
) -> ShardResult:
    """Trace every target of ``shard``; shared by serial and pool paths.

    The transport side of ``engine.faults`` fires here -- an injected
    crash raises before any tracing, a slow shard sleeps -- so serial
    runs, pooled first attempts, and inline retries all see one fault
    schedule.

    ``tracer`` attributes fault-realization delay and engine time
    (``probe-batch`` spans of :data:`PROBE_BATCH` targets); the default
    :data:`~repro.obs.span.NULL_TRACER` costs one no-op call per batch.
    """
    faults = engine.faults
    if faults is not None:
        faults.raise_if_crashed(shard.index, attempt)
        delay = faults.slow_delay(shard.index)
        if delay > 0:
            with tracer.span(f"fault-delay:{shard.index}", category="faults"):
                time.sleep(delay)
    t0 = time.perf_counter()
    items: List[Tuple[Traceroute, bool]] = []
    targets = shard.targets
    for base in range(0, len(targets), PROBE_BATCH):
        batch = targets[base : base + PROBE_BATCH]
        span = tracer.span(f"probe-batch:{shard.index}", category="probe-batch")
        for dst in batch:
            trace = engine.trace(cloud, shard.region, dst)
            items.append((trace, membership.left_cloud(trace)))
        span.set("probes", len(batch))
        span.close()
    return ShardResult(
        index=shard.index,
        region=shard.region,
        seconds=time.perf_counter() - t0,
        items=items,
    )


# ----------------------------------------------------------------------


@dataclass
class _ShardOutcome:
    """What one shard's resume/attempt/retry loop produced.

    ``result`` is ``None`` only for a quarantined shard, whose last
    failure is ``error``.  ``worker_spans`` carries the worker-side
    packed span rows (pool path with tracing on); ``attempts`` counts
    attempts actually made, and ``resumed`` marks a checkpoint replay.
    """

    result: Optional[ShardResult]
    worker_spans: Optional[List[PackedSpan]] = None
    attempts: int = 1
    resumed: bool = False
    error: str = ""


class ShardedExecutor:
    """Runs every campaign of a study over a worker pool (or inline).

    ``workers <= 1`` executes the same shard plan in-process, so the two
    paths share one code path for ordering, the campaign record, retries,
    and checkpoints -- the parallel run differs only in *where* a shard's
    first attempt is traced.

    The supervisor defaults to a bare :class:`StudySupervisor`, which
    has no deadline and no retry budget, so it only answers
    cancellation.  ``events`` is the run's one observer (``None`` means
    a no-op :class:`EventSink`): every campaign run here, and the
    recovery round, report to it.  The executor never closes it; the
    code that built it owns it.  ``tracer`` records a
    ``campaign:<label>`` span per campaign with one ``shard`` span per
    merged shard; ``worker_spans=True`` additionally traces inside shard
    attempts (probe batches, fault delays, wire packing -- worker-side
    rows cross the pool boundary on the wire tuple and are adopted under
    the parent's shard span).  Tracing is digest-neutral: it reads
    ``perf_counter`` only and never touches the merged stream.
    """

    def __init__(
        self,
        world: World,
        engine: TracerouteEngine,
        *,
        workers: int = 1,
        shard_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        supervisor: Optional[StudySupervisor] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        events: Optional[EventSink] = None,
        tracer: TracerLike = NULL_TRACER,
        worker_spans: bool = False,
    ) -> None:
        self.world = world
        self.engine = engine
        self.workers = max(1, workers)
        self.shard_size = shard_size
        self.retry = retry or RetryPolicy()
        self.supervisor = supervisor if supervisor is not None else StudySupervisor()
        self.checkpoint_store = checkpoint_store
        self.events = events if events is not None else EventSink()
        self.tracer = tracer
        self.worker_spans = worker_spans
        self._memberships: Dict[str, CloudMembership] = {}

    def membership(self, cloud: str) -> CloudMembership:
        """The one :class:`CloudMembership` of ``cloud``, built on first use."""
        found = self._memberships.get(cloud)
        if found is None:
            found = self._memberships[cloud] = CloudMembership(self.world, cloud)
        return found

    # ------------------------------------------------------------------

    def run(
        self,
        cloud: str,
        label: str,
        targets: Iterable[IPv4],
        ingest: Callable[[Traceroute], object],
        *,
        regions: Optional[Sequence[str]] = None,
        governor: Optional["ProbeGovernor"] = None,
        deferred: Optional[Callable[[Traceroute], object]] = None,
    ) -> CampaignStats:
        """Trace ``regions x targets`` from ``cloud``, feeding ``ingest``.

        ``targets`` may be any iterable; it is materialized exactly once.
        ``regions`` defaults to every region of ``cloud``.  Each delivered
        trace goes to ``ingest(trace)``, then to the observer's
        ``on_probe``, in serial order; each merged shard fires the
        observer's ``on_shard_merged`` with the campaign's record.  The
        returned :class:`CampaignStats` is that record, labelled
        ``label`` and updated in merge order.  With a checkpoint store,
        completed shards are journalled under ``label`` and replayed on
        the next run.  A ``governor`` makes adaptive admit/defer
        decisions on the merge stream; each trace it defers goes to
        ``deferred(trace)`` instead of ``ingest``, in merge order.
        """
        target_list = (
            targets if isinstance(targets, (list, tuple)) else list(targets)
        )
        regions = list(regions or self.world.region_names(cloud))
        shard_size = self.shard_size or default_shard_size(
            len(target_list), self.workers
        )
        shards = plan_shards(regions, target_list, shard_size)
        checkpoint: Optional[CampaignCheckpoint] = None
        if self.checkpoint_store is not None:
            checkpoint = self.checkpoint_store.campaign(
                label, self._fingerprint(cloud, regions, target_list, shard_size)
            )
        expected = len(target_list) * len(regions)
        stats = CampaignStats(label=label, expected_probes=expected)
        if governor is not None:
            # Deferrals recorded during this campaign carry its label, so
            # the recovery round heals the right round's stats.
            governor.begin_campaign(label)
        campaign_span = self.tracer.span(f"campaign:{label}", category="campaign")
        campaign_span.set("expected", expected)
        campaign_span.set("shards", len(shards))
        campaign_span.set("workers", self.workers)
        started = time.perf_counter()
        try:
            if self.workers <= 1 or len(shards) <= 1:
                self._merge(
                    shards,
                    lambda s: self._run_shard(cloud, s, None, checkpoint, stats),
                    ingest,
                    stats,
                    started,
                    governor,
                    deferred,
                )
            else:
                ctx = _pool_context()
                pool = ctx.Pool(
                    processes=min(self.workers, len(shards)),
                    initializer=_init_worker,
                    initargs=(
                        self.world,
                        cloud,
                        self.engine.seed,
                        self.engine.faults,
                        self.worker_spans,
                    ),
                )
                try:
                    pending = {
                        s.index: pool.apply_async(
                            _trace_shard_in_worker, (s, 0)
                        )
                        for s in shards
                        if checkpoint is None or not checkpoint.has(s.index)
                    }
                    self._merge(
                        shards,
                        lambda s: self._run_shard(
                            cloud, s, pending.get(s.index), checkpoint, stats
                        ),
                        ingest,
                        stats,
                        started,
                        governor,
                        deferred,
                    )
                finally:
                    pool.terminate()
                    pool.join()
        finally:
            campaign_span.set("probes", stats.probes)
            campaign_span.set("lost", stats.lost_probes)
            campaign_span.set("retries", stats.retries)
            campaign_span.set("quarantined", stats.quarantined_shards)
            campaign_span.set("resumed", stats.resumed_shards)
            if stats.deferred_probes:
                campaign_span.set("deferred", stats.deferred_probes)
            campaign_span.close()
            if checkpoint is not None:
                # fsync the journal -- runs on interrupts too, so a
                # cancelled study leaves a durable journal behind.
                checkpoint.finalize()
        return stats

    # ------------------------------------------------------------------

    def _fingerprint(
        self,
        cloud: str,
        regions: Sequence[str],
        targets: Sequence[IPv4],
        shard_size: int,
    ) -> str:
        """Identity of one campaign's shard plan and trace content.

        Transport faults are deliberately excluded (they never change a
        completed shard's traces); observation faults are included via
        ``FaultPlan.probe_signature``.
        """
        engine_faults = self.engine.faults
        probe_sig = (
            engine_faults.probe_signature()
            if engine_faults is not None
            else "clean"
        )
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    "campaign-v1",
                    cloud,
                    self.engine.seed,
                    tuple(regions),
                    shard_size,
                    len(targets),
                    probe_sig,
                )
            ).encode()
        )
        # One bulk conversion instead of a to_bytes() call per target;
        # byteswap keeps the digest byte-identical (big-endian) on
        # little-endian hosts, so existing checkpoint journals stay valid.
        packed = array("I", targets)
        if sys.byteorder == "little":
            packed.byteswap()
        h.update(packed.tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------

    def _run_shard(
        self,
        cloud: str,
        shard: Shard,
        handle: Optional["AsyncResult[Tuple[Any, ...]]"],
        checkpoint: Optional[CampaignCheckpoint],
        stats: CampaignStats,
    ) -> _ShardOutcome:
        """One shard through resume -> attempt -> retry -> quarantine.

        Replays and failed attempts are noted on ``stats`` as they
        happen.  The outcome's ``result`` is ``None`` only when the shard
        is quarantined; the merge then accounts for the lost probes
        instead of crashing the run.  A checkpoint journals the wire
        tuple's first four elements (:func:`_journal_row`), never span
        rows: the blob a worker sent, or, for an inline attempt, the one
        ``_pack_result`` builds for the journal.
        """
        if checkpoint is not None:
            stored = checkpoint.get(shard.index)
            if stored is not None:
                stats.resumed_shards += 1
                return _ShardOutcome(
                    result=_unpack_result(_from_journal(stored), cloud),
                    attempts=0,
                    resumed=True,
                )
        attempt = 0
        worker_packed: Optional[List[PackedSpan]] = None
        while True:
            packed: Optional[Tuple[Any, ...]] = None
            try:
                if handle is not None and attempt == 0:
                    packed = self._wait_for_shard(handle)
                    result = _unpack_result(packed, cloud)
                    worker_packed = _packed_spans(packed)
                else:
                    # Inline attempts run under the currently-open shard
                    # span, so fine-grained spans nest directly -- no
                    # packing needed on this path.
                    result = trace_shard(
                        self.engine,
                        self.membership(cloud),
                        cloud,
                        shard,
                        attempt=attempt,
                        tracer=self.tracer if self.worker_spans else NULL_TRACER,
                    )
                    worker_packed = None
            except StudyInterrupted:
                # Cancellation is not a shard failure: it must never be
                # retried, quarantined, or otherwise absorbed.
                raise
            except Exception as exc:  # worker crash, timeout, injected fault
                # Take the failure's category and message and keep
                # nothing else: the traceback holds this frame, so a local
                # bound to the exception -- or, on the pool path,
                # ``handle``, which keeps the exception it raised -- would
                # close a cycle keeping every later local of this frame (a
                # retried attempt's traces) alive until a full collection.
                exc.__traceback__ = None
                category, error = _account(wrap_error(exc))
                attempt += 1
                stats.note_failure(category)
                if attempt > self.retry.max_retries:
                    return _ShardOutcome(
                        result=None, attempts=attempt, error=error
                    )
                if not self.supervisor.consume_retry():
                    # The study-wide retry budget is spent: degrade now
                    # instead of burning the deadline on a sick campaign.
                    return _ShardOutcome(
                        result=None,
                        attempts=attempt,
                        error=error + " (retry budget exhausted)",
                    )
                # Both quarantine exits above happen *before* any sleep:
                # a retry definitely remains past this point, and only
                # then is a backoff pause justified -- quarantine paths
                # must never sleep.
                backoff = self.retry.backoff_seconds(attempt)
                if backoff > 0:
                    time.sleep(backoff)
                continue
            if checkpoint is not None:
                if packed is None:
                    packed = _pack_result(result)
                checkpoint.put(shard.index, _journal_row(packed))
            return _ShardOutcome(
                result=result,
                worker_spans=worker_packed,
                attempts=attempt + 1,
            )

    def _wait_for_shard(
        self, handle: "AsyncResult[Tuple[Any, ...]]"
    ) -> Tuple[Any, ...]:
        """Wait for a pooled first attempt, under supervision.

        The wait is chopped into short slices so cancellation and the
        deadline are honoured mid-wait.  A shard still silent after
        ``RetryPolicy.shard_timeout`` raises :class:`ShardTimeoutError`,
        and ``_run_shard`` retries it inline.
        """
        timeout = self.retry.shard_timeout
        step = 0.05
        waited = 0.0
        while True:
            self.supervisor.poll()
            try:
                return handle.get(timeout=step)
            except multiprocessing.TimeoutError:
                waited += step
                if timeout is not None and waited >= timeout:
                    raise ShardTimeoutError("shard timeout") from None

    # ------------------------------------------------------------------

    def _merge(
        self,
        shards: Sequence[Shard],
        fetch: Callable[[Shard], _ShardOutcome],
        ingest: Callable[[Traceroute], object],
        stats: CampaignStats,
        started: float,
        governor: Optional["ProbeGovernor"],
        deferred: Optional[Callable[[Traceroute], object]],
    ) -> None:
        """Consume shard results in submission order -- the serial order.

        Each shard gets a ``shard`` span covering the parent-side wait,
        retries, and merge for that shard; worker-side span rows (pool
        path) are adopted under it, so worker time and parent time stay
        separately attributed.  Shard boundaries are the executor's safe
        interrupt points: the supervisor is polled before each shard, so
        a cancelled study stops with every journal record intact.  Each
        merged shard's ``ShardTiming`` carries the seconds since
        ``started``, the campaign's ``perf_counter`` start.

        When a governor is attached its admit/defer decisions happen
        *here*, on the merge stream: merge order is the serial order at
        any worker count, so adaptation never makes the run depend on
        worker scheduling.  A deferred trace reaches ``deferred`` only:
        never ``ingest``, the observer or the campaign's yield.
        """
        tracer = self.tracer
        on_probe = self.events.on_probe
        for shard in shards:
            self.supervisor.poll()
            span = tracer.span(f"shard:{shard.index}", category="shard")
            outcome = fetch(shard)
            result = outcome.result
            if result is None:  # quarantined: degrade, don't die
                stats.note_quarantine(
                    shard.index, shard.region, len(shard.targets), outcome.error
                )
                if governor is not None:
                    governor.note_quarantine(shard.region, shard.targets)
                span.set("probes", 0)
                span.set("lost", len(shard.targets))
                span.set("attempts", outcome.attempts)
                span.close()
                continue
            tracer.adopt_packed(outcome.worker_spans, span)
            deferred_here = 0
            for trace, left_cloud in result.items:
                if governor is not None and not governor.admit(trace):
                    # Open breaker: the trace content is suspect (rate
                    # limited), so re-pace the target into the recovery
                    # queue instead of folding a poisoned observation.
                    stats.lost_probes += 1
                    stats.deferred_probes += 1
                    deferred_here += 1
                    if deferred is not None:
                        deferred(trace)
                    continue
                stats.record(trace, left_cloud)
                ingest(trace)
                on_probe(trace)
            if deferred_here:
                span.set("deferred", deferred_here)
            span.set("probes", len(result.items))
            span.set("worker_seconds", result.seconds)
            if outcome.attempts > 1:
                span.set("attempts", outcome.attempts)
            if outcome.resumed:
                span.set("resumed", 1)
            span.close()
            self.events.on_shard_merged(
                stats,
                ShardTiming(
                    index=result.index,
                    region=result.region,
                    probes=len(result.items),
                    seconds=result.seconds,
                    campaign_seconds=time.perf_counter() - started,
                ),
            )


def _account(failure: ReproError) -> Tuple[str, str]:
    """A failed attempt's error category and quarantine message."""
    if isinstance(failure, ShardTimeoutError):
        return failure.category, "shard timeout"
    return failure.category, str(failure)


def _pool_context() -> "BaseContext":
    """Prefer fork (cheap world sharing); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
