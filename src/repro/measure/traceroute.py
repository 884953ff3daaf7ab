"""Scamper-like traceroute engine over the synthetic Internet.

Reproduces the measurement semantics of §3: UDP probes from a region's VM,
per-hop responses with the *incoming* interface (usually -- a configurable
fraction of client border routers answer with a different own interface,
the classic third-party artifact of §9), termination after five consecutive
unresponsive hops, and a status flag describing how the probe ended.

The engine is the only component that turns ground-truth ``PathPlan``s into
observable measurements; everything downstream sees only ``Traceroute``
records.

Every probe draws its noise (responsiveness, loss, jitter, loop injection)
from an RNG derived solely from ``(engine seed, cloud, region, dst)``.  A
probe's outcome therefore never depends on how many probes ran before it,
which is what lets the sharded executor split a campaign across worker
processes and still reproduce the serial run bit for bit.

The per-hop work reads tables instead of recomputing: each hop's RTT leg
comes from a per-engine ``(previous metro, metro)`` table filled on first
use, and a third-party responder's answer from a dict built once at
engine init.  The legs are still added one by one from the VM's metro, in
path order, so every RTT is the float the unmemoised sum gave.

Traces become bytes in one place: :func:`pack_traces` turns a list of
``(trace, left_cloud)`` pairs into one little-endian blob, and
:func:`unpack_traces` gives back exactly those traces, every RTT's bits
included.  The pool wire, the checkpoint journals and the adaptive
governor's deferred baselines all carry this blob.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass
from math import log
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.net.geo import MetroCatalog
from repro.net.ip import IPv4

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.measure.faults import FaultPlan
from repro.world.entities import RouterRole
from repro.world.model import PathPlan, World

#: Scamper's gap limit used by the paper: five unresponsive hops (§3).
GAP_LIMIT = 5


class StopReason:
    """How a traceroute ended (string enum, mirrors scamper stop flags)."""

    COMPLETED = "completed"
    GAP_LIMIT = "gaplimit"
    LOOP = "loop"


class TraceHop(NamedTuple):
    """One TTL slot: the answering interface (or None) and its RTT."""

    ttl: int
    ip: Optional[IPv4]
    rtt_ms: Optional[float]


@dataclass
class Traceroute:
    """One completed measurement."""

    cloud: str
    region: str
    dst: IPv4
    hops: List[TraceHop]
    stop_reason: str

    @property
    def responsive_ips(self) -> List[IPv4]:
        return [h.ip for h in self.hops if h.ip is not None]

    @property
    def completed(self) -> bool:
        return self.stop_reason == StopReason.COMPLETED


class TracerouteEngine:
    """Executes probes against a :class:`World`."""

    def __init__(
        self,
        world: World,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        self.world = world
        self.config = world.config
        self.seed = seed
        self.faults = faults
        # Only observation faults matter here; transport faults (crashes,
        # slow shards) are the executor's business.
        self._probe_faults = (
            faults if faults is not None and faults.affects_probes else None
        )
        # Violating the incoming-interface convention is a router *config*
        # property, not a per-probe accident: the same routers misbehave
        # on every probe (§9 cites >50% compliance overall).
        rate = self.config.third_party_response_rate
        world_seed = getattr(self.config, "seed", 0)
        self._third_party_routers = {
            rid
            for rid, router in world.routers.items()
            if router.role == RouterRole.CLIENT_BORDER
            and ((rid * 2654435761 + world_seed * 97) & 0xFFFF) / 65536.0 < rate
        }
        #: router id -> the fixed default (first) interface a third-party
        #: responder answers with instead of the incoming one.
        self._third_party_answer: Dict[int, IPv4] = {
            rid: world.routers[rid].interface_ips[0]
            for rid in self._third_party_routers
            if world.routers[rid].interface_ips
        }
        self._legs = _LegTable(world.catalog)

    # ------------------------------------------------------------------

    def probe_rng(self, cloud: str, region: str, dst: IPv4) -> random.Random:
        """The per-probe noise stream: a pure function of the probe key."""
        return random.Random(repr(("probe", self.seed, cloud, region, dst)))

    def trace(
        self, cloud: str, region: str, dst: IPv4, salt: int = 0
    ) -> Traceroute:
        """Probe ``dst`` from the VM in ``region`` of ``cloud``.

        ``salt`` re-keys only the observation-fault draws (see
        ``FaultPlan.hop_suppressed``); the base noise stream is always
        the probe's own, so ``salt=0`` reproduces the historical trace
        byte-for-byte and a salted re-probe differs *only* where the
        fault plan fired.  The adaptive recovery round is the one
        caller that passes a non-zero salt.
        """
        plan = self.world.resolve_path(cloud, region, dst)
        return self._realize(
            plan, cloud, region, self.probe_rng(cloud, region, dst), salt
        )

    def _realize(
        self,
        plan: PathPlan,
        cloud: str,
        region: str,
        rng: random.Random,
        salt: int = 0,
    ) -> Traceroute:
        cfg = self.config
        legs = self._legs
        third_party_answer = self._third_party_answer
        draw = rng.random
        loss_rate = cfg.probe_loss_rate
        hop_ms = cfg.hop_processing_ms
        # A hop's jitter is ``rng.expovariate(jitter_rate)`` inlined:
        # CPython 3.11's body is ``-log(1.0 - random()) / lambd``, so the
        # floats are bit-identical (tests/test_traceroute.py checks it).
        jitter_rate = 1.0 / max(cfg.ping_jitter_ms, 1e-6)
        dst = plan.dest_ip

        hops: List[TraceHop] = []
        gap = 0
        ttl = 0
        cum_rtt = 0.0
        prev_metro = self.world.regions[cloud][region].metro_code
        seen_ips: List[IPv4] = []
        loop_injected = draw() < cfg.loop_rate
        faults = self._probe_faults
        # The rate-limit window is the probe's, not the hop's: draw it once.
        window = (
            faults.rate_limited_ttls(cloud, region, dst, salt)
            if faults is not None
            else None
        )

        for router_id, incoming, metro, responsiveness in plan.hops:
            ttl += 1
            cum_rtt = cum_rtt + legs[prev_metro, metro]
            prev_metro = metro
            responds = (
                responsiveness > 0.0
                and draw() < responsiveness
                and draw() >= loss_rate
            )
            # Injected loss / rate-limit windows draw from their own pure
            # hash (never ``rng``), so the base noise stream -- and with
            # it every fault-free hop -- matches the clean run exactly.
            if (
                responds
                and faults is not None
                and faults.hop_suppressed(cloud, region, dst, ttl, salt, window)
            ):
                responds = False
            if not responds:
                hops.append(TraceHop(ttl, None, None))
                gap += 1
                if gap >= GAP_LIMIT:
                    return Traceroute(cloud, region, dst, hops, StopReason.GAP_LIMIT)
                continue
            gap = 0
            ip = third_party_answer.get(router_id, incoming)
            if loop_injected and seen_ips and ttl > 2:
                # A forwarding loop: repeat an earlier interface once.
                ip = seen_ips[rng.randrange(len(seen_ips))]
                loop_injected = False
            rtt = cum_rtt + hop_ms * ttl + -log(1.0 - draw()) / jitter_rate
            hops.append(TraceHop(ttl, ip, rtt))
            seen_ips.append(ip)

        dest_responds = plan.dest_responds and draw() >= loss_rate
        if (
            dest_responds
            and faults is not None
            and faults.hop_suppressed(cloud, region, dst, ttl + 1, salt, window)
        ):
            dest_responds = False
        if dest_responds:
            ttl += 1
            rtt = cum_rtt + hop_ms * ttl + -log(1.0 - draw()) / jitter_rate
            hops.append(TraceHop(ttl, dst, rtt))
            return Traceroute(cloud, region, dst, hops, StopReason.COMPLETED)

        # Unresponsive tail until the gap limit fires.
        for _ in range(GAP_LIMIT - gap):
            ttl += 1
            hops.append(TraceHop(ttl, None, None))
        return Traceroute(cloud, region, dst, hops, StopReason.GAP_LIMIT)


class _LegTable(dict):
    """``(from metro, to metro)`` -> the catalog's RTT for that leg,
    computed on first use."""

    def __init__(self, catalog: MetroCatalog) -> None:
        super().__init__()
        self.catalog = catalog

    def __missing__(self, key: Tuple[str, str]) -> float:
        leg = self[key] = self.catalog.rtt_ms(*key)
        return leg


# ----------------------------------------------------------------------
# the packed-trace codec
# ----------------------------------------------------------------------

#: One packed trace's header: destination, stop-reason code,
#: ``left_cloud`` flag and hop count.  10 bytes.  The hops' presence
#: flags follow, one byte per hop (1: address, 2: RTT), then each hop's
#: fields.
_TRACE = struct.Struct("<IBBI")
#: A hop's fields by its presence flags: its TTL, then its address and
#: its RTT's bits when present.  An absent field takes no bytes.
_HOP_FIELDS = ("H", "HI", "Hd", "HId")
_HOP_STRUCTS = tuple(struct.Struct("<" + fields) for fields in _HOP_FIELDS)
_STOP_REASONS = (StopReason.COMPLETED, StopReason.GAP_LIMIT, StopReason.LOOP)
_STOP_CODES = {reason: code for code, reason in enumerate(_STOP_REASONS)}

#: Builds a :class:`TraceHop` from a ``(ttl, ip, rtt)`` triple without a
#: Python-level call.
_make_hop: Callable[[Iterable[Any]], TraceHop] = functools.partial(
    tuple.__new__, TraceHop
)


def pack_traces(items: Iterable[Tuple[Traceroute, bool]]) -> bytes:
    """``(trace, left_cloud)`` pairs as one little-endian blob.

    Each trace keeps its destination, stop reason, flag and hops; its
    cloud and region are left out, since every trace of a shard shares
    them, and :func:`unpack_traces` takes them back.  A hop keeps its
    TTL (0 to 65535), its address (``None`` or 0 to 2**32 - 1) and its
    RTT (``None`` or any float, bit for bit), each independently of the
    others; a field out of range raises :class:`struct.error`.  One
    ``bytes`` object pickles in one copy and is not tracked by the
    cyclic GC, unlike a tuple per hop.
    """
    pack_trace = _TRACE.pack
    silent, addressed, timed, answered = (hop.pack for hop in _HOP_STRUCTS)
    parts: List[bytes] = []
    for trace, left in items:
        hops = trace.hops
        flags = bytearray()
        fields: List[bytes] = []
        for ttl, ip, rtt in hops:
            if ip is None:
                if rtt is None:
                    flags.append(0)
                    fields.append(silent(ttl))
                else:
                    flags.append(2)
                    fields.append(timed(ttl, rtt))
            elif rtt is None:
                flags.append(1)
                fields.append(addressed(ttl, ip))
            else:
                flags.append(3)
                fields.append(answered(ttl, ip, rtt))
        parts.append(
            pack_trace(trace.dst, _STOP_CODES[trace.stop_reason], left, len(hops))
        )
        parts.append(flags)
        parts += fields
    return b"".join(parts)


def unpack_traces(
    blob: bytes, cloud: str, region: str
) -> List[Tuple[Traceroute, bool]]:
    """The ``(trace, left_cloud)`` pairs :func:`pack_traces` packed into
    ``blob``, in order, each trace probed from ``region`` of ``cloud``.

    Hop by hop, with the struct its presence flags name.  A struct per
    trace, built for its flag pattern and cached, decoded within 10% of
    this either way, and such a cache grows with every new pattern."""
    view = memoryview(blob)
    unpack_trace = _TRACE.unpack_from
    readers = [(hop.unpack_from, hop.size) for hop in _HOP_STRUCTS]
    make_hop = _make_hop
    items: List[Tuple[Traceroute, bool]] = []
    offset = 0
    while offset < len(blob):
        dst, code, left, count = unpack_trace(view, offset)
        offset += _TRACE.size
        flags = blob[offset : offset + count]
        offset += count
        hops: List[TraceHop] = []
        for flag in flags:
            read, size = readers[flag]
            fields = read(view, offset)
            offset += size
            if flag == 3:
                hops.append(make_hop(fields))
            elif flag == 0:
                hops.append(make_hop((fields[0], None, None)))
            elif flag == 1:
                hops.append(make_hop((*fields, None)))
            else:
                hops.append(make_hop((fields[0], None, fields[1])))
        items.append(
            (Traceroute(cloud, region, dst, hops, _STOP_REASONS[code]), bool(left))
        )
    return items
