"""IPv4 address and prefix primitives.

Everything in the simulator and inference pipeline manipulates IPv4
addresses as plain ``int`` values (0 .. 2**32 - 1) for speed; this module
provides parsing, formatting, prefix arithmetic, and sequential allocators
on top of that representation.

The paper's methodology is prefix-centric: traceroute campaigns target the
``.1`` of every /24 (§3), expansion probing targets the rest of a CBI's /24
(§4.2), and interconnection subnets are /30 or /31 (§4.1, Fig. 2).  The
helpers here exist to make those operations explicit and cheap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

IPv4 = int

MAX_IPV4 = (1 << 32) - 1


class AddressError(ValueError):
    """Raised for malformed addresses, prefixes, or exhausted allocators."""


def parse_ip(text: str) -> IPv4:
    """Parse dotted-quad ``text`` into an integer address.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(addr: IPv4) -> str:
    """Format integer ``addr`` as a dotted quad.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= addr <= MAX_IPV4:
        raise AddressError(f"address out of range: {addr}")
    return ".".join(
        str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def prefix_mask(length: int) -> int:
    """Return the netmask integer for a prefix of ``length`` bits."""
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return (MAX_IPV4 << (32 - length)) & MAX_IPV4


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix (network address + length) with set-like helpers.

    Instances are canonical: the stored ``network`` always has its host
    bits cleared, so two prefixes covering the same range compare equal.
    """

    network: IPv4
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        mask = prefix_mask(self.length)
        if self.network & ~mask & MAX_IPV4:
            object.__setattr__(self, "network", self.network & mask)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        if "/" not in text:
            raise AddressError(f"missing length in prefix: {text!r}")
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(parse_ip(addr_text), int(len_text))

    @classmethod
    def of(cls, addr: IPv4, length: int) -> "Prefix":
        """Return the /``length`` prefix containing ``addr``."""
        return cls(addr & prefix_mask(length), length)

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> IPv4:
        return self.network

    @property
    def last(self) -> IPv4:
        return self.network + self.size - 1

    def __contains__(self, addr: object) -> bool:
        if not isinstance(addr, int):
            return False
        return self.network <= addr <= self.last

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is fully covered by this prefix."""
        return other.length >= self.length and other.network in self

    def overlaps(self, other: "Prefix") -> bool:
        return self.network <= other.last and other.network <= self.last

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Yield the sub-prefixes of ``new_length`` bits, in address order."""
        if new_length < self.length:
            raise AddressError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        step = 1 << (32 - new_length)
        for network in range(self.network, self.last + 1, step):
            yield Prefix(network, new_length)

    def slash24s(self) -> Iterator["Prefix"]:
        """Yield the /24s covered by the prefix (the paper's probing unit)."""
        if self.length > 24:
            yield Prefix.of(self.network, 24)
            return
        yield from self.subnets(24)

    def addresses(self) -> Iterator[IPv4]:
        return iter(range(self.network, self.last + 1))

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


def slash24_of(addr: IPv4) -> Prefix:
    """Return the /24 containing ``addr``."""
    return Prefix.of(addr, 24)


def dot1_of_slash24(p24: Prefix) -> IPv4:
    """The campaign target inside a /24: its ``.1`` address (§3)."""
    if p24.length != 24:
        raise AddressError(f"expected a /24, got /{p24.length}")
    return p24.network + 1


def dot1_targets(slash24s: Iterable[Prefix]) -> List[IPv4]:
    """The ``.1`` of every /24, converted in one batch (§3 sweep list).

    Equivalent to ``[dot1_of_slash24(p) for p in slash24s]`` minus the
    per-call length validation -- the round-1 generator hands this the
    already-validated sweep universe, where at paper scale (15.6M /24s)
    the per-prefix function-call overhead is the dominant cost.
    """
    return [p.network + 1 for p in slash24s]


class IPv4IntervalSet:
    """A union of prefixes flattened to sorted disjoint intervals.

    Membership is one binary search over the merged interval starts
    instead of a linear ``any(ip in block for block in blocks)`` scan,
    which matters on per-hop paths (cloud-membership checks touch every
    responsive hop of every traceroute).
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, prefixes: Iterable[Prefix]) -> None:
        spans = sorted((p.network, p.last) for p in prefixes)
        starts: List[int] = []
        ends: List[int] = []
        for start, end in spans:
            if ends and start <= ends[-1] + 1:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        self._starts = starts
        self._ends = ends

    def __contains__(self, addr: object) -> bool:
        if not isinstance(addr, int):
            return False
        i = bisect_right(self._starts, addr) - 1
        return i >= 0 and addr <= self._ends[i]

    def __len__(self) -> int:
        """Number of disjoint intervals after merging."""
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)


_LPMValue = TypeVar("_LPMValue")


class PrefixLPMIndex(Generic[_LPMValue]):
    """Longest-prefix match over ``(prefix, value)`` pairs in one probe.

    Built once at construction: because two prefixes either nest or are
    disjoint, a single stack sweep over the prefixes (sorted by network,
    then length) flattens the table into disjoint address segments, each
    carrying the *deepest* covering prefix.  ``lookup`` is then a single
    ``bisect`` over the segment starts -- versus up to 33 per-length
    dict probes for the classic scan-by-descending-length table.

    Duplicate prefixes keep the **last** value, matching the dict
    insertion semantics of the table this index replaced.
    """

    __slots__ = ("_starts", "_leaves")

    def __init__(self, entries: Iterable[Tuple[Prefix, _LPMValue]]) -> None:
        deduped: dict = {}
        for prefix, value in entries:
            deduped[prefix] = value
        items = sorted(
            deduped.items(), key=lambda kv: (kv[0].network, kv[0].length)
        )
        starts: List[int] = []
        leaves: List[Optional[Tuple[Prefix, _LPMValue]]] = []

        def emit(start: int, leaf: Optional[Tuple[Prefix, _LPMValue]]) -> None:
            if starts and starts[-1] == start:
                leaves[-1] = leaf
            else:
                starts.append(start)
                leaves.append(leaf)

        stack: List[Tuple[Prefix, _LPMValue]] = []
        for prefix, value in items:
            while stack and stack[-1][0].last < prefix.network:
                closed = stack.pop()
                emit(closed[0].last + 1, stack[-1] if stack else None)
            emit(prefix.network, (prefix, value))
            stack.append((prefix, value))
        while stack:
            closed = stack.pop()
            boundary = closed[0].last + 1
            if boundary <= MAX_IPV4:
                emit(boundary, stack[-1] if stack else None)
        self._starts = starts
        self._leaves = leaves

    def lookup(self, addr: IPv4) -> Optional[Tuple[Prefix, _LPMValue]]:
        """The longest matching ``(prefix, value)`` pair, or ``None``."""
        i = bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        return self._leaves[i]

    @property
    def segment_count(self) -> int:
        """Disjoint address segments the table flattened into."""
        return len(self._starts)


# Special-purpose ranges.  The paper deliberately *keeps* private and shared
# address space as probe targets because Amazon uses them internally (§3),
# but annotation maps them to AS0.
PRIVATE_PREFIXES: Tuple[Prefix, ...] = (
    Prefix.parse("10.0.0.0/8"),
    Prefix.parse("172.16.0.0/12"),
    Prefix.parse("192.168.0.0/16"),
)
SHARED_PREFIX = Prefix.parse("100.64.0.0/10")  # RFC 6598 CGN space
LOOPBACK_PREFIX = Prefix.parse("127.0.0.0/8")
MULTICAST_PREFIX = Prefix.parse("224.0.0.0/4")
RESERVED_PREFIX = Prefix.parse("240.0.0.0/4")


#: Interval-set fast paths for the membership tests below: one bisect
#: instead of a per-prefix scan on paths hit once per observed hop.
_PRIVATE_SET = IPv4IntervalSet(PRIVATE_PREFIXES)
_PRIVATE_OR_SHARED_SET = IPv4IntervalSet(PRIVATE_PREFIXES + (SHARED_PREFIX,))


def is_private(addr: IPv4) -> bool:
    """True for RFC1918 space."""
    return addr in _PRIVATE_SET


def is_shared(addr: IPv4) -> bool:
    """True for RFC6598 shared (CGN) space."""
    return addr in SHARED_PREFIX


def is_private_or_shared(addr: IPv4) -> bool:
    """RFC1918 or RFC6598 in a single interval probe (annotation hot path)."""
    return addr in _PRIVATE_OR_SHARED_SET


def is_probe_excluded(addr: IPv4) -> bool:
    """True for ranges the campaign never targets (§3: broadcast/multicast)."""
    return addr in MULTICAST_PREFIX or addr in RESERVED_PREFIX or addr in LOOPBACK_PREFIX


class PrefixAllocator:
    """Sequentially carve equal-length sub-prefixes out of a parent block.

    Used by the world builder to hand out address space to clouds, client
    ASes, IXPs, and interconnect subnets without overlap.
    """

    def __init__(self, parent: Prefix) -> None:
        self.parent = parent
        self._next = parent.network

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free /``length`` block inside the parent."""
        if length < self.parent.length:
            raise AddressError(
                f"cannot allocate /{length} from /{self.parent.length}"
            )
        size = 1 << (32 - length)
        # Align the cursor to the requested block size.
        aligned = (self._next + size - 1) & ~(size - 1) & MAX_IPV4
        if aligned + size - 1 > self.parent.last:
            raise AddressError(
                f"allocator exhausted: /{length} from {self.parent}"
            )
        self._next = aligned + size
        return Prefix(aligned, length)

    @property
    def remaining(self) -> int:
        """Addresses still unallocated in the parent block."""
        return max(0, self.parent.last - self._next + 1)


class AddressPool:
    """Sequential single-address allocator inside a prefix.

    Skips network/broadcast addresses of the enclosing prefix so allocated
    addresses look like ordinary host addresses.
    """

    def __init__(self, prefix: Prefix, skip_edges: bool = True) -> None:
        self.prefix = prefix
        self._skip_edges = skip_edges and prefix.length < 31
        self._next = prefix.network + (1 if self._skip_edges else 0)

    def allocate(self) -> IPv4:
        last_usable = self.prefix.last - (1 if self._skip_edges else 0)
        if self._next > last_usable:
            raise AddressError(f"address pool exhausted: {self.prefix}")
        addr = self._next
        self._next += 1
        return addr

    def allocate_many(self, count: int) -> List[IPv4]:
        return [self.allocate() for _ in range(count)]

    @property
    def remaining(self) -> int:
        last_usable = self.prefix.last - (1 if self._skip_edges else 0)
        return max(0, last_usable - self._next + 1)


@dataclass(frozen=True)
class InterconnectSubnet:
    """A /30 or /31 linking an Amazon border router and a client router.

    ``provider_side``/``client_side`` are the two usable addresses.  Which
    party *owns* the subnet (``provided_by``) drives the inference ambiguity
    of Fig. 2: when Amazon provides the addresses, the client router's
    response carries an Amazon-owned IP and the naive strategy overshoots.
    """

    prefix: Prefix
    provider_side: IPv4
    client_side: IPv4
    provided_by: str  # "client" or "provider"

    def __post_init__(self) -> None:
        if self.prefix.length not in (30, 31):
            raise AddressError(
                f"interconnect subnets are /30 or /31, got /{self.prefix.length}"
            )
        if self.provider_side not in self.prefix or self.client_side not in self.prefix:
            raise AddressError("interconnect addresses outside subnet")
        if self.provider_side == self.client_side:
            raise AddressError("interconnect endpoints must differ")
        if self.provided_by not in ("client", "provider"):
            raise AddressError(f"bad provided_by: {self.provided_by!r}")

    @classmethod
    def carve(
        cls, allocator: PrefixAllocator, provided_by: str, length: int = 30
    ) -> "InterconnectSubnet":
        """Allocate a fresh interconnect subnet from ``allocator``."""
        prefix = allocator.allocate(length)
        if length == 31:
            a, b = prefix.network, prefix.network + 1
        else:
            a, b = prefix.network + 1, prefix.network + 2
        return cls(prefix=prefix, provider_side=a, client_side=b, provided_by=provided_by)
