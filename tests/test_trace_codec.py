"""The packed-trace codec against its predecessor (DESIGN.md §6.3's oracle rule).

Shards once crossed the pool and reached the checkpoint journals as a
tuple per trace and a tuple per hop.  That round trip survives below as
a test-local oracle: ``_old_pack_result`` and ``_old_unpack_result`` are
copies of the executor's former wire functions.  ``pack_traces`` and
``unpack_traces`` must decode every shard to what the old round trip
gave, RTTs compared by their bits (``float.hex``).  Alongside: fixed
whole-shard cases, and the executor's wire and journal rows built from
the blob.
"""

from __future__ import annotations

import json
import math
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.measure.executor import (  # noqa: E402
    ShardResult,
    _from_journal,
    _journal_row,
    _pack_result,
    _unpack_result,
)
from repro.measure.traceroute import (  # noqa: E402
    StopReason,
    TraceHop,
    Traceroute,
    pack_traces,
    unpack_traces,
)

CLOUD = "amazon"
REGION = "eu-west-1"
REASONS = [StopReason.COMPLETED, StopReason.GAP_LIMIT, StopReason.LOOP]

hop_st = st.builds(
    TraceHop,
    st.integers(0, 2**16 - 1),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.one_of(
        st.none(),
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308]),
    ),
)


def _exact(trace: Traceroute) -> tuple:
    """A trace's content, with each RTT's bits (``-0.0 != 0.0`` here)."""
    return (
        trace.cloud,
        trace.region,
        trace.dst,
        trace.stop_reason,
        [
            (h.ttl, h.ip, None if h.rtt_ms is None else h.rtt_ms.hex())
            for h in trace.hops
        ],
    )


def _exact_items(items) -> list:
    return [(_exact(trace), left) for trace, left in items]


# ----------------------------------------------------------------------
# the oracle: the executor's former tuple wire
# ----------------------------------------------------------------------


def _old_pack_result(result: ShardResult) -> tuple:
    return (
        result.index,
        result.region,
        result.seconds,
        [
            (
                trace.dst,
                trace.stop_reason,
                tuple((h.ttl, h.ip, h.rtt_ms) for h in trace.hops),
                left,
            )
            for trace, left in result.items
        ],
    )


def _old_unpack_result(packed, cloud: str) -> ShardResult:
    index, region, seconds, rows = packed[0], packed[1], packed[2], packed[3]
    items = [
        (
            Traceroute(
                cloud=cloud,
                region=region,
                dst=dst,
                hops=list(map(TraceHop._make, hops)),
                stop_reason=stop_reason,
            ),
            left,
        )
        for dst, stop_reason, hops, left in rows
    ]
    return ShardResult(index=index, region=region, seconds=seconds, items=items)


# ----------------------------------------------------------------------
# whole-shard cases
# ----------------------------------------------------------------------


def _trace(dst, hops, reason=StopReason.COMPLETED, region=REGION):
    return Traceroute(CLOUD, region, dst, [TraceHop(*h) for h in hops], reason)


SHARDS = {
    "empty shard": [],
    "empty hop list": [(_trace(9, []), False)],
    "several traces, both flags": [
        (_trace(0x0A000001, [(1, 10, 0.5), (2, None, None), (3, 0x0A000001, 7.25)]), True),
        (_trace(0, [(1, 0, 0.0), (2, 0, None), (3, None, -0.0)], StopReason.GAP_LIMIT), False),
        (_trace(2**32 - 1, [(65535, 2**32 - 1, 1e300)], StopReason.LOOP), True),
        (_trace(7, []), False),
    ],
    "infinite RTTs": [
        (_trace(5, [(1, 1, math.inf), (2, 2, -math.inf), (0, None, math.inf)]), True),
    ],
}


@pytest.mark.parametrize("items", SHARDS.values(), ids=list(SHARDS))
def test_whole_shards_round_trip(items):
    blob = pack_traces(items)
    assert isinstance(blob, bytes)
    back = unpack_traces(blob, CLOUD, REGION)
    assert _exact_items(back) == _exact_items(items)
    assert all(type(left) is bool for _, left in back)
    assert all(type(h) is TraceHop for trace, _ in back for h in trace.hops)
    result = ShardResult(index=3, region=REGION, seconds=0.25, items=items)
    old = _old_unpack_result(_old_pack_result(result), CLOUD)
    assert _exact_items(back) == _exact_items(old.items)


def test_empty_shard_is_empty_bytes():
    assert pack_traces([]) == b""
    assert unpack_traces(b"", CLOUD, REGION) == []


def test_out_of_range_fields_refuse_to_pack():
    """Exactness has a range: a TTL past 65535 or an address past 2**32 - 1
    would not come back, so it is refused, never truncated."""
    with pytest.raises(struct.error):
        pack_traces([(_trace(1, [(65536, 1, 1.0)]), False)])
    with pytest.raises(struct.error):
        pack_traces([(_trace(1, [(1, 2**32, 1.0)]), False)])


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------

item_st = st.tuples(
    st.builds(
        lambda dst, hops, reason: Traceroute(CLOUD, REGION, dst, hops, reason),
        st.integers(0, 2**32 - 1),
        st.lists(hop_st, max_size=40),
        st.sampled_from(REASONS),
    ),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    items=st.lists(item_st, max_size=8),
    index=st.integers(0, 10_000),
    seconds=st.floats(min_value=0.0, max_value=1e6),
)
def test_codec_matches_the_tuple_wire(items, index, seconds):
    """A shard decodes to what the old tuple round trip gave, through the
    wire tuple and through a journal row's JSON."""
    result = ShardResult(index=index, region=REGION, seconds=seconds, items=items)
    expected = _old_unpack_result(_old_pack_result(result), CLOUD)

    assert _exact_items(unpack_traces(pack_traces(items), CLOUD, REGION)) == (
        _exact_items(expected.items)
    )

    wire = _pack_result(result)
    for packed in (wire, _from_journal(json.loads(json.dumps(_journal_row(wire))))):
        back = _unpack_result(packed, CLOUD)
        assert (back.index, back.region, back.seconds) == (
            expected.index, expected.region, expected.seconds
        )
        assert _exact_items(back.items) == _exact_items(expected.items)
