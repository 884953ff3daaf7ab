"""The per-address verdict memos against their predecessors (DESIGN.md §6.3).

``BorderObservatory.ingest`` once annotated every responsive hop and
tested each annotation with ``is_border_candidate``/``is_home``, and
``CloudMembership.left_cloud`` walked ``responsive_ips`` with an
interval-set bisect and an ``is_private_or_shared`` call per hop.  Both
survive below as test-local oracles.  Under Hypothesis, streams of
traces over a small address pool -- the cloud's own space, private and
shared space, foreign clients, IXP members and unannounced space, with
repeats, loops, gaps and the border at any index -- interleaved with
direct ``annotate`` and ``verdict`` calls and a round switch, must give
equal return values, equal ``state_dict()`` and ``ObservatoryStats``,
and equal annotator counters: ``cache_hits``, ``cache_misses``,
fallback depth and disagreement flags.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.annotate import AnnotationCache, HopAnnotation, HopAnnotator  # noqa: E402
from repro.core.borders import BorderObservatory, DropReason, SegmentRecord  # noqa: E402
from repro.datasets import (  # noqa: E402
    as2org_from_world,
    ixp_directory_from_world,
    peeringdb_from_world,
    snapshot_from_world,
)
from repro.datasets.whois import WhoisRegistry  # noqa: E402
from repro.measure.campaign import CloudMembership  # noqa: E402
from repro.measure.traceroute import StopReason, TraceHop, Traceroute  # noqa: E402
from repro.net.asn import CLOUD_ORG_IDS  # noqa: E402
from repro.net.ip import IPv4, IPv4IntervalSet, is_private_or_shared, parse_ip  # noqa: E402

REGIONS = ["us-east-1", "eu-west-1"]


# ----------------------------------------------------------------------
# the oracles: the predecessors' per-hop walks
# ----------------------------------------------------------------------


class OracleObservatory(BorderObservatory):
    """A border observatory that annotates every hop, as ingest once did."""

    def ingest(self, trace: Traceroute) -> Optional[Tuple[IPv4, IPv4]]:
        self.stats.ingested += 1
        hops = trace.hops
        region = trace.region
        annotate = self.annotator.annotate
        is_border = self.annotator.is_border_candidate
        iface_regions = self.iface_regions
        iface_min_rtt = self.iface_min_rtt
        successors = self.successors

        border_idx: Optional[int] = None
        border_ann: Optional[HopAnnotation] = None
        first_gap: Optional[int] = None
        responsive_ips: List[IPv4] = []
        prev: Optional[IPv4] = None
        for idx, (_ttl, ip, rtt) in enumerate(hops):
            if ip is None:
                if first_gap is None:
                    first_gap = idx
                continue
            ann = annotate(ip)
            responsive_ips.append(ip)
            regions = iface_regions.get(ip)
            if regions is None:
                iface_regions[ip] = {region}
                self.iface_round.setdefault(ip, self.current_round)
            else:
                regions.add(region)
            if rtt is not None:
                key = (ip, region)
                old = iface_min_rtt.get(key)
                if old is None or rtt < old:
                    iface_min_rtt[key] = rtt
            if prev is not None:
                counts = successors.get(prev)
                if counts is None:
                    counts = successors[prev] = Counter()
                counts[ip] += 1
            prev = ip
            if border_idx is None and is_border(ann):
                border_idx = idx
                border_ann = ann

        if border_idx is None or border_ann is None:
            self.stats.dropped[DropReason.NO_BORDER] += 1
            return None

        cbi = hops[border_idx].ip
        assert cbi is not None
        if first_gap is not None and first_gap < border_idx:
            self.stats.dropped[DropReason.GAP_BEFORE_BORDER] += 1
            return None
        if len(set(responsive_ips[:border_idx])) != border_idx:
            self.stats.dropped[DropReason.DUPLICATE_BEFORE_BORDER] += 1
            return None
        if len(set(responsive_ips)) != len(responsive_ips):
            self.stats.dropped[DropReason.LOOP] += 1
            return None
        if cbi == trace.dst:
            self.stats.dropped[DropReason.CBI_IS_DESTINATION] += 1
            return None
        if border_idx == 0:
            self.stats.dropped[DropReason.NO_BORDER] += 1
            return None
        for hop in hops[border_idx + 1 :]:
            if hop.ip is None:
                continue
            ann = annotate(hop.ip)
            if self.annotator.is_home(ann):
                self.stats.dropped[DropReason.REENTERS_HOME] += 1
                return None

        abi = hops[border_idx - 1].ip
        assert abi is not None
        prev_ip = hops[border_idx - 2].ip if border_idx >= 2 else None
        key = (abi, cbi)
        record = self.segments.get(key)
        if record is None:
            record = SegmentRecord(abi=abi, cbi=cbi, first_round=self.current_round)
            self.segments[key] = record
        record.observe(
            trace.region, trace.dst, prev_ip, confidence=border_ann.confidence
        )
        if self.min_confidence > 0.0 and border_ann.confidence < self.min_confidence:
            self.stats.low_confidence += 1
            self.low_confidence_segments.add(key)
        self.stats.with_border += 1
        return key


def oracle_left_cloud(own: IPv4IntervalSet, trace: Traceroute) -> bool:
    """The predecessor's ``left_cloud``: a bisect and a private-space
    test per responsive hop, every time."""
    for ip in trace.responsive_ips:
        if ip == trace.dst:
            continue
        if ip not in own and not is_private_or_shared(ip):
            return True
    return False


# ----------------------------------------------------------------------
# the address pool
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def datasets(tiny_world):
    pdb = peeringdb_from_world(tiny_world, seed=0)
    return (
        snapshot_from_world(tiny_world, "r2"),
        WhoisRegistry(tiny_world, seed=0),
        as2org_from_world(tiny_world, seed=0),
        ixp_directory_from_world(tiny_world, pdb, seed=0),
    )


@pytest.fixture(scope="module")
def pool(tiny_world) -> Dict[str, List[IPv4]]:
    """A few addresses of every class a verdict branches on."""
    w = tiny_world
    own = [
        block.network + offset
        for block in w.cloud_announced_blocks["amazon"][:2]
        for offset in (5, 200, 201)
    ] + [block.network + 5 for block in w.cloud_infra_blocks["amazon"][:2]]
    private = [parse_ip(a) for a in ("10.1.2.3", "172.16.5.5", "192.168.0.1", "100.64.0.7")]
    clients = sorted(w.client_ases.values(), key=lambda c: c.asn)[:4]
    foreign = [c.announced_prefixes[0].network + 3 for c in clients]
    icx = sorted(w.interconnections.values(), key=lambda i: i.cbi_ip)[:4]
    foreign += [i.cbi_ip for i in icx]
    foreign += [b.network + 9 for b in w.cloud_announced_blocks["microsoft"][:2]]
    ixp_members = sorted(
        ip
        for ixp in w.ixps.values()
        for ips in ixp.member_ips.values()
        for ip in ips
    )[:4]
    unknown = [parse_ip("11.3.4.5"), parse_ip("11.9.9.9")]
    inside = own + private
    border = foreign + ixp_members
    return {
        "inside": inside,
        "border": border,
        "all": inside + border + unknown,
    }


def _trace(ips, rtts, dst, region) -> Traceroute:
    hops = [
        TraceHop(ttl, ip, None if ip is None else rtt)
        for ttl, (ip, rtt) in enumerate(zip(ips, rtts), 1)
    ]
    reason = (
        StopReason.COMPLETED if ips and ips[-1] == dst else StopReason.GAP_LIMIT
    )
    return Traceroute("amazon", region, dst, hops, reason)


def trace_st(pool: Dict[str, List[IPv4]]):
    anywhere = st.one_of(st.none(), st.sampled_from(pool["all"]))
    # Inside hops, a border, then anything: the shape a sweep sees.
    shaped = st.tuples(
        st.lists(st.one_of(st.none(), st.sampled_from(pool["inside"])), max_size=5),
        st.sampled_from(pool["border"]),
        st.lists(anywhere, max_size=6),
    ).map(lambda parts: parts[0] + [parts[1]] + parts[2])
    return st.builds(
        _trace,
        st.one_of(st.lists(anywhere, max_size=12), shaped),
        st.lists(
            st.one_of(st.none(), st.floats(0.0, 300.0)), min_size=12, max_size=12
        ),
        st.sampled_from(pool["all"]),
        st.sampled_from(REGIONS),
    )


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------


def _setup(datasets, observatory_type):
    """Three annotators as a study has them, and two observatories.

    0 and 1 share a cache (round 2 and a VPI cloud: same datasets, other
    home org); 2 has its own (round 1).  Observatory 0 starts on
    annotator 2 and switches rounds to annotator 0; observatory 1 is the
    VPI cloud's.
    """
    shared = AnnotationCache()
    annotators = [
        HopAnnotator(*datasets, cache=shared),
        HopAnnotator(*datasets, home_org=CLOUD_ORG_IDS["microsoft"], cache=shared),
        HopAnnotator(*datasets),
    ]
    observatories = [
        observatory_type(annotators[2], min_confidence=0.8),
        observatory_type(annotators[1]),
    ]
    return annotators, observatories


def _counters(annotator: HopAnnotator) -> tuple:
    return (
        annotator.cache_hits,
        annotator.cache_misses,
        annotator.fallback_depth_total,
        annotator.disagreement_flags,
    )


@pytest.fixture(scope="module")
def event_st(pool):
    traces = trace_st(pool)
    return st.lists(
        st.one_of(
            st.tuples(st.just("ingest"), st.integers(0, 1), traces),
            st.tuples(
                st.sampled_from(["annotate", "verdict"]),
                st.integers(0, 2),
                st.sampled_from(pool["all"]),
            ),
            st.tuples(st.just("round"), st.just(0), st.just(None)),
        ),
        max_size=30,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_memoized_ingest_matches_per_hop_annotation(datasets, event_st, data):
    events = data.draw(event_st)
    ours, theirs = _setup(datasets, BorderObservatory), _setup(datasets, OracleObservatory)
    for kind, index, arg in events:
        results = []
        for annotators, observatories in (ours, theirs):
            if kind == "ingest":
                results.append(observatories[index].ingest(arg))
            elif kind == "annotate":
                results.append(annotators[index].annotate(arg))
            elif kind == "verdict" and annotators is ours[0]:
                results.append(annotators[index].verdict(arg))
            elif kind == "verdict":
                annotator = annotators[index]
                ann = annotator.annotate(arg)
                results.append(
                    (ann, annotator.is_border_candidate(ann), annotator.is_home(ann))
                )
            else:
                observatories[index].start_round("r2", annotators[0])
        assert results[:1] == results[1:]
    for observatory, oracle in zip(ours[1], theirs[1]):
        assert observatory.state_dict() == oracle.state_dict()
        assert observatory.stats == oracle.stats
        assert observatory.low_confidence_segments == oracle.low_confidence_segments
    assert [_counters(a) for a in ours[0]] == [_counters(a) for a in theirs[0]]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_memoized_left_cloud_matches_the_per_hop_walk(tiny_world, pool, data):
    membership = CloudMembership(tiny_world, "amazon")
    own = IPv4IntervalSet(
        list(tiny_world.cloud_announced_blocks["amazon"])
        + list(tiny_world.cloud_infra_blocks["amazon"])
    )
    for trace in data.draw(st.lists(trace_st(pool), max_size=20)):
        assert membership.left_cloud(trace) == oracle_left_cloud(own, trace)
