"""Tests for the data-plane fault subsystem.

Covers the :class:`DataFaultPlan` schedule itself, the per-dataset
degradations it drives, the order-independence contract of every
per-key RNG draw (WHOIS, as2org, IXP/PCH -- the regression for the old
shared-RNG lookup bug), the annotation fallback chain's provenance and
confidence edge cases, and the up-front dataset cross-validation pass.
"""

import random

import pytest

from repro.core.annotate import (
    AnnotationSource,
    CONF_BGP,
    CONF_IXP_MEMBER,
    CONF_IXP_NO_MEMBER,
    CONF_NONE,
    CONF_PRIVATE,
    CONF_WHOIS_ASN,
    CONF_WHOIS_NAME_ONLY,
    DISAGREEMENT_PENALTY,
    Disagreement,
    HopAnnotator,
)
from repro.datasets import (
    DataFaultPlan,
    as2org_from_world,
    ixp_directory_from_world,
    peeringdb_from_world,
    snapshot_from_world,
    validate_datasets,
)
from repro.datasets.as2org import AS2Org
from repro.datasets.bgp import Announcement, BGPSnapshot
from repro.datasets.ixp import IXPDirectory
from repro.datasets.whois import WhoisRecord, WhoisRegistry
from repro.net.ip import Prefix, parse_ip
from repro.net.rng import keyed_uniform

DIRTY = DataFaultPlan(
    seed=3,
    bgp_stale_rate=0.2,
    moas_rate=0.2,
    as2org_drop_rate=0.3,
    ixp_member_drop_rate=0.3,
    ixp_member_conflict_rate=0.3,
    whois_gap_rate=0.3,
    whois_nameonly_rate=0.3,
)


class TestDataFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="moas_rate"):
            DataFaultPlan(moas_rate=1.5)
        with pytest.raises(ValueError, match="whois_gap_rate"):
            DataFaultPlan(whois_gap_rate=-0.1)

    def test_parse_round_trip(self):
        plan = DataFaultPlan.parse(
            "bgp-stale=0.1,moas=0.05,as2org-drop=0.2,ixp-drop=0.3,"
            "ixp-conflict=0.4,whois-gap=0.5,whois-nameonly=0.6,seed=9"
        )
        assert plan == DataFaultPlan(
            seed=9,
            bgp_stale_rate=0.1,
            moas_rate=0.05,
            as2org_drop_rate=0.2,
            ixp_member_drop_rate=0.3,
            ixp_member_conflict_rate=0.4,
            whois_gap_rate=0.5,
            whois_nameonly_rate=0.6,
        )
        assert DataFaultPlan.parse(plan.describe()[len("DataFaultPlan("):-1]) == plan

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            DataFaultPlan.parse("bogus=0.5")
        with pytest.raises(ValueError, match="key=value"):
            DataFaultPlan.parse("moas")

    def test_empty_spec_is_clean(self):
        plan = DataFaultPlan.parse("")
        assert not plan.affects_datasets
        assert plan.signature() == "clean"
        assert DIRTY.signature() != "clean"

    def test_decisions_are_pure_functions_of_the_key(self):
        twin = DataFaultPlan(**{
            f: getattr(DIRTY, f)
            for f in ("seed", "bgp_stale_rate", "moas_rate", "as2org_drop_rate",
                      "ixp_member_drop_rate", "ixp_member_conflict_rate",
                      "whois_gap_rate", "whois_nameonly_rate")
        })
        prefix = Prefix.parse("198.51.100.0/24")
        for _ in range(3):  # repeated queries never drift
            assert DIRTY.bgp_announcement_stale(prefix) == twin.bgp_announcement_stale(prefix)
            assert DIRTY.moas_conflict(prefix, 100) == twin.moas_conflict(prefix, 100)
            for n in range(64):
                assert DIRTY.as2org_dropped(n) == twin.as2org_dropped(n)
                assert DIRTY.ixp_member_dropped(n) == twin.ixp_member_dropped(n)
                assert DIRTY.whois_gap(n) == twin.whois_gap(n)

    def test_different_seed_changes_decisions(self):
        other = DIRTY.replace(seed=DIRTY.seed + 1)
        keys = range(512)
        assert [DIRTY.whois_gap(k) for k in keys] != [other.whois_gap(k) for k in keys]

    def test_moas_conflict_never_returns_the_real_origin(self):
        hits = 0
        for n in range(256):
            prefix = Prefix.parse(f"10.{n}.0.0/16")
            for origin in (100, 64512, 65535):
                other = DataFaultPlan(seed=1, moas_rate=1.0).moas_conflict(
                    prefix, origin
                )
                assert other is not None and other != origin
                hits += 1
        assert hits == 768


class TestDirtyDatasetViews:
    def test_stale_rate_one_empties_the_snapshot(self, tiny_world):
        snap = snapshot_from_world(
            tiny_world, "r1", data_faults=DataFaultPlan(bgp_stale_rate=1.0)
        )
        assert snap.announcements == []

    def test_moas_rate_one_conflicts_every_prefix(self, tiny_world):
        snap = snapshot_from_world(
            tiny_world, "r1", data_faults=DataFaultPlan(moas_rate=1.0)
        )
        clean = snapshot_from_world(tiny_world, "r1")
        assert snap.moas_prefix_count == len(clean.announcements)
        ann = clean.announcements[0]
        origins = snap.origins_of(ann.prefix.network)
        assert len(origins) == 2 and origins[0] == ann.origin_asn
        assert snap.is_moas(ann.prefix.network)
        # The LPM winner is unchanged: collectors pick one best path too.
        assert snap.origin_of(ann.prefix.network) == ann.origin_asn

    def test_partial_dirt_drops_some_keeps_most(self, tiny_world):
        clean = snapshot_from_world(tiny_world, "r2")
        dirty = snapshot_from_world(tiny_world, "r2", data_faults=DIRTY)
        assert 0 < len(dirty.announcements) < len(clean.announcements)
        assert dirty.moas_prefix_count > 0

    def test_as2org_drop_spares_clouds(self, tiny_world):
        from repro.net.asn import AMAZON_PRIMARY_ASN

        dirty = as2org_from_world(
            tiny_world, seed=0, coverage=1.0,
            data_faults=DataFaultPlan(as2org_drop_rate=1.0),
        )
        clean = as2org_from_world(tiny_world, seed=0, coverage=1.0)
        assert AMAZON_PRIMARY_ASN in dirty
        assert len(dirty) < len(clean)
        assert all(
            info.kind == "cloud"
            for info in tiny_world.as_registry
            if info.asn in dirty
        )

    def test_ixp_drop_and_conflict(self, tiny_world):
        pdb = peeringdb_from_world(tiny_world, seed=0)
        emptied = ixp_directory_from_world(
            tiny_world, pdb, seed=0,
            data_faults=DataFaultPlan(ixp_member_drop_rate=1.0),
        )
        assert all(not emptied.member_ips_of(i) for i in emptied.ixp_ids())

        conflicted = ixp_directory_from_world(
            tiny_world, pdb, seed=0,
            data_faults=DataFaultPlan(ixp_member_conflict_rate=1.0),
        )
        assert conflicted.conflict_count == len(pdb.netixlans)
        for ip in conflicted.conflicted_ips():
            claimed, other = conflicted.member_conflict(ip)
            assert claimed != other
            # PeeringDB wins in the merged view.
            assert conflicted.member_asn(ip) == claimed

    def test_whois_gap_and_nameonly(self, tiny_world):
        client = next(iter(tiny_world.client_ases.values()))
        ip = client.announced_prefixes[0].network + 3
        gone = WhoisRegistry(
            tiny_world, seed=0, asn_coverage=1.0,
            data_faults=DataFaultPlan(whois_gap_rate=1.0),
        )
        assert gone.lookup(ip) is None
        stripped = WhoisRegistry(
            tiny_world, seed=0, asn_coverage=1.0,
            data_faults=DataFaultPlan(whois_nameonly_rate=1.0),
        )
        record = stripped.lookup(ip)
        assert record is not None and record.asn is None
        assert record.holder_name


class TestOrderIndependence:
    """Per-key RNG audit: shuffled construction/lookup order is invisible."""

    def _client_ips(self, world):
        ips = []
        for client in world.client_ases.values():
            for prefix in client.announced_prefixes:
                ips.append(prefix.network + 1)
        return ips

    @pytest.mark.parametrize("faults", [None, DIRTY])
    def test_whois_lookup_order_invisible(self, tiny_world, faults):
        ips = self._client_ips(tiny_world)
        forward = WhoisRegistry(tiny_world, seed=4, data_faults=faults)
        shuffled = WhoisRegistry(tiny_world, seed=4, data_faults=faults)
        order = list(ips)
        random.Random(17).shuffle(order)
        for ip in order:  # warm the second registry's cache backwards
            shuffled.lookup(ip)
        assert [forward.lookup(ip) for ip in ips] == [
            shuffled.lookup(ip) for ip in ips
        ]

    def test_whois_draw_matches_the_keyed_contract(self, tiny_world):
        registry = WhoisRegistry(tiny_world, seed=4, asn_coverage=0.5)
        for ip in self._client_ips(tiny_world):
            record = registry.lookup(ip)
            assert record is not None
            expect_asn = keyed_uniform("whois", 4, ip >> 8) < 0.5
            assert (record.asn is not None) == expect_asn

    @pytest.mark.parametrize("faults", [None, DIRTY])
    def test_as2org_rebuild_identical(self, tiny_world, faults):
        a = as2org_from_world(tiny_world, seed=4, coverage=0.9, data_faults=faults)
        b = as2org_from_world(tiny_world, seed=4, coverage=0.9, data_faults=faults)
        for info in tiny_world.as_registry:
            assert a.org_of(info.asn) == b.org_of(info.asn)
            assert (info.asn in a) == (info.asn in b)

    @pytest.mark.parametrize("faults", [None, DIRTY])
    def test_ixp_rebuild_identical(self, tiny_world, faults):
        pdb = peeringdb_from_world(tiny_world, seed=0)
        a = ixp_directory_from_world(tiny_world, pdb, seed=4, data_faults=faults)
        b = ixp_directory_from_world(tiny_world, pdb, seed=4, data_faults=faults)
        assert a.ixp_ids() == b.ixp_ids()
        for ixp_id in a.ixp_ids():
            assert a.member_ips_of(ixp_id) == b.member_ips_of(ixp_id)
        assert a.conflicted_ips() == b.conflicted_ips()
        for ip in a.conflicted_ips():
            assert a.member_conflict(ip) == b.member_conflict(ip)

    def test_annotator_order_invisible(self, tiny_world):
        def build():
            pdb = peeringdb_from_world(tiny_world, seed=0)
            return HopAnnotator(
                snapshot_from_world(tiny_world, "r1", data_faults=DIRTY),
                WhoisRegistry(tiny_world, seed=4, data_faults=DIRTY),
                as2org_from_world(tiny_world, seed=4, data_faults=DIRTY),
                ixp_directory_from_world(tiny_world, pdb, seed=4, data_faults=DIRTY),
            )

        ips = sorted(tiny_world.interfaces)
        backwards = list(reversed(ips))
        one, two = build(), build()
        for ip in backwards:
            two.annotate(ip)
        assert [one.annotate(ip) for ip in ips] == [two.annotate(ip) for ip in ips]


# --- hand-built fallback-chain edge cases ------------------------------


class FakeWhois:
    """A WHOIS stub keyed by exact IP (the annotator's only surface)."""

    def __init__(self, records):
        self._records = dict(records)

    def lookup(self, ip):
        return self._records.get(ip)

    def owner_asn(self, ip):
        record = self._records.get(ip)
        return record.asn if record else None


IXP_PREFIX = Prefix.parse("203.0.113.0/24")
IXP_MEMBER = parse_ip("203.0.113.10")
IXP_ORPHAN = parse_ip("203.0.113.20")
ANNOUNCED = parse_ip("198.51.100.5")
UNANNOUNCED = parse_ip("192.0.2.5")


def _chain(announcements=(), moas=None, whois=None, conflicts=None,
           members=None, as2org=None):
    bgp = BGPSnapshot(list(announcements), [], moas=moas)
    directory = IXPDirectory(
        [(IXP_PREFIX, 7)],
        {IXP_MEMBER: (7, 100)} if members is None else members,
        {7: ("ams",)},
        conflicts=conflicts,
    )
    return HopAnnotator(
        bgp,
        FakeWhois(whois or {}),
        AS2Org(as2org if as2org is not None else {100: "org-a", 300: "org-b"}),
        directory,
        home_org="org-home",
    )


class TestFallbackChain:
    def test_private_and_shared_space(self):
        annotator = _chain()
        for addr in ("10.1.2.3", "172.16.9.9", "100.64.1.1"):
            ann = annotator.annotate(parse_ip(addr))
            assert ann.source == AnnotationSource.PRIVATE
            assert (ann.asn, ann.org) == (0, None)
            assert ann.confidence == CONF_PRIVATE
            assert ann.disagreements == ()
            assert AnnotationSource.IXP in ann.sources_consulted

    def test_public_unannounced_with_whois_asn(self):
        annotator = _chain(
            whois={UNANNOUNCED: WhoisRecord("client-x", 300)}
        )
        ann = annotator.annotate(UNANNOUNCED)
        assert ann.source == AnnotationSource.WHOIS
        assert (ann.asn, ann.org) == (300, "org-b")
        assert ann.confidence == CONF_WHOIS_ASN
        # The chain consulted IXP, private, BGP, then WHOIS -- in order.
        assert ann.sources_consulted == ("ixp", "private", "bgp", "whois")

    def test_public_unannounced_name_only(self):
        annotator = _chain(
            whois={UNANNOUNCED: WhoisRecord("client-x", None)}
        )
        ann = annotator.annotate(UNANNOUNCED)
        assert ann.source == AnnotationSource.WHOIS
        assert (ann.asn, ann.org) == (0, "WHOIS-client-x")
        assert ann.confidence == CONF_WHOIS_NAME_ONLY

    def test_public_unannounced_without_record(self):
        ann = _chain().annotate(UNANNOUNCED)
        assert ann.source == AnnotationSource.NONE
        assert (ann.asn, ann.org) == (0, None)
        assert ann.confidence == CONF_NONE

    def test_bgp_moas_discounts_confidence(self):
        annotator = _chain(
            announcements=[Announcement(Prefix.parse("198.51.100.0/24"), 100)],
            moas={Prefix.parse("198.51.100.0/24"): (100, 64600)},
        )
        ann = annotator.annotate(ANNOUNCED)
        assert ann.source == AnnotationSource.BGP
        assert ann.asn == 100  # the LPM winner is still selected
        assert ann.disagreements == (Disagreement.BGP_MOAS,)
        assert ann.confidence == pytest.approx(CONF_BGP * DISAGREEMENT_PENALTY)

    def test_bgp_vs_whois_org_mismatch(self):
        annotator = _chain(
            announcements=[Announcement(Prefix.parse("198.51.100.0/24"), 100)],
            whois={ANNOUNCED: WhoisRecord("client-x", 300)},
        )
        ann = annotator.annotate(ANNOUNCED)
        assert ann.source == AnnotationSource.BGP
        assert ann.asn == 100
        assert ann.disagreements == (Disagreement.BGP_VS_WHOIS,)

    def test_bgp_whois_same_org_is_not_a_disagreement(self):
        annotator = _chain(
            announcements=[Announcement(Prefix.parse("198.51.100.0/24"), 100)],
            whois={ANNOUNCED: WhoisRecord("client-x", 300)},
            as2org={100: "org-a", 300: "org-a"},  # siblings
        )
        ann = annotator.annotate(ANNOUNCED)
        assert ann.disagreements == ()
        assert ann.confidence == CONF_BGP

    def test_ixp_member_vs_bgp_origin_conflict(self):
        # The IXP LAN address is (bogusly) announced in BGP under an AS
        # whose org differs from the directory's member ASN.
        annotator = _chain(
            announcements=[Announcement(IXP_PREFIX, 300)],
        )
        ann = annotator.annotate(IXP_MEMBER)
        assert ann.source == AnnotationSource.IXP
        assert ann.asn == 100  # the directory's member still wins
        assert ann.org == "org-a"
        assert ann.disagreements == (Disagreement.IXP_VS_BGP,)
        assert ann.confidence == pytest.approx(
            CONF_IXP_MEMBER * DISAGREEMENT_PENALTY
        )

    def test_ixp_source_conflict(self):
        annotator = _chain(conflicts={IXP_MEMBER: (100, 64600)})
        ann = annotator.annotate(IXP_MEMBER)
        assert ann.source == AnnotationSource.IXP
        assert ann.asn == 100
        assert Disagreement.IXP_SOURCE_CONFLICT in ann.disagreements

    def test_ixp_address_without_member_record(self):
        ann = _chain().annotate(IXP_ORPHAN)
        assert ann.source == AnnotationSource.IXP
        assert ann.is_ixp
        assert (ann.asn, ann.org) == (0, "IXP-7")
        assert ann.confidence == CONF_IXP_NO_MEMBER


class TestValidation:
    def test_clean_world_has_no_hard_disagreements(self, tiny_world):
        pdb = peeringdb_from_world(tiny_world, seed=0)
        report = validate_datasets(
            snapshot_from_world(tiny_world, "r2"),
            WhoisRegistry(tiny_world, seed=0),
            as2org_from_world(tiny_world, seed=0),
            ixp_directory_from_world(tiny_world, pdb, seed=0),
        )
        assert report.checked_prefixes > 0
        assert report.total_disagreements == 0

    def test_dirty_world_is_flagged(self, tiny_world):
        pdb = peeringdb_from_world(tiny_world, seed=0)
        report = validate_datasets(
            snapshot_from_world(tiny_world, "r2", data_faults=DIRTY),
            WhoisRegistry(tiny_world, seed=0, data_faults=DIRTY),
            as2org_from_world(tiny_world, seed=0, data_faults=DIRTY),
            ixp_directory_from_world(tiny_world, pdb, seed=0, data_faults=DIRTY),
        )
        assert report.moas_prefixes > 0
        assert report.ixp_member_conflicts > 0
        assert report.whois_gaps > 0
        assert report.total_disagreements > 0
        assert report.total_gaps > 0
        assert set(report.as_dict()) >= {
            "moas_prefixes", "whois_gaps", "as2org_missing_asns",
        }
        assert any("MOAS" in line for line in report.describe_lines())
