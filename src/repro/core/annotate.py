"""Hop annotation: ASN, organization, and IXP membership (§3).

Every observed hop address is annotated by walking an explicit **fallback
chain** over the public datasets:

1. **IXP** membership (PeeringDB + PCH + CAIDA merge) -- an address on a
   peering LAN belongs to a specific member;
2. **private/shared** space -- unmappable by construction;
3. **BGP** longest-prefix match against the round's snapshot;
4. **WHOIS** for public-but-unannounced space (the paper's 7%), first for
   a registered ASN, then for a name-only record;
5. **none** -- nothing knows the address.

The chain records its *provenance*: which sources were consulted, which
disagreed (MOAS origins, IXP sources conflicting on a member ASN, a
member ASN whose org differs from the BGP origin's, a WHOIS owner whose
org differs from the BGP origin's), and a confidence score.  Confidence
is additive metadata: the *selected* ASN/ORG is unchanged from the
classic chain, so clean-run inference outputs (and the study digest) are
identical -- but downstream stages can flag low-confidence inferences
instead of silently counting them.

Each annotator also keeps one *verdict* per address it has seen
(:meth:`HopAnnotator.verdict`): the annotation together with its two
border predicates, so a hop a stream has met before costs one dict
lookup.

Annotation is pure inference-side code: it sees datasets and addresses,
never the world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.asn import AMAZON_ORG_ID, ASN
from repro.net.ip import IPv4, is_private_or_shared
from repro.datasets.as2org import AS2Org
from repro.datasets.bgp import BGPSnapshot
from repro.datasets.ixp import IXPDirectory
from repro.datasets.whois import WhoisRegistry


class AnnotationSource:
    """Where the ASN mapping came from (string enum; Table 1 columns)."""

    BGP = "bgp"
    WHOIS = "whois"
    IXP = "ixp"
    PRIVATE = "private"
    NONE = "none"


class Disagreement:
    """Inter-source disagreement labels recorded on annotations."""

    BGP_MOAS = "bgp-moas"
    BGP_VS_WHOIS = "bgp-vs-whois"
    IXP_SOURCE_CONFLICT = "ixp-source-conflict"
    IXP_VS_BGP = "ixp-vs-bgp"


#: Base confidence per annotation source.
CONF_PRIVATE = 1.0
CONF_IXP_MEMBER = 0.9
CONF_IXP_NO_MEMBER = 0.5
CONF_BGP = 0.95
CONF_WHOIS_ASN = 0.7
CONF_WHOIS_NAME_ONLY = 0.5
CONF_NONE = 0.0
#: Multiplicative penalty applied per recorded disagreement.
DISAGREEMENT_PENALTY = 0.6


@dataclass(frozen=True)
class HopAnnotation:
    """Annotation of one hop address, with provenance."""

    ip: IPv4
    asn: ASN                  # 0 when unmapped
    org: Optional[str]        # organization id; None when unmapped
    is_ixp: bool
    ixp_id: Optional[int]
    source: str               # AnnotationSource value
    #: base source confidence, discounted per disagreement.
    confidence: float = 1.0
    #: datasets consulted while walking the fallback chain, in order.
    sources_consulted: Tuple[str, ...] = ()
    #: Disagreement labels for sources that contradicted each other.
    disagreements: Tuple[str, ...] = ()


#: An address's annotation under one annotator, with that annotator's
#: ``is_border_candidate`` and ``is_home`` of it.
Verdict = Tuple[HopAnnotation, bool, bool]


class AnnotationInternPool:
    """Content-keyed intern pool: one object per distinct annotation value.

    The r1, r2, and per-cloud annotators mostly agree on any given
    address (origins rarely move between rounds), so identical
    :class:`HopAnnotation` values collapse to a single shared instance
    instead of one allocation per annotator per round.  Purely a memory
    / allocation optimization: the frozen annotation is its own key, and
    its equality compares every field, so interning can never change
    what any caller observes.
    """

    def __init__(self) -> None:
        self._pool: Dict[HopAnnotation, HopAnnotation] = {}
        #: lookups answered with an already-pooled instance.
        self.hits: int = 0

    def intern(self, ann: HopAnnotation) -> HopAnnotation:
        found = self._pool.get(ann)
        if found is not None:
            self.hits += 1
            return found
        self._pool[ann] = ann
        return ann

    def __len__(self) -> int:
        return len(self._pool)

    def clear(self) -> None:
        self._pool.clear()
        self.hits = 0


#: Process-wide default pool.  Shared across every annotator unless a
#: caller supplies its own; bounded by the number of *distinct*
#: annotation values ever computed, which scale keeps small.
GLOBAL_INTERN_POOL = AnnotationInternPool()


class AnnotationCache:
    """A read-only-after-warm annotation cache shareable across annotators.

    One cache may back several :class:`HopAnnotator` instances **as long
    as they annotate against the same datasets** -- ``home_org`` is
    deliberately not part of the identity because it never influences
    annotation content (only the ``is_home`` / border predicates).  The
    pipeline shares one cache across the round-2 annotator and every
    per-cloud VPI annotator, so an address annotated in the expansion
    campaign is never recomputed in the VPI stage.

    ``bind`` enforces the same-datasets contract: the first annotator
    binds its dataset identity, and any annotator over different
    datasets is rejected loudly instead of silently cross-reading.
    """

    def __init__(self, intern_pool: Optional[AnnotationInternPool] = None) -> None:
        self._by_ip: Dict[IPv4, HopAnnotation] = {}
        self._pool = intern_pool if intern_pool is not None else GLOBAL_INTERN_POOL
        self._dataset_key: Optional[Tuple[int, int, int, int]] = None

    def bind(self, dataset_key: Tuple[int, int, int, int]) -> None:
        if self._dataset_key is None:
            self._dataset_key = dataset_key
        elif self._dataset_key != dataset_key:
            raise ValueError(
                "AnnotationCache shared across annotators with different "
                "datasets; give each dataset family its own cache"
            )

    def get(self, ip: IPv4) -> Optional[HopAnnotation]:
        return self._by_ip.get(ip)

    def put(self, ip: IPv4, ann: HopAnnotation) -> HopAnnotation:
        ann = self._pool.intern(ann)
        self._by_ip[ip] = ann
        return ann

    def __len__(self) -> int:
        return len(self._by_ip)


class HopAnnotator:
    """Annotates addresses against one BGP snapshot round.

    ``cache`` lets several annotators over the *same* datasets share one
    :class:`AnnotationCache` (and its interned annotations); by default
    each annotator gets a private cache, preserving the historical
    behaviour.
    """

    def __init__(
        self,
        bgp: BGPSnapshot,
        whois: WhoisRegistry,
        as2org: AS2Org,
        ixps: IXPDirectory,
        home_org: str = AMAZON_ORG_ID,
        cache: Optional[AnnotationCache] = None,
    ) -> None:
        self.bgp = bgp
        self.whois = whois
        self.as2org = as2org
        self.ixps = ixps
        self.home_org = home_org
        self._cache = cache if cache is not None else AnnotationCache()
        self._cache.bind((id(bgp), id(whois), id(as2org), id(ixps)))
        # Observability counters (attached to the study span by the
        # pipeline); pure bookkeeping, never read back by inference.
        self.cache_hits: int = 0
        self.cache_misses: int = 0
        #: summed fallback-chain depth (len(sources_consulted)) over
        #: every cache miss, for mean-depth reporting.
        self.fallback_depth_total: int = 0
        #: disagreement labels recorded across all computed annotations.
        self.disagreement_flags: int = 0
        #: address -> its :data:`Verdict`, filled on first sight by
        #: :meth:`verdict`.  A caller that reads it directly serves an
        #: annotation without :meth:`annotate`, so it adds its hits to
        #: ``cache_hits`` itself; the counters then read as if every
        #: lookup had gone through the cache.
        self.verdicts: Dict[IPv4, Verdict] = {}

    def verdict(self, ip: IPv4) -> Verdict:
        """``ip``'s annotation and border predicates, computed once.

        Counts one cache lookup per call, as :meth:`annotate` does: a
        first sight goes through :meth:`annotate`, and a memo hit is a
        cache hit.
        """
        found = self.verdicts.get(ip)
        if found is not None:
            self.cache_hits += 1
            return found
        ann = self.annotate(ip)
        found = self.verdicts[ip] = (
            ann, self.is_border_candidate(ann), self.is_home(ann)
        )
        return found

    def annotate(self, ip: IPv4) -> HopAnnotation:
        cached = self._cache.get(ip)
        if cached is not None:
            self.cache_hits += 1
            return cached
        ann = self._cache.put(ip, self._compute(ip))
        self.cache_misses += 1
        self.fallback_depth_total += len(ann.sources_consulted)
        self.disagreement_flags += len(ann.disagreements)
        return ann

    def _compute(self, ip: IPv4) -> HopAnnotation:
        consulted: List[str] = [AnnotationSource.IXP]
        disagreements: List[str] = []

        ixp_id = self.ixps.ixp_of(ip)
        if ixp_id is not None:
            member = self.ixps.member_asn(ip)
            if self.ixps.member_conflict(ip) is not None:
                disagreements.append(Disagreement.IXP_SOURCE_CONFLICT)
            if member is not None:
                asn = member
                org = self._org_of(member)
                base = CONF_IXP_MEMBER
                # Cross-check: does BGP route the member address under
                # the same organization as the directory's member ASN?
                consulted.append(AnnotationSource.BGP)
                bgp_origin = self.bgp.origin_of(ip)
                if bgp_origin is not None and self._org_of(bgp_origin) != org:
                    disagreements.append(Disagreement.IXP_VS_BGP)
            else:
                asn = 0
                org = f"IXP-{ixp_id}"
                base = CONF_IXP_NO_MEMBER
            return self._finish(
                ip, asn, org, True, ixp_id, AnnotationSource.IXP,
                base, consulted, disagreements,
            )

        consulted.append(AnnotationSource.PRIVATE)
        if is_private_or_shared(ip):
            return self._finish(
                ip, 0, None, False, None, AnnotationSource.PRIVATE,
                CONF_PRIVATE, consulted, disagreements,
            )

        consulted.append(AnnotationSource.BGP)
        origin = self.bgp.origin_of(ip)
        if origin is not None:
            if self.bgp.is_moas(ip):
                disagreements.append(Disagreement.BGP_MOAS)
            # Cross-check WHOIS; safe because WHOIS draws are keyed per
            # /24, so the extra lookup can never perturb later lookups.
            consulted.append(AnnotationSource.WHOIS)
            whois_asn = self.whois.owner_asn(ip)
            if whois_asn is not None and self._org_of(whois_asn) != self._org_of(origin):
                disagreements.append(Disagreement.BGP_VS_WHOIS)
            return self._finish(
                ip, origin, self._org_of(origin), False, None,
                AnnotationSource.BGP, CONF_BGP, consulted, disagreements,
            )

        consulted.append(AnnotationSource.WHOIS)
        whois_asn = self.whois.owner_asn(ip)
        if whois_asn is not None:
            return self._finish(
                ip, whois_asn, self._org_of(whois_asn), False, None,
                AnnotationSource.WHOIS, CONF_WHOIS_ASN, consulted, disagreements,
            )
        record = self.whois.lookup(ip)
        if record is not None:
            # WHOIS knows the holder name but no ASN: still enough to tell
            # whose network the hop is in (clouds are recognisable by name).
            from repro.net.asn import CLOUD_ORG_IDS

            org = CLOUD_ORG_IDS.get(record.holder_name, f"WHOIS-{record.holder_name}")
            return self._finish(
                ip, 0, org, False, None, AnnotationSource.WHOIS,
                CONF_WHOIS_NAME_ONLY, consulted, disagreements,
            )
        return self._finish(
            ip, 0, None, False, None, AnnotationSource.NONE,
            CONF_NONE, consulted, disagreements,
        )

    def _finish(
        self,
        ip: IPv4,
        asn: ASN,
        org: Optional[str],
        is_ixp: bool,
        ixp_id: Optional[int],
        source: str,
        base_confidence: float,
        consulted: List[str],
        disagreements: List[str],
    ) -> HopAnnotation:
        confidence = round(
            base_confidence * DISAGREEMENT_PENALTY ** len(disagreements), 6
        )
        return HopAnnotation(
            ip=ip,
            asn=asn,
            org=org,
            is_ixp=is_ixp,
            ixp_id=ixp_id,
            source=source,
            confidence=confidence,
            sources_consulted=tuple(consulted),
            disagreements=tuple(disagreements),
        )

    def _org_of(self, asn: ASN) -> str:
        org = self.as2org.org_of(asn)
        return org if org is not None else f"ORG-AS{asn}"

    # ------------------------------------------------------------------

    def is_home(self, ann: HopAnnotation) -> bool:
        """Does the hop belong to the home (probing) organization?"""
        return ann.org == self.home_org

    def is_border_candidate(self, ann: HopAnnotation) -> bool:
        """§4.1: a hop whose ORG is neither unknown (0) nor the home org.

        IXP addresses always count: they belong to a specific member.
        """
        if ann.is_ixp:
            return True
        if ann.org is None:
            return False
        return ann.org != self.home_org
