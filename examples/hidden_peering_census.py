#!/usr/bin/env python3
"""The hidden-peering census (§7.2-§7.3): who peers with Amazon, and how.

Reproduces the paper's headline: grouping every inferred peering by
(public/private, BGP-visible, virtual) shows that roughly a third of
Amazon's peers interconnect in ways no BGP feed or classical traceroute
study can see.  Also re-runs the §7.3 DNS-evidence analysis: ``vlan`` and
``dxvif`` tokens in the names of supposedly *physical* private
interconnections, hinting they are VPIs too.

Run:  python examples/hidden_peering_census.py
"""

import time
from collections import Counter

from repro import AmazonPeeringStudy, StudyConfig, WorldConfig, build_world
from repro.analysis import tables
from repro.core.dnsgeo import vpi_evidence
from repro.measure.dnslookup import ReverseDNS
from repro.world.profiles import PR_NB_NV, PR_NB_V


def main() -> None:
    t0 = time.time()
    world = build_world(WorldConfig(scale=0.05, seed=23))
    study = AmazonPeeringStudy(
        world, StudyConfig(seed=23, expansion_stride=4, run_crossval=False)
    )
    result = study.run()
    print(f"study finished in {time.time() - t0:.1f}s\n")

    # Table 5 ----------------------------------------------------------
    print("Table 5 -- groups of Amazon peerings (measured):")
    print(f"{'group':>10} {'ASes':>6} {'CBIs':>6} {'ABIs':>6}")
    for row in tables.table5(result):
        print(f"{row.group:>10} {row.ases:>6} {row.cbis:>6} {row.abis:>6}")
    for label, (a, c, b) in tables.table5_aggregates(result).items():
        print(f"{label:>10} {a:>6} {c:>6} {b:>6}   (aggregate)")

    grouping = result.grouping
    print(f"\nhidden peerings (virtual or private-not-in-BGP): "
          f"{grouping.hidden_fraction() * 100:.1f}% of peer ASes "
          "(paper: 33.3%)")
    print(f"BGP reports {len(result.bgp_visible_peers)} Amazon peers; "
          f"we recovered {len(result.recovered_bgp_peers)} of them and found "
          f"{len(grouping.all_ases()) - len(result.recovered_bgp_peers)} more "
          "that BGP never shows.")

    # Table 6 ------------------------------------------------------------
    print("\nTable 6 -- hybrid peering profiles (top 10):")
    for profile, count in tables.table6(result)[:10]:
        print(f"  {'; '.join(sorted(profile)):<44} {count:>5}")

    # §7.3: DNS evidence that Pr-nB-nV hides more VPIs -----------------------
    rdns = ReverseDNS(world)
    evidence = Counter()
    totals = Counter()
    for (asn, group), record in grouping.records.items():
        if group not in (PR_NB_NV, PR_NB_V):
            continue
        for cbi in record.cbis:
            totals[group] += 1
            if vpi_evidence(rdns.lookup(cbi)):
                evidence[group] += 1
    print("\nDNS evidence for the paper's 'secret VPI' hypothesis (7.3):")
    for group in (PR_NB_NV, PR_NB_V):
        print(f"  {group}: {evidence[group]} of {totals[group]} CBI names carry "
              "vlan/dxvif/dxcon/awsdx tokens")
    print("(the paper found 170 such names across Pr-nB and concluded a slice")
    print(" of Pr-nB-nV is virtual; the world generator plants exactly that.)")

    truly_virtual = sum(
        1
        for icx in world.interconnections.values()
        if icx.is_virtual and not icx.uses_private_addresses
    )
    detected = len(result.vpi.vpi_cbis) if result.vpi else 0
    print(f"\nground truth: {truly_virtual} interconnections are virtual; "
          f"multi-cloud detection could label only {detected} CBIs as VPIs.")


if __name__ == "__main__":
    main()
