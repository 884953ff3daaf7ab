#!/usr/bin/env python3
"""bdrmap in a cloud setting (§8): why the existing tool falls short.

Runs bdrmap-style inference independently from every Amazon region --
BGP-driven targets, last-home-ASN border detection, the thirdparty
heuristic -- and quantifies the §8 inconsistencies against our pipeline:

* CBIs left with owner AS0,
* CBIs whose inferred owner changes with the vantage region,
* interfaces flip-flopping between ABI and CBI across regions,
* the coverage gap (no expansion probing, no WHOIS-only space).

Run:  python examples/bdrmap_comparison.py
"""

import time

from repro import AmazonPeeringStudy, StudyConfig, WorldConfig, build_world
from repro.bdrmap import BdrmapEngine, compare


def main() -> None:
    t0 = time.time()
    world = build_world(WorldConfig(scale=0.05, seed=29))
    study = AmazonPeeringStudy(
        world,
        StudyConfig(seed=29, expansion_stride=4, run_vpi=False, run_crossval=False),
    )
    result = study.run()
    print(f"our pipeline finished in {time.time() - t0:.1f}s")

    t0 = time.time()
    engine = BdrmapEngine(world, study.bgp_r2, study.relationships, study.engine)
    bdr = engine.run_all()
    print(f"bdrmap ({len(bdr.runs)} per-region runs) finished in "
          f"{time.time() - t0:.1f}s\n")

    cmp = compare(bdr, result, study.relationships)
    print(f"{'':>12} {'ABIs':>7} {'CBIs':>7} {'ASes':>7}")
    print(f"{'bdrmap':>12} {cmp.bdrmap_abis:>7} {cmp.bdrmap_cbis:>7} {cmp.bdrmap_ases:>7}")
    print(f"{'ours':>12} {cmp.ours_abis:>7} {cmp.ours_cbis:>7} {cmp.ours_ases:>7}")
    print(f"{'common':>12} {cmp.common_abis:>7} {cmp.common_cbis:>7} {cmp.common_ases:>7}")

    print("\ninconsistencies in bdrmap's per-region outputs (8):")
    print(f"  CBIs with owner AS0 everywhere:          {cmp.as0_owner_cbis}")
    print(f"  CBIs with conflicting owners:            {cmp.conflicting_owner_cbis} "
          f"(up to {cmp.max_owners_per_cbi} different owners)")
    print(f"  interfaces ABI in one region, CBI in     ")
    print(f"  another:                                 {cmp.flip_interfaces}")
    print(f"  thirdparty-heuristic CBIs:               {cmp.thirdparty_cbis} "
          f"({cmp.thirdparty_invalidated} fail the common-provider check)")

    missed = result.cbis - bdr.all_cbis()
    print(f"\nCBIs our method sees that bdrmap misses: {len(missed)}")
    print("two reasons, both structural (8): bdrmap probes only BGP-announced")
    print("space (a quarter of round-1 CBIs live in WHOIS-only blocks), and it")
    print("has no equivalent of expansion probing around discovered CBIs.")


if __name__ == "__main__":
    main()
