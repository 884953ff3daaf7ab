"""Shared fixtures: small deterministic worlds and a full study run.

The session-scoped fixtures are built once; individual tests must treat
them as read-only.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.net.ip import PRIVATE_PREFIXES, SHARED_PREFIX
from repro.world.build import WorldConfig, build_world


@pytest.fixture(scope="session")
def tiny_world():
    """~35 peer ASes; fast enough for per-test routing checks."""
    return build_world(WorldConfig(scale=0.01, seed=11))


@pytest.fixture(scope="session")
def warm_world(tiny_world):
    """``tiny_world`` after a probe to every route /24 from every region of
    every cloud, so its segment memo is warm."""
    for cloud in sorted(tiny_world.regions):
        for region in tiny_world.region_names(cloud):
            for net in tiny_world.routes:
                tiny_world.resolve_path(cloud, region, net + 1)
    return tiny_world


@pytest.fixture(scope="session")
def cold_world():
    """A second world built like ``tiny_world``; tests empty its segment
    memo before each use, so every path is built from scratch."""
    return build_world(WorldConfig(scale=0.01, seed=11))


@pytest.fixture(scope="session")
def probe_keys(tiny_world):
    """Hypothesis strategy of ``(cloud, region, dst)`` probe keys over
    ``tiny_world`` (or any world built from its config).

    The cloud is any of the five, the region any of its regions, and the
    destination comes from each class ``World.resolve_path`` branches on:
    private and shared space; interconnect subnet and port addresses of
    every cloud (another cloud probing an Amazon port is the §7.1 overlap);
    every offset of a route /24, which covers the ECMP ABIs; client,
    infra and cloud space from the allocation registry; unallocated space.
    """
    w = tiny_world

    def inside(prefix):
        return st.integers(min_value=prefix.first, max_value=prefix.last)

    stores = [w.interconnections, *w.other_cloud_icx.values()]
    subnets = sorted(
        icx.subnet.prefix
        for store in stores
        for icx in store.values()
        if icx.subnet is not None
    )
    ports = sorted(
        {
            ip
            for store in stores
            for icx in store.values()
            for ip in (icx.abi_ip, icx.cbi_ip, *icx.abi_ecmp)
        }
    )
    registry = sorted(
        alloc.prefix
        for category in ("client", "infra", "cloud")
        for alloc in w.plan.allocations_of(category)
    )
    dsts = st.one_of(
        st.sampled_from(PRIVATE_PREFIXES + (SHARED_PREFIX,)).flatmap(inside),
        st.sampled_from(subnets).flatmap(inside),
        st.sampled_from(ports),
        st.builds(
            lambda net, offset: net + offset,
            st.sampled_from(sorted(w.routes)),
            st.integers(min_value=0, max_value=255),
        ),
        st.sampled_from(registry).flatmap(inside),
        st.integers(min_value=0, max_value=2**32 - 1).filter(
            lambda addr: w.plan.owner_of(addr) is None
        ),
    )

    @st.composite
    def keys(draw):
        cloud = draw(st.sampled_from(sorted(w.regions)))
        return cloud, draw(st.sampled_from(w.region_names(cloud))), draw(dsts)

    return keys()


@pytest.fixture(scope="session")
def small_world():
    """~70 peer ASes; the world behind the full-study fixture."""
    return build_world(WorldConfig(scale=0.02, seed=3))


@pytest.fixture(scope="session")
def study(small_world):
    """A completed end-to-end study (study object + result)."""
    runner = AmazonPeeringStudy(
        small_world, StudyConfig(seed=3, expansion_stride=8, crossval_folds=2)
    )
    result = runner.run()
    return runner, result


@pytest.fixture(scope="session")
def study_result(study):
    return study[1]
