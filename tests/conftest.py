"""Shared fixtures: small deterministic worlds and a full study run.

The session-scoped fixtures are built once; individual tests must treat
them as read-only.
"""

from __future__ import annotations

import pytest

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.world.build import WorldConfig, build_world


@pytest.fixture(scope="session")
def tiny_world():
    """~35 peer ASes; fast enough for per-test routing checks."""
    return build_world(WorldConfig(scale=0.01, seed=11))


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
