"""Shared fixtures for the test suite."""

import pytest

from repro.core.config import VeniceConfig
from repro.experiments.common import ExperimentPlatform
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator instance.

    ``SIM_CORE`` and ``SIM_SANITIZE`` are read by the Simulator itself
    (the CI ``ccore`` and ``sanitize-tests`` jobs set them).
    """
    return Simulator()


@pytest.fixture
def platform() -> ExperimentPlatform:
    """Default two-node experiment platform."""
    return ExperimentPlatform()


@pytest.fixture
def pair_config() -> VeniceConfig:
    """Two directly connected nodes."""
    return VeniceConfig.pair()


@pytest.fixture
def mesh_config() -> VeniceConfig:
    """The Table 1 eight-node 3D-mesh system."""
    return VeniceConfig()
