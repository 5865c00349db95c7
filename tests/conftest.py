"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.hw import TPUV4
from repro.mesh import Mesh2D


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the pinned golden files instead of comparing",
    )


@pytest.fixture
def update_goldens(request):
    """Whether this run should rewrite golden files (--update-goldens)."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def rng():
    """Deterministic random generator for numerical tests."""
    return np.random.default_rng(20250706)


@pytest.fixture
def mesh42():
    return Mesh2D(4, 2)


@pytest.fixture
def mesh44():
    return Mesh2D(4, 4)


@pytest.fixture
def hw():
    """The calibrated TPUv4 preset."""
    return TPUV4
