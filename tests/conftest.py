"""Shared fixtures: the depth-1 reference weight and friends.

Everything here is immutable after construction, so session scope is safe.
"""

from __future__ import annotations

import math

import pytest

from carpetmf import normalize_to_gibbs, reference
from carpetmf.reference import (
    random_depth2_weight,
    reference_system,
    reference_weight,
    zero_potential_weight,
)


@pytest.fixture(scope="session")
def ref_system():
    return reference_system()


@pytest.fixture(scope="session")
def ref_weight():
    """Depth-1 probability cells {0.2, 0.3, 0.1, 0.15, 0.25}; pressure 0."""
    return reference_weight()


@pytest.fixture(scope="session")
def ref_masses():
    """Cell -> probability mass of the reference weight."""
    return dict(zip(reference._REFERENCE_CELLS, reference._REFERENCE_MASSES))


@pytest.fixture(scope="session")
def zero_weight():
    """phi == 0 on the reference cells, normalized (each cell mass 1/5)."""
    return normalize_to_gibbs(zero_potential_weight(), math.log(5))


@pytest.fixture(scope="session")
def depth2_weight():
    """Seeded random depth-2 window potential on the reference system."""
    return random_depth2_weight()
