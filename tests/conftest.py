"""Shared test helpers."""

import numpy as np
import pytest

# values where float arithmetic most easily changes bits: signed zeros,
# subnormals, the edges of the normal range and numbers near overflow
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                   1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])


def awkward_values(rng, shape):
    """Random floats over many decades, about one in five an edge value."""
    out = rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    pick = rng.random(size=shape) < 0.2
    out[pick] = rng.choice(_EDGES, size=int(pick.sum()))
    return out


@pytest.fixture
def awkward():
    return awkward_values
