import numpy as np
import pytest

from mfconformal import (
    Covariates,
    Dataset,
    MFCurve,
    uniform_grid,
)


@pytest.fixture
def grid2():
    """Two components on [0, 1], 50 points each."""
    return uniform_grid(50, p=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_curve(rng, grid):
    return MFCurve(tuple(rng.normal(size=c.size) for c in grid.components))


def as_blocks(curves):
    """Residual blocks of a list of curves: one (len(curves), G_j) array per
    component, rows in list order."""
    return tuple(np.stack([c.values[j] for c in curves]) for j in range(curves[0].p))


def make_dataset(rng, grid, n, slope=1.5):
    """Linear-in-w toy data: y_j = slope * w + noise."""
    pairs = []
    for i in range(n):
        w = (i + 1) / (n + 1)
        values = tuple(
            slope * w + 0.3 * rng.normal(size=c.size) for c in grid.components
        )
        pairs.append((Covariates(scalar={"w": w}), MFCurve(values)))
    return Dataset(grid=grid, pairs=tuple(pairs))
