import contextlib
from unittest import mock

import numpy as np
import pytest

from mfconformal import (
    Covariates,
    Dataset,
    MFCurve,
    harness,
    simgen,
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


@contextlib.contextmanager
def per_replication():
    """Send every replication of ``harness._replication_batch`` through
    ``harness._replication``, the reference of the stacked path: every call
    of ``harness._stacked`` raises ``harness._StackFault``, as a stack with
    a fault does."""

    def stacked(cfg, reps):
        raise harness._StackFault

    with mock.patch.object(harness, "_stacked", stacked):
        yield


@contextlib.contextmanager
def failing_replications(failing, path: str):
    """Make the study replications whose indices are in ``failing`` fail on
    the given path of ``harness._replication_batch``.

    ``"stacked"``: their error curves turn NaN in ``simgen._errors``, which
    the stacked path and ``harness._replication`` both call, so a stack
    holding one of them is run again one replication at a time and fails
    there at the dataset's finiteness check. ``"per-replication"``: every
    replication runs through ``harness._replication`` (see
    :func:`per_replication`), which raises for them.
    """
    if path == "stacked":
        real = simgen._errors

        def errors(spec, rngs, points):
            eps = real(spec, rngs, points)
            for k, rng in enumerate(rngs):  # seeded (master_seed, rep, 0)
                if rng.bit_generator.seed_seq.entropy[1] in failing:
                    eps[k] = np.nan
            return eps

        with mock.patch.object(simgen, "_errors", errors):
            yield
        return
    real = harness._replication

    def replication(cfg, rep):
        if rep in failing:
            raise RuntimeError("boom")
        return real(cfg, rep)

    with per_replication(), \
            mock.patch.object(harness, "_replication", replication):
        yield
