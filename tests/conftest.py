import contextlib
import os
import pathlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from mfconformal import (
    Covariates,
    Dataset,
    MFCurve,
    conformal,
    harness,
    modulate,
    random_split,
    regress,
    simgen,
    uniform_grid,
)


# The kernels a byte pin runs on. OpenBLAS's Haswell kernels on one thread
# fix the BLAS bits. numpy's x86-64-v3 SIMD kernels, those of any AVX2 host,
# fix the bits of its ufuncs: on numpy 2.4.6, exp and log differ between
# them and the AVX-512 kernels an X86_V4 host would otherwise pick.
PINNED_KERNELS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_ENABLE_CPU_FEATURES": "X86_V3",
}


def pinned_env():
    """The environment for a subprocess whose outputs are pinned byte for
    byte: the caller's, with :data:`PINNED_KERNELS` and this checkout's
    ``src`` on ``PYTHONPATH``. The caller's numpy feature switches are dropped
    first, because numpy refuses to import when both are set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")}
    return {**env, **PINNED_KERNELS,
            "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}


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


def replication(cfg, rep: int):
    """Run one replication through the public objects; returns (hit, size,
    infinite_flag). It is the reference of the harness's stacked path.

    The three independent random streams (generation, split, tau) are keyed
    on (master_seed, rep, stream).
    """
    base = cfg.master_seed
    spec = replace(cfg.scenario, seed=(base, rep, 0))
    dataset, (x_new, y_new) = simgen.generate(spec)
    split = random_split(spec.n, cfg.l, seed=(base, rep, 1))
    tau = None
    if cfg.mode == "smoothed":
        tau = float(np.random.default_rng((base, rep, 2)).uniform())

    model = regress.fit(dataset, split.train_idx, simgen.regressor_for(spec))
    train_res = regress.residuals(model, dataset, split.train_idx)
    trim = modulate.TrimConfig(alpha=cfg.alpha, mode=cfg.mode, tau=tau)
    s = modulate.make_modulation(cfg.modulation, train_res, dataset.grid, trim)

    if cfg.method == "cub":
        radii = conformal._split_radii(dataset, split, model, s, cfg.alpha)
        if radii is None:
            return True, None, True
        band = conformal._concatenated_band(model, s, radii, x_new)
        area = conformal._band_size(radii, s.fns, s.grid)
        return conformal.contains(band, y_new), float(area), False

    pred = conformal.calibrate(
        dataset, split, model, s, cfg.alpha, mode=cfg.mode, tau=tau
    )
    if pred.infinite:
        return True, None, True
    band = conformal.make_band(pred, x_new)
    return conformal.contains(band, y_new), conformal.band_size(pred), False


def oracle_stacked(cfg, reps):
    """``harness._stacked`` through :func:`replication`: one record per
    replication, or the first replication's fault."""
    return [harness.ReplicationRecord(rep, *replication(cfg, rep)) for rep in reps]


@contextlib.contextmanager
def per_replication():
    """Run every stack of ``harness._replication_batch`` through
    :func:`replication`, the reference of the stacked path, in place of
    ``harness._stacked``. A stack with a fault is run again as stacks of
    one, so a fault's message and ``skip_failures`` count are the public
    objects'."""
    with mock.patch.object(harness, "_stacked", oracle_stacked):
        yield


@contextlib.contextmanager
def stacked_calls():
    """Spy on ``harness._stacked``: yields the list of the replication lists
    it is called with, in call order."""
    calls, real = [], harness._stacked

    def stacked(cfg, reps):
        calls.append(list(reps))
        return real(cfg, reps)

    with mock.patch.object(harness, "_stacked", stacked):
        yield calls


def held_out_row(rng, n: int) -> int:
    """The generated row that the next ``rng.permutation(n + 1)`` holds out,
    drawn from a copy of ``rng``."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return int(twin.permutation(n + 1)[-1])


@contextlib.contextmanager
def failing_replications(failing, path: str, held_out: bool = False):
    """Make the study replications whose indices are in ``failing`` fail on
    the given path of ``harness._replication_batch``.

    ``"stacked"``: their error curves turn NaN in ``simgen._errors``, which
    ``harness._stacked`` and :func:`replication` both call, so a stack
    holding one of them is run again as stacks of one, and each of them
    fails at the dataset's finiteness check or, with ``held_out``, which
    turns only the held-out curve NaN, at the held-out curve's.
    ``"per-replication"``: every stack runs through :func:`replication`
    (see :func:`per_replication`), which raises a ValueError for them.
    """
    if path == "stacked":
        real = simgen._errors

        def errors(spec, rngs, points):
            eps = real(spec, rngs, points)  # (R, 2, n+1, G)
            for k, rng in enumerate(rngs):  # seeded (master_seed, rep, 0)
                if rng.bit_generator.seed_seq.entropy[1] in failing:
                    # The sample's row permutation is the next draw.
                    rows = held_out_row(rng, spec.n) if held_out else slice(None)
                    eps[k, :, rows] = np.nan
            return eps

        with mock.patch.object(simgen, "_errors", errors):
            yield
        return

    def stacked(cfg, reps):
        if failing.intersection(reps):
            raise ValueError("boom")
        return oracle_stacked(cfg, reps)

    with mock.patch.object(harness, "_stacked", stacked):
        yield
