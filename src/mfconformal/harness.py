"""Monte Carlo replication engine for coverage and band-size studies.

Each replication generates a fresh sample plus one held-out pair, splits,
fits, calibrates and records whether the held-out curve falls inside the
band together with the band size. Per-replication randomness is derived from
``(master_seed, replication_index, stream)`` with one stream each for the
sample, the split and the smoothed tie-breaker.

Every cell runs its replications in stacks through :func:`_stacked`,
which computes R replications of a cell as arrays with a leading
replication axis. Each replication still draws from its own generators in
the same order, and the stages call the private helpers behind the public
objects (``Dataset``, ``Split``, ``FittedRegressor``, ``ModulationSet``,
``BandPredictor``, ``Band``) without building those objects.
``np.linalg.lstsq`` and the quadrature ``np.dot`` stay one call per
replication and component. R is :data:`STACK_BYTES` over the size of one
replication's response block, (n+1) * sum_j G_j * 8 bytes, and at least 1:
at G = 100 on two components that is 31 at n = 20, 3 at n = 200 and 1 at
n = 2000. The budget bounds a stack's temporaries, a few copies of its
response block.

Every check of the public objects runs over the whole stack. A stack with
any fault is run again one replication at a time through
:func:`_replication`, which goes through the public objects, so failure
messages and ``skip_failures`` counts are theirs. :func:`_replication` is
also the reference the stacked path is tested against.

Determinism contract: a record depends only on the cell and its
replication index, not on the stack size, the worker count or how the
replications are chunked between workers, so reports are bit-identical for
any worker count. The stacked stages are those whose results equal their
per-replication form bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import conformal, modulate, regress, simgen
from .core import (
    MFConformalError,
    _feasible_rank,
    _guaranteed_coverage,
    _integer,
    _integrals,
    _level,
    _row_sups,
    _uniform_parts,
    random_split,
)

__all__ = [
    "StudyConfig",
    "StudyReport",
    "ReplicationRecord",
    "ReplicationError",
    "run_study",
    "coverage_ci",
    "size_quartiles",
    "default_workers",
]

METHODS = ("mpb", "cub")

WORKERS_ENV_VAR = "MFCONFORMAL_WORKERS"

# Byte budget of the response curves of one stack of replications.
STACK_BYTES = 1 << 20


class ReplicationError(MFConformalError, RuntimeError):
    """A replication failed (the message names its index), or all did."""


def default_workers() -> int:
    """Worker count from ``MFCONFORMAL_WORKERS``, 1 when unset; a ValueError
    naming the variable unless it holds an integer >= 1."""
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class StudyConfig:
    """One table cell of a study: scenario, calibration size, level,
    modulation, conformal mode, band method and replication budget."""

    scenario: simgen.ScenarioSpec
    l: int
    n_reps: int
    alpha: float = 0.10
    modulation: str = "sigma"
    mode: str = "split"
    method: str = "mpb"
    master_seed: int = 0
    workers: int = 1
    keep_sizes: bool = False
    keep_records: bool = False
    skip_failures: bool = False

    def __post_init__(self):
        for name in ("l", "n_reps", "workers"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 1 <= self.l <= self.scenario.n - 1:
            raise ValueError("need 1 <= l <= n-1")
        if self.n_reps < 1:
            raise ValueError("need at least one replication")
        modulate._modulation_label(self.modulation)
        # Each smoothed replication draws its own tie-breaker in [0, 1).
        _level(self.alpha, self.mode, 0.0 if self.mode == "smoothed" else None)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "cub" and self.mode != "split":
            raise ValueError("the concatenated method is defined in split mode")
        seed = _integer(self.master_seed, "master_seed")
        if seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {seed}")
        object.__setattr__(self, "master_seed", seed)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication's outcome; ``hit`` is None for a skipped failure."""

    rep: int
    hit: bool | None
    size: float | None
    infinite: bool


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study outcome."""

    config: StudyConfig
    n_reps: int
    hits: int
    coverage: float
    ci_lower: float
    ci_upper: float
    theoretical_coverage: float
    size_q1: float
    size_median: float
    size_q3: float
    n_infinite: int
    n_failed: int
    sizes: tuple[float, ...] | None = None
    records: tuple[ReplicationRecord, ...] | None = None


def coverage_ci(hits: int, n: int) -> tuple[float, float, float]:
    """Empirical coverage with its 95% normal-approximation interval
    p_hat -+ 1.96 * sqrt(p_hat (1 - p_hat) / n)."""
    if n < 1:
        raise ValueError("need at least one replication")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in 0..n")
    p = hits / n
    half = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return p, p - half, p + half


def size_quartiles(sizes) -> tuple[float, float, float]:
    """First quartile, median and third quartile with linear interpolation
    between closest ranks."""
    arr = np.asarray(sizes, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one size")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
    return float(q1), float(med), float(q3)


def _replication(cfg: StudyConfig, rep: int):
    """Run one replication through the public objects; returns (hit, size,
    infinite_flag). It reruns a faulted stack and is the stacked path's
    reference.

    The three independent random streams (generation, split, tau) are keyed
    on (master_seed, rep, stream).
    """
    base = cfg.master_seed
    spec = replace(cfg.scenario, seed=(base, rep, 0))
    dataset, (x_new, y_new) = simgen.generate(spec)
    split = random_split(spec.n, cfg.l, seed=(base, rep, 1))
    tau = _tau(cfg, rep)

    model = regress.fit(dataset, split.train_idx, simgen.regressor_for(spec))
    train_res = regress.residuals(model, dataset, split.train_idx)
    trim = modulate.TrimConfig(alpha=cfg.alpha, mode=cfg.mode, tau=tau)
    s = modulate.make_modulation(cfg.modulation, train_res, dataset.grid, trim)

    if cfg.method == "cub":
        radii = conformal._split_radii(dataset, split, model, s, cfg.alpha)
        if radii is None:
            return True, None, True
        band = conformal._concatenated_band(model, s, radii, x_new)
        area = conformal._band_area(radii, s.fns, s.grid)
        return conformal.contains(band, y_new), float(area), False

    pred = conformal.calibrate(
        dataset, split, model, s, cfg.alpha, mode=cfg.mode, tau=tau
    )
    if pred.infinite:
        return True, None, True
    band = conformal.make_band(pred, x_new)
    return conformal.contains(band, y_new), conformal.band_size(pred), False


def _tau(cfg: StudyConfig, rep: int) -> float | None:
    """The replication's tie-breaker in smoothed mode, None in split mode."""
    if cfg.mode != "smoothed":
        return None
    return float(np.random.default_rng((cfg.master_seed, rep, 2)).uniform())


def _stack_size(cfg: StudyConfig) -> int:
    """Replications per stack: :data:`STACK_BYTES` over the bytes of one
    replication's (n+1, 2, G) response block, at least 1."""
    spec = cfg.scenario
    return max(1, STACK_BYTES // ((spec.n + 1) * 2 * spec.grid_points * 8))


class _StackFault(Exception):
    """A check failed for some replication of a stack."""


def _require(ok) -> None:
    if not np.all(ok):
        raise _StackFault


def _stacked(cfg: StudyConfig, reps: list[int]) -> list[ReplicationRecord]:
    """The records of :func:`_replication` for ``reps``, computed as stacked
    arrays with a leading replication axis. Raises on the first fault of any
    replication in the stack."""
    spec, alpha, l = cfg.scenario, cfg.alpha, cfg.l
    n, m, count = spec.n, spec.n - cfg.l, len(reps)
    grid = simgen._grid(spec.grid_points)
    rngs = [np.random.default_rng((cfg.master_seed, rep, 0)) for rep in reps]
    y = simgen._responses(spec, rngs)  # (R, n+1, 2, G), generated rows
    _require(np.isfinite(y))
    perm = np.array([rng.permutation(n + 1) for rng in rngs])
    train, calib = _uniform_parts(np.array([
        np.random.default_rng((cfg.master_seed, rep, 1)).permutation(n)
        for rep in reps]), l)
    # Dataset row i is generated row perm[:, i]; the held-out one is the last.
    train, calib = (np.take_along_axis(perm, part, 1) for part in (train, calib))
    out, stack = perm[:, -1], np.arange(count)[:, None]
    taus = [_tau(cfg, rep) for rep in reps]

    regressor = simgen.regressor_for(spec)
    columns = SimpleNamespace(scalar=simgen._covariates(spec), functional={})
    designs = [regress._design(columns, regressor, names, j, np.arange(n + 1))
               for j, names in enumerate(regressor.component_terms(grid.p))]
    _require([m >= d.shape[1] for d in designs])
    coefs, res = [], []
    for j, d in enumerate(designs):
        x, resp = d[train], y[stack, train, j]  # (R, m, q), (R, m, G)
        coef = np.stack([regress._solve(x[r], resp[r], j) for r in range(count)])
        _require(np.isfinite(coef))
        coefs.append(coef)  # (R, q, G): the transposed coefficient blocks
        res.append(resp - np.matmul(x, coef))

    if cfg.modulation == "s0":
        fns = [np.broadcast_to(f, (count, f.size)) for f in modulate.s_const(grid).fns]
    elif cfg.modulation == "sigma":
        _require(m >= 2)
        fns = modulate._unit(
            modulate.zero_adjust([np.std(r, axis=1, ddof=1) for r in res]), grid)
    else:
        ranks = np.array([modulate.TrimConfig(alpha, cfg.mode, tau).rank(m)
                          for tau in taus])
        env = modulate._kept_max(res, np.maximum(ranks, 1))
        constant = (ranks < 1)[:, None]  # below rank 1, s_bar is s_const
        fns = [np.where(constant, c, f) for c, f in zip(
            modulate.s_const(grid).fns,
            modulate._unit(modulate.zero_adjust(list(env)), grid))]
    _require([np.isfinite(f) & (f > 0) for f in fns])
    total = sum(_integrals(fns, grid))
    _require(np.abs(total - 1.0) <= modulate.NORMALIZATION_TOL)

    infinite = np.zeros(count, bool)
    if cfg.method == "cub":
        rank, crossed = _feasible_rank(l, alpha)
        if crossed:
            return [ReplicationRecord(rep, True, None, True) for rep in reps]
    scaled = conformal._modulated(
        [y[stack, calib, j] - np.matmul(d[calib], coef)
         for j, (d, coef) in enumerate(zip(designs, coefs))], fns)
    if cfg.method == "cub":
        radii, closed = conformal._rank_radii(scaled, rank), True
        sizes = conformal._band_area(radii, fns, grid)
    else:
        scores = _row_sups(scaled)
        _require(np.isfinite(scores) & (scores >= 0))
        tau = np.array([_level(alpha, cfg.mode, t) for t in taus])
        ranks = np.array([_feasible_rank(l, alpha, t)[0] for t in tau])
        _require(ranks >= 1)  # else the smoothed band is empty
        infinite = ranks > l
        radius, closed = conformal._selected(
            np.sort(scores, axis=-1), np.minimum(ranks, l), alpha, tau)
        _require(closed | infinite | (cfg.mode != "split"))
        radius = np.where(infinite, 0.0, radius)
        radii, sizes = [radius] * grid.p, 2.0 * radius
        area = conformal._band_area(radii, fns, grid)
        _require(infinite | (np.abs(area - sizes)
                             <= 1e-10 * np.maximum(1.0, np.abs(sizes))))

    hits = np.ones(count, bool)
    for j, (d, coef) in enumerate(zip(designs, coefs)):
        fit = np.matmul(d[out][:, None, :], coef)[:, 0]  # (R, G)
        lower = fit - radii[j][:, None] * fns[j]
        upper = fit + radii[j][:, None] * fns[j]
        _require((np.isfinite(lower) & np.isfinite(upper) & (lower <= upper))
                 | infinite[:, None])
        hits &= conformal._inside(lower, y[stack[:, 0], out, j], upper, closed)
    return [ReplicationRecord(rep, True, None, True) if inf
            else ReplicationRecord(rep, bool(hit), float(q), False)
            for rep, inf, hit, q in zip(reps, infinite, hits, sizes)]


def _replication_batch(cfg: StudyConfig, reps: list[int]):
    """The records of ``reps``, in stacks of :func:`_stack_size`
    replications; a stack with a fault is run one replication at a time."""
    size, out = _stack_size(cfg), []
    for i in range(0, len(reps), size):
        stack = reps[i : i + size]
        # A failed check or a floating-point fault of any replication sends
        # the stack through _replication, one replication at a time, which
        # gives the exact message or failure count.
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out += _stacked(cfg, stack)
            continue
        except (_StackFault, ArithmeticError, ValueError):
            pass
        for rep in stack:
            try:
                out.append(ReplicationRecord(rep, *_replication(cfg, rep)))
            except Exception as exc:
                if cfg.skip_failures:
                    out.append(ReplicationRecord(rep, None, None, False))
                else:
                    raise ReplicationError(f"replication {rep} failed: {exc}") from exc
    return out


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run all replications and aggregate.

    Failed replications abort the study unless ``skip_failures`` is set, in
    which case they are counted and excluded (a count is reported because
    silently dropping them would bias the coverage estimate); a study whose
    replications all fail raises :class:`ReplicationError`.
    """
    reps = list(range(cfg.n_reps))
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, math.ceil(cfg.n_reps / (cfg.workers * 4)))
        batches = [reps[i : i + chunk] for i in range(0, len(reps), chunk)]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = [
                r
                for batch in pool.map(_replication_batch, [cfg] * len(batches), batches)
                for r in batch
            ]
    else:
        results = _replication_batch(cfg, reps)

    results.sort(key=lambda r: r.rep)
    hits = sum(1 for r in results if r.hit)
    n_failed = sum(1 for r in results if r.hit is None)
    n_infinite = sum(1 for r in results if r.infinite)
    sizes = sorted(r.size for r in results if r.size is not None)
    n_effective = cfg.n_reps - n_failed

    if n_effective == 0:
        raise ReplicationError(f"all {cfg.n_reps} replications failed")
    coverage, lo, hi = coverage_ci(hits, n_effective)
    if sizes:
        q1, med, q3 = size_quartiles(sizes)
    else:
        q1 = med = q3 = math.nan
    return StudyReport(
        config=cfg,
        n_reps=n_effective,
        hits=hits,
        coverage=coverage,
        ci_lower=lo,
        ci_upper=hi,
        theoretical_coverage=_guaranteed_coverage(cfg.l, cfg.alpha, cfg.mode),
        size_q1=q1,
        size_median=med,
        size_q3=q3,
        n_infinite=n_infinite,
        n_failed=n_failed,
        sizes=tuple(sizes) if cfg.keep_sizes else None,
        records=tuple(results) if cfg.keep_records else None,
    )
