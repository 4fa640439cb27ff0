"""Monte Carlo replication engine for coverage and band-size studies.

Each replication generates a fresh sample plus one held-out pair, splits,
fits, calibrates and records whether the held-out curve falls inside the
band together with the band size. Per-replication randomness is derived from
``(master_seed, replication_index, stream)`` with one stream each for the
sample, the split and the smoothed tie-breaker.

:func:`_stacked` is the one engine: it computes a stack of R replications
of a cell as arrays with a leading replication axis. Each replication still
draws from its own generators in the same order, and the stages call the
private helpers behind the public objects (``Dataset``, ``Split``,
``FittedRegressor``, ``ModulationSet``, ``BandPredictor``, ``Band``) without
building those objects. The least-squares fit is one ``regress._solve``
call per stack and component, which runs LAPACK once per replication. R is
:data:`STACK_BYTES` over the size of one replication's response block, and
at least 1: at G = 100 on two components that is 31 at n = 20, 3 at n = 200
and 1 at n = 2000. The budget bounds a stack's temporaries, a few copies of
its response block.

Each stage checks the whole stack with the rule its module applies to the
public objects, under their labels and in their order: finite values,
training rows, design rank, modulation, calibration, split closure, bounds
and band size. A stack that a rule or a floating-point fault refuses runs
again as stacks of one, with floating-point faults left to the rules, so a
failure's message and the ``skip_failures`` count are those the public
objects give for that replication.

Determinism contract: a record depends only on the cell and its
replication index, not on the stack size, the worker count or how the
replications are chunked between workers, so reports are bit-identical for
any worker count. The stacked stages are those whose results equal their
per-replication form bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import conformal, modulate, regress, simgen
from .core import (
    MFConformalError,
    _feasible_rank,
    _finite,
    _guaranteed_coverage,
    _integer,
    _level,
    _row_sups,
    _uniform_parts,
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


def _stack_size(cfg: StudyConfig) -> int:
    """Replications per stack: :data:`STACK_BYTES` over the bytes of one
    replication's (2, n+1, G) response block, at least 1."""
    spec = cfg.scenario
    return max(1, STACK_BYTES // ((spec.n + 1) * 2 * spec.grid_points * 8))


def _stacked(cfg: StudyConfig, reps: list[int]) -> list[ReplicationRecord]:
    """The records of ``reps``, computed as stacked arrays with a leading
    replication axis. Raises on the first fault of any replication in the
    stack; for a stack of one, the fault and its message are those of the
    public objects on the same replication, checked in their order."""
    spec, alpha, l = cfg.scenario, cfg.alpha, cfg.l
    n, count = spec.n, len(reps)
    grid = simgen._grid(spec.grid_points)
    rngs = [np.random.default_rng((cfg.master_seed, rep, 0)) for rep in reps]
    y = simgen._responses(spec, rngs)  # (R, 2, n+1, G), generated rows
    perm = np.array([rng.permutation(n + 1) for rng in rngs])
    train, calib = _uniform_parts(np.array([
        np.random.default_rng((cfg.master_seed, rep, 1)).permutation(n)
        for rep in reps]), l)
    # Dataset row i is generated row perm[:, i]; the held-out one is the last.
    train, calib = (np.take_along_axis(perm, part, 1) for part in (train, calib))
    out, stack = perm[:, -1], np.arange(count)[:, None]
    taus = [float(np.random.default_rng((cfg.master_seed, rep, 2)).uniform())
            if cfg.mode == "smoothed" else None for rep in reps]  # tie-breakers

    regressor = simgen.regressor_for(spec)
    columns = SimpleNamespace(scalar=simgen._covariates(spec), functional={})
    designs = [regress._design(columns, regressor, names, j, np.arange(n + 1))
               for j, names in enumerate(regressor.component_terms(grid.p))]
    # Training, calibration and held-out rows. The gathers copy the rows,
    # so the residuals overwrite them.
    res = [y[:, j][stack, train] for j in range(grid.p)]
    calib_res = [y[:, j][stack, calib] for j in range(grid.p)]
    y_out = [y[stack[:, 0], j, out] for j in range(grid.p)]  # (R, G)
    for j in range(grid.p):  # the dataset's rows, then the held-out curve
        _finite(res[j], f"responses component {j}")
        _finite(calib_res[j], f"responses component {j}")
    for j, v in enumerate(y_out):
        _finite(v, f"curve component {j}")
    fit = []
    for j, (d, res_j, cal_j) in enumerate(zip(designs, res, calib_res)):
        x = d[train]
        regress._enough_rows(n - l, x.shape[-1], j)
        # (R, q, G): the transposed coefficient blocks
        coef = regress._solve(x, res_j, j, shared=True)
        _finite(coef, f"coefficient component {j}")
        res_j -= regress._fitted(x, coef)
        cal_j -= regress._fitted(d[calib], coef)
        fit.append(regress._fitted(d[out][:, None, :], coef)[:, 0])  # (R, G)

    if cfg.modulation == "s0":
        fns = modulate.s_const(grid).fns
    elif cfg.modulation == "sigma":
        fns = modulate._checked(modulate._sigma_fns(res, grid), grid)
    else:
        ranks = [modulate.TrimConfig(alpha, cfg.mode, tau).rank(n - l) for tau in taus]
        fns = modulate._checked(modulate._sbar_fns(res, ranks, grid), grid)

    infinite = np.zeros(count, bool)
    if cfg.method == "cub":
        rank, crossed = _feasible_rank(l, alpha)
        if crossed:
            return [ReplicationRecord(rep, True, None, True) for rep in reps]
    scaled = conformal._modulated(calib_res, fns)
    if cfg.method == "cub":
        radii, closed = conformal._rank_radii(scaled, rank), True
    else:
        scores = _row_sups(scaled)
        _finite(scores, "scores", ValueError)
        tau = np.array([_level(alpha, cfg.mode, t) for t in taus])
        radius, closed, infinite = conformal._calibrated(
            np.sort(scores, axis=-1), alpha, tau)
        conformal._split_closed(closed, cfg.mode)
        radii = [radius] * grid.p

    lower, upper = conformal._bounds(fit, [k[:, None] for k in radii], fns)
    sizes = conformal._band_area(radii, fns, grid)
    if cfg.method == "mpb":  # checked after the band, as band_size is
        sizes = conformal._checked_size(sizes, 2.0 * radius)
    hits = np.all([conformal._inside(lo, v, hi, closed)
                   for lo, v, hi in zip(lower, y_out, upper)], axis=0)
    return [ReplicationRecord(rep, True, None, True) if inf
            else ReplicationRecord(rep, bool(hit), float(q), False)
            for rep, inf, hit, q in zip(reps, infinite, hits, sizes)]


@functools.cache
def _raise_malloc_thresholds() -> None:
    """Free one untouched 16 MiB block, once per process.

    glibc's malloc serves a request at or above its mmap threshold with a
    fresh mapping. Freeing a mapped block raises that threshold to the
    block's size, and the heap's trim threshold to twice it, but only up to
    DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB on 64-bit systems (mallopt(3)). A cell
    run back to back frees and requests blocks of one size, so at n = 2000
    each replication mapped its few-MB arrays afresh and faulted in every
    page again. After this block is freed, such arrays come from the heap,
    which keeps its pages. No page of the block is written, so it adds
    nothing to the resident set; other allocators ignore it.
    """
    np.empty(1 << 21)


def _replication_batch(cfg: StudyConfig, reps: list[int]):
    """The records of ``reps``, in stacks of :func:`_stack_size`
    replications; a stack with a fault is run again as stacks of one."""
    _raise_malloc_thresholds()
    size, out = _stack_size(cfg), []
    for i in range(0, len(reps), size):
        stack = reps[i : i + size]
        # A failed check or a floating-point fault of any replication sends
        # the stack through _stacked again, one replication at a time and
        # with floating-point faults left to the checks, which gives the
        # exact message or failure count.
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out += _stacked(cfg, stack)
            continue
        except (ArithmeticError, ValueError, MFConformalError):
            pass
        for rep in stack:
            try:
                out += _stacked(cfg, [rep])
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
