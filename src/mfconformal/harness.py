"""Monte Carlo replication engine for coverage and band-size studies.

Replication ``rep`` draws from the generators of ``(master_seed, rep,
stream)``: stream 0 for the sample and its held-out pair, 1 for the split
and, in smoothed mode, 2 for the tie-breakers (all ones in split mode).

:func:`_stacked` runs a stack of replications, as arrays with a leading
replication axis, through seven stages named for perfbench's. Each checks
the stack with the public objects' rules, under their labels and in their
order, so a stack of one fails as the public objects do: ``_data``;
``_split``, finite responses and held-out curves; ``_fit``, training rows,
design rank and finite coefficients; ``_residuals``; ``_modulation``, the
modulation rules; ``_calibrate``, finite scores, calibration and split
closure; ``_band``, the bounds and the band size. Floating-point faults are
ignored, since these rules refuse the infs and NaNs they leave.

Determinism contract: a record depends only on the cell and its
replication index, not on the stack size or the workers: each stage's
results equal their per-replication form bit for bit.
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
    _readonly,
    _real,
    _row_sups,
    _uniform_parts,
    order_stat_index,
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
        for name, low, high in (("l", 1, self.scenario.n - 1), ("n_reps", 1, None),
                                ("workers", 1, None), ("master_seed", 0, None)):
            value = _integer(getattr(self, name), name, ValueError, low, high)
            object.__setattr__(self, name, value)
        modulate._modulation_label(self.modulation)
        # Each smoothed replication draws its own tie-breaker in [0, 1).
        _level(self.alpha, self.mode, 0.0 if self.mode == "smoothed" else None)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "cub" and self.mode != "split":
            raise ValueError("the concatenated method is defined in split mode")


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
    n = _integer(n, "n", low=1)
    hits = _integer(hits, "hits", low=0, high=n)
    _real(n, "n")  # the interval divides a float by n
    p = hits / n
    half = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return p, p - half, p + half


def size_quartiles(sizes) -> tuple[float, float, float]:
    """First quartile, median and third quartile with linear interpolation
    between closest ranks."""
    arr = _readonly(sizes, "sizes")
    if arr.size == 0:
        raise ValueError("need at least one size")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
    return float(q1), float(med), float(q3)


def _stack_size(cfg: StudyConfig) -> int:
    """Replications per stack: :data:`STACK_BYTES` over one replication's responses."""
    spec = cfg.scenario
    return max(1, STACK_BYTES // ((spec.n + 1) * 2 * spec.grid_points * 8))


# generate_state's output hash (numpy/random/bit_generator.pyx): output word i
# is pool word i % 4 xored with INIT_B * MULT_B**i, times the next factor, then
# xored with itself >> 16; PCG64 reads pairs of words as little-endian uint64.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32)
                  for i in range(9)], np.uint32)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A PCG64's seed sequence: its entropy key and the 4 uint64 words it reads."""

    def __init__(self, entropy, state):
        self.entropy, self._state = entropy, state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def _generators(seed: int, reps: list[int], streams: int) -> list[list]:
    """For each stream s < ``streams``, the generators of ``reps``, bit for bit
    those of ``np.random.default_rng((seed, rep, s))``. numpy's SeedSequence
    mixes each key's words; one pass of the hash gives every state word."""
    keys = [(seed, rep, s) for s in range(streams) for rep in reps]
    pools = np.array([np.random.SeedSequence(key).pool for key in keys])
    state = (np.tile(pools, 2) ^ _HASH[:-1]) * _HASH[1:]
    state = (state ^ state >> 16).astype("<u4").view("<u8").astype(np.uint64)
    gens = [np.random.Generator(np.random.PCG64(_Seeded(key, words)))
            for key, words in zip(keys, state)]
    return [gens[s * len(reps):(s + 1) * len(reps)] for s in range(streams)]


def _stacked(cfg: StudyConfig, reps: list[int]) -> list[ReplicationRecord]:
    """The records of ``reps``: one stack through the seven stages, in order."""
    st = SimpleNamespace(cfg=cfg, reps=reps, grid=simgen._grid(cfg.scenario.grid_points))
    for stage in (_data, _split, _fit, _residuals, _modulation, _calibrate, _band):
        stage(st)
    return st.records


def _data(st) -> None:
    """The stack's generators, and stream 0's responses and row permutations."""
    rngs, *st.streams = _generators(st.cfg.master_seed, st.reps,
                                    3 if st.cfg.mode == "smoothed" else 2)
    st.y = simgen._responses(st.cfg.scenario, rngs)  # (R, 2, n+1, G), generated rows
    st.perm = np.array([rng.permutation(st.cfg.scenario.n + 1) for rng in rngs])


def _split(st) -> None:
    """The tie-breakers, and the training, calibration and held-out rows, checked finite."""
    (splits, *ties), count = st.streams, len(st.reps)
    parts = _uniform_parts(np.array([rng.permutation(st.cfg.scenario.n) for rng in splits]),
                           st.cfg.l)
    # Dataset row i is generated row perm[:, i]; the held-out one is the last.
    st.train, st.calib = (np.take_along_axis(st.perm, part, 1) for part in parts)
    st.tau = np.array([rng.uniform() for rng in ties[0]]) if ties else np.ones(count)
    # The gathers copy the rows, so the residuals overwrite them.
    stack, p = np.arange(count)[:, None], st.grid.p
    st.res = [st.y[:, j][stack, st.train] for j in range(p)]
    st.calib_res = [st.y[:, j][stack, st.calib] for j in range(p)]
    st.y_out = [st.y[stack[:, 0], j, st.perm[:, -1]] for j in range(p)]  # (R, G)
    for j in range(p):  # the dataset's rows, then the held-out curve
        _finite(st.res[j], f"responses component {j}")
        _finite(st.calib_res[j], f"responses component {j}")
    for j, v in enumerate(st.y_out):
        _finite(v, f"curve component {j}")


def _fit(st) -> None:
    """Each component's (R, q, G) coefficients, checked as ``regress.fit`` checks them."""
    spec, regressor = st.cfg.scenario, simgen.regressor_for(st.cfg.scenario)
    columns = SimpleNamespace(scalar=simgen._covariates(spec), functional={})
    st.designs = [regress._design(columns, regressor, names, j, np.arange(spec.n + 1))
                  for j, names in enumerate(regressor.component_terms(st.grid.p))]
    st.coef = []
    for j, (d, res_j) in enumerate(zip(st.designs, st.res)):
        regress._enough_rows(spec.n - st.cfg.l, d.shape[-1], j)
        st.coef.append(regress._solve(d[st.train], res_j, j, shared=True))
        _finite(st.coef[j], f"coefficient component {j}")


def _residuals(st) -> None:
    """The training and calibration residuals, in place of their gathered rows."""
    for d, coef, res_j, cal_j in zip(st.designs, st.coef, st.res, st.calib_res):
        res_j -= d[st.train] @ coef
        cal_j -= d[st.calib] @ coef


def _modulation(st) -> None:
    """The modulation functions, checked as ``modulate.make_modulation`` checks them."""
    cfg, grid = st.cfg, st.grid
    if cfg.modulation == "s0":
        st.fns = modulate.s_const(grid).fns
    elif cfg.modulation == "sigma":
        st.fns = modulate._checked(modulate._sigma_fns(st.res, grid), grid)
    else:
        rank = order_stat_index(cfg.scenario.n - cfg.l, cfg.alpha, st.tau)
        st.fns = modulate._checked(modulate._sbar_fns(st.res, rank, grid), grid)


def _calibrate(st) -> None:
    """The radii: ``cub`` ranks each component, ``mpb`` calibrates one on the scores."""
    cfg, count = st.cfg, len(st.reps)
    if cfg.method == "cub":
        rank, crossed = _feasible_rank(cfg.l, cfg.alpha)
        st.radii = None if crossed else conformal._rank_radii(
            conformal._modulated(st.calib_res, st.fns), rank)
        st.radius, st.closed, st.infinite = None, True, np.zeros(count, bool)
    else:
        scores = _row_sups(conformal._modulated(st.calib_res, st.fns))
        _finite(scores, "scores")
        st.radius, st.closed, st.infinite = conformal._calibrated(
            np.sort(scores, axis=-1), cfg.alpha, st.tau)
        conformal._split_closed(st.closed, cfg.mode)
        st.radii = [st.radius] * st.grid.p


def _band(st) -> None:
    """The records: each band's bounds and size, and whether it holds the held-out curve."""
    if st.radii is None:  # cub below its feasibility bound: the whole space
        st.records = [ReplicationRecord(rep, True, None, True) for rep in st.reps]
        return
    out = st.perm[:, -1]
    fit = [(d[out][:, None, :] @ coef)[:, 0] for d, coef in zip(st.designs, st.coef)]
    lower, upper = conformal._bounds(fit, [k[:, None] for k in st.radii], st.fns)
    # checked after the bounds, as the public path checks it
    sizes = conformal._band_size(st.radii, st.fns, st.grid, st.radius)
    hits = np.all([conformal._inside(lo, v, hi, st.closed)
                   for lo, v, hi in zip(lower, st.y_out, upper)], axis=0)
    st.records = [ReplicationRecord(rep, True, None, True) if inf
                  else ReplicationRecord(rep, bool(hit), float(q), False)
                  for rep, inf, hit, q in zip(st.reps, st.infinite, hits, sizes)]


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
    replications with floating-point faults ignored; a stack that a check
    refuses runs again as stacks of one, for the exact message or count."""
    _raise_malloc_thresholds()
    size, out = _stack_size(cfg), []
    with np.errstate(all="ignore"):
        for i in range(0, len(reps), size):
            stack = reps[i : i + size]
            try:
                out += _stacked(cfg, stack)
                continue
            except (ValueError, MFConformalError):
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
