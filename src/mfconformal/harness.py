"""Monte Carlo replication engine for coverage and band-size studies.

Each replication generates a fresh sample plus one held-out pair, splits,
fits, calibrates and records whether the held-out curve falls inside the
band together with the band size. Per-replication randomness is derived from
``(master_seed, replication_index)`` so reports are bit-identical regardless
of how many workers execute the replications.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import conformal, modulate, regress, simgen
from .core import MFConformalError, _guaranteed_coverage, _level, random_split

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
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"master_seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {seed}")
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
    """Run one replication; returns (hit, size, infinite_flag).

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
        return conformal.contains(band, y_new), conformal._band_area(radii, s), False

    pred = conformal.calibrate(
        dataset, split, model, s, cfg.alpha, mode=cfg.mode, tau=tau
    )
    if pred.infinite:
        return True, None, True
    band = conformal.make_band(pred, x_new)
    return conformal.contains(band, y_new), conformal.band_size(pred), False


def _replication_batch(cfg: StudyConfig, reps: list[int]):
    out = []
    for rep in reps:
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
