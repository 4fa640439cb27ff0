"""Modulation functions shaping the local width of prediction bands.

Four families are built from residual curves, all strictly positive and
normalized to unit total integral (the canonical representative of each
scaling-equivalence class). Residuals arrive as
:func:`~mfconformal.regress.residuals` returns them: one (m, G_j) block per
component, one row per curve, so every family is a reduction over rows.

- constant ("s0"): no modulation;
- standard deviation ("sigma"): pointwise sample std of training residuals;
- trimmed max envelope ("sbar"): pointwise max over the training residual
  curves whose raw sup-score falls at or below a level-dependent quantile;
- calibration-side envelope ("sbar_c"): same construction on the calibration
  residuals, used for efficiency comparisons rather than band building.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    Grid,
    MFConformalError,
    _feasible_rank,
    _finite,
    _integrals,
    _level,
    _readonly_blocks,
    _real,
    _row_sups,
    order_stat_index,
)

__all__ = [
    "ModulationSet",
    "TrimConfig",
    "PathologicalDataError",
    "QuantileIndexError",
    "s_const",
    "s_sigma",
    "s_bar",
    "s_bar_c",
    "make_modulation",
    "trimmed_envelope",
    "zero_adjust",
]

# Relative size of the positive value added where an envelope vanishes.
ZERO_ADJUST_REL = 1e-6

NORMALIZATION_TOL = 1e-10

MODULATIONS = ("s0", "sigma", "sbar")


class PathologicalDataError(MFConformalError, ValueError):
    """All residuals vanish identically; no modulation can be built."""


class QuantileIndexError(MFConformalError, ValueError):
    """The requested order-statistic rank falls outside 1..count."""


@dataclass(frozen=True)
class TrimConfig:
    """Level and conformal mode entering the envelope trimming rank."""

    alpha: float
    mode: str = "split"
    tau: float | None = None

    def __post_init__(self):
        _level(self.alpha, self.mode, self.tau)

    def rank(self, count: int) -> int:
        """1-based trimming rank for ``count`` residual curves. May exceed
        ``count`` (keep everything) or, in smoothed mode, be < 1."""
        tau = _level(self.alpha, self.mode, self.tau)
        return order_stat_index(count, self.alpha, tau)


@dataclass(frozen=True, eq=False)
class ModulationSet:
    """Strictly positive sampled modulation functions on a grid.

    ``unit_integral`` marks the canonical normalized representative; the
    ``scale`` method produces deliberately denormalized members of the same
    equivalence class (bands built from them must coincide).
    """

    grid: Grid
    fns: tuple[np.ndarray, ...]
    label: str
    unit_integral: bool = True

    def __post_init__(self):
        fns = _readonly_blocks(self.fns, "modulation", 1)
        self.grid.validate_blocks([f[None] for f in fns], "modulation functions")
        object.__setattr__(self, "fns", _checked(fns, self.grid, self.unit_integral))

    @property
    def total(self) -> float:
        return sum(_integrals(self.fns, self.grid))

    def scale(self, factor: float) -> "ModulationSet":
        """Positive rescaling; the result is no longer claimed normalized."""
        factor = _real(factor, "scale factor")
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            fns=tuple(factor * f for f in self.fns),
            unit_integral=False,
        )


def _checked(fns, grid: Grid, unit: bool = True):
    """``fns`` if finite, strictly positive and, if ``unit``, of total
    integral 1 (per set of an (R, G_j) stack); else a ValueError, which
    names the total of the first set of a stack that is off."""
    for j, f in enumerate(fns):
        _finite(f, f"modulation component {j}")
    for j, f in enumerate(fns):
        if not (f > 0).all():
            raise ValueError(f"modulation component {j} must be strictly positive")
    if unit:
        tot = np.ravel(sum(_integrals(fns, grid)))
        off = np.abs(tot - 1.0) > NORMALIZATION_TOL
        if off.any():
            raise ValueError(f"modulation set integrates to "
                             f"{float(tot[off.argmax()])!r}, expected 1")
    return fns


def _unit(fns: Sequence[np.ndarray], grid: Grid) -> tuple[np.ndarray, ...]:
    """The functions divided by their total quadrature integral; for (R, G_j)
    stacks, each of the R sets by its own total."""
    tot = np.asarray(sum(_integrals(fns, grid)))[..., None]
    return tuple(f / tot for f in fns)


def zero_adjust(fns: list[np.ndarray]) -> list[np.ndarray]:
    """Replace exact zeros by a small positive value.

    The value is ``ZERO_ADJUST_REL`` times the global maximum over all
    components, keeping the adjustment scale-free. Functions that are already
    strictly positive are returned unchanged. Raises
    :class:`PathologicalDataError` when everything is zero. For (R, G_j)
    stacks of R sets of functions, each set is adjusted by its own maximum.
    """
    gmax = _row_sups(fns)
    if (gmax <= 0.0).any():
        raise PathologicalDataError(
            "residual envelope vanishes identically; cannot modulate"
        )
    eps = (ZERO_ADJUST_REL * gmax)[..., None]
    return [np.where(f == 0.0, eps, f) for f in fns]


def s_const(grid: Grid) -> ModulationSet:
    """Constant modulation 1 / sum_j |T_j| (no modulation)."""
    value = 1.0 / grid.measure
    fns = tuple(np.full(c.size, value) for c in grid.components)
    return ModulationSet(grid=grid, fns=fns, label="s0")


def s_sigma(train_residuals: Sequence[np.ndarray], grid: Grid) -> ModulationSet:
    """Pointwise sample standard deviation of the residuals, normalized.

    Uses divisor m-1; the choice is immaterial after normalization. Grid
    points where the std vanishes receive the standard zero adjustment.
    """
    grid.validate_blocks(train_residuals, "residuals")
    return ModulationSet(grid=grid, fns=_sigma_fns(train_residuals, grid), label="sigma")


def _sigma_fns(residuals: Sequence[np.ndarray], grid: Grid) -> tuple[np.ndarray, ...]:
    """The sigma family's functions of (..., m, G_j) residual blocks: the
    pointwise std over the m >= 2 curves with divisor m-1, zero-adjusted and
    normalized. Leading axes stack replications, each normalized alone."""
    if np.shape(residuals[0])[-2] < 2:
        raise ValueError("s_sigma needs at least 2 residual curves")
    return _unit(zero_adjust([np.std(r, axis=-2, ddof=1) for r in residuals]), grid)


def trimmed_envelope(
    residuals: Sequence[np.ndarray], grid: Grid, cfg: TrimConfig
) -> tuple[np.ndarray, ...] | None:
    """Pointwise max of the residual curves kept by the trimming rule.

    This is the raw (pre-adjustment, pre-normalization) numerator of the
    envelope modulation families. The curves kept are those whose raw
    sup-score is at most the rank-th smallest sup-score; a rank above the
    curve count keeps everything. Returns ``None`` when the smoothed rank is
    below 1 (callers fall back to the constant family).
    """
    rank = cfg.rank(grid.validate_blocks(residuals, "residuals"))
    return None if rank < 1 else _kept_max(residuals, rank)


def _kept_max(residuals: Sequence[np.ndarray], rank) -> tuple[np.ndarray, ...]:
    """Pointwise max of the absolute residual curves whose sup-score is at
    most the rank-th smallest (every curve for a rank above the count).
    Residual blocks may be (R, count, G_j) stacks, with one rank >= 1 per
    replication."""
    abs_res = [np.abs(r) for r in residuals]
    sups = _row_sups(abs_res)
    at = np.minimum(rank, sups.shape[-1])[..., None] - 1
    keep = sups <= np.take_along_axis(np.sort(sups, axis=-1), at, -1)
    # The kept maximum of nonnegative values, with the others counted as 0.
    return tuple(np.where(keep[..., None], a, 0.0).max(axis=-2) for a in abs_res)


def s_bar(
    train_residuals: Sequence[np.ndarray], grid: Grid, cfg: TrimConfig
) -> ModulationSet:
    """Trimmed max-envelope modulation built from training residuals.

    In smoothed mode a rank below 1 degenerates to the constant family by
    convention.
    """
    rank = cfg.rank(grid.validate_blocks(train_residuals, "residuals"))
    return ModulationSet(grid, _sbar_fns(train_residuals, rank, grid), "sbar")


def _sbar_fns(residuals: Sequence[np.ndarray], rank, grid: Grid):
    """The sbar family of (..., m, G_j) residual blocks: the kept envelope,
    zero-adjusted and normalized, or s_const where the trimming rank (one
    per replication of a stack) is below 1."""
    const, below = s_const(grid).fns, np.asarray(rank) < 1
    if below.all():
        return const
    env = zero_adjust(list(_kept_max(residuals, np.maximum(rank, 1))))
    return tuple(np.where(below[..., None], c, f) for c, f in zip(const, _unit(env, grid)))


def s_bar_c(
    calib_residuals: Sequence[np.ndarray], grid: Grid, cfg: TrimConfig
) -> ModulationSet:
    """Calibration-side counterpart of :func:`s_bar`.

    Unlike the training-side family, the trimming rank must be a valid
    calibration order statistic, tau/(l+1) <= alpha < (l+tau)/(l+1) with
    tau = 1 in split mode; anything else raises :class:`QuantileIndexError`.
    """
    count = grid.validate_blocks(calib_residuals, "residuals")
    tau = _level(cfg.alpha, cfg.mode, cfg.tau)
    rank, crossed = _feasible_rank(count, cfg.alpha, tau)
    if crossed:
        raise QuantileIndexError(f"rank {rank} outside 1..{count} in {cfg.mode} "
                                 f"mode since {crossed}")
    return ModulationSet(grid, _sbar_fns(calib_residuals, rank, grid), "sbar_c")


def make_modulation(
    label: str,
    residuals: Sequence[np.ndarray],
    grid: Grid,
    cfg: TrimConfig | None = None,
) -> ModulationSet:
    """Build a modulation set by label, one of :data:`MODULATIONS`."""
    if _modulation_label(label) == "s0":
        return s_const(grid)
    if label == "sigma":
        return s_sigma(residuals, grid)
    if cfg is None:
        raise ValueError("sbar needs a TrimConfig")
    return s_bar(residuals, grid, cfg)


def _modulation_label(label: str) -> str:
    """``label`` if it is one of :data:`MODULATIONS`; else a ValueError."""
    if label not in MODULATIONS:
        raise ValueError(f"unknown modulation label {label!r}, expected {MODULATIONS}")
    return label
