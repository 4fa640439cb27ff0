"""Calibration and simultaneous band construction.

A band predictor combines a fitted regressor, a modulation set and a
calibrated radius: the band for a new observation is
``prediction(t) +- radius * s_j(t)`` simultaneously over all components and
grid points. There is one calibrator and one rank rule: the smoothed one,
randomized by a uniform tie-breaker tau (exact coverage, open or closed
bands); plain split calibration (closed bands, valid and often conservative
coverage) is smoothed calibration at tau = 1. The concatenated per-component
and pointwise constructions are included for comparison; both are provably
subsets of the simultaneous band. A :class:`Split` given with a dataset
must partition its rows 0..n-1, else a ShapeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from .core import (
    Covariates,
    Dataset,
    MFConformalError,
    MFCurve,
    ShapeError,
    Split,
    _feasible_rank,
    _finite,
    _integrals,
    _level,
    _readonly,
    _readonly_blocks,
    _real,
    _row_sups,
    order_stat_index,
)
from .modulate import ModulationSet
from .regress import FittedRegressor, predict, residuals

__all__ = [
    "Scores",
    "Calibration",
    "BandPredictor",
    "Band",
    "EmptyBandError",
    "InfiniteBandError",
    "score",
    "calibration_scores",
    "calibrate_split",
    "calibrate_smoothed",
    "calibrate",
    "make_band",
    "contains",
    "p_value",
    "p_value_smoothed",
    "band_size",
    "cub_radii",
    "cub_band",
    "pointwise_radii",
    "pointwise_band",
]


class EmptyBandError(MFConformalError, ValueError):
    """alpha lies above the smoothed feasibility range; the band is empty."""


class InfiniteBandError(MFConformalError, ValueError):
    """Operation undefined for an infinite (whole-space) band."""


@dataclass(frozen=True, eq=False)
class Scores:
    """Nonconformity scores of the calibration set, with a sorted copy."""

    values: np.ndarray
    sorted_values: np.ndarray = dataclasses_field(init=False, default=None)

    def __post_init__(self):
        vals = _readonly(self.values, "scores")
        if vals.size < 1:
            raise ShapeError("scores must be a non-empty vector")
        if (vals < 0).any():
            raise ValueError("scores must be nonnegative")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sorted_values",
                           _readonly(np.sort(vals), "sorted scores"))

    @property
    def l(self) -> int:
        return self.values.size


def _outcome(closure: str, radius: float = 0.0, infinite: bool = False) -> None:
    """Check a band outcome: a known closure and, unless the band is the
    whole space, a finite radius >= 0."""
    if closure not in ("closed", "open"):
        raise ValueError(f"unknown closure {closure!r}")
    if not infinite and not 0 <= _real(radius, "radius") < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {radius!r}")


@dataclass(frozen=True)
class Calibration:
    """Outcome of a calibration: the band half-width multiplier and whether
    the band is closed, open or the whole space."""

    radius: float
    closure: str  # "closed" | "open"
    infinite: bool = False

    def __post_init__(self):
        _outcome(self.closure, self.radius, self.infinite)


@dataclass(frozen=True, eq=False)
class BandPredictor:
    """Calibrated predictor: everything needed to emit a band for new
    covariates."""

    model: FittedRegressor
    modulation: ModulationSet
    radius: float
    closure: str
    alpha: float
    mode: str
    tau: float | None = None
    infinite: bool = False

    def __post_init__(self):
        _level(self.alpha, self.mode, self.tau)
        _outcome(self.closure, self.radius, self.infinite)
        _split_closed(self.closure == "closed", self.mode)
        if self.model.grid != self.modulation.grid:
            raise ShapeError("model and modulation grids differ")


def _split_closed(closed, mode: str) -> None:
    """A ValueError if split mode meets an open band (a false ``closed``)."""
    if mode == "split" and not np.all(closed):
        raise ValueError("split-mode bands are closed")


@dataclass(frozen=True, eq=False)
class Band:
    """Sampled lower/upper bounds, one pair of curves per component."""

    lower: tuple[np.ndarray, ...] | None
    upper: tuple[np.ndarray, ...] | None
    closure: str = "closed"
    infinite: bool = False

    def __post_init__(self):
        _outcome(self.closure)
        if self.infinite:
            if self.lower is not None or self.upper is not None:
                raise ValueError("an infinite band carries no bounds")
            return
        low, up = (_readonly_blocks(getattr(self, side), f"{side} bound", 1)
                   for side in ("lower", "upper"))
        if len(low) != len(up):
            raise ShapeError("lower and upper need the same component count")
        _ordered(low, up)
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", up)


def _ordered(lower, upper) -> None:
    """A ShapeError or ValueError unless each lower bound fits its upper one."""
    for j, (lo, hi) in enumerate(zip(lower, upper)):
        if lo.shape != hi.shape:
            raise ShapeError(f"component {j} bounds have mismatched shapes")
        if (lo > hi).any():
            raise ValueError(f"component {j} has lower > upper")


def score(residual: MFCurve, s: ModulationSet) -> float:
    """Nonconformity score: max over components and grid points of
    |residual| / s."""
    blocks = [np.asarray(r)[None] for r in residual.values]
    s.grid.validate_blocks(blocks, "residual components")
    return float(_row_sups([np.abs(b) / f for b, f in zip(blocks, s.fns)])[0])


def _modulated_residuals(dataset, split, model, s) -> list[np.ndarray]:
    """|residual| / s of the calibration observations: one (l, G_j) array per
    component, the common input of every calibration reduction."""
    if model.grid != s.grid:
        raise ShapeError("model and modulation grids differ")
    if split.m + split.l != dataset.n:
        raise ShapeError(f"split covers {split.m + split.l} rows, dataset has {dataset.n}")
    return _modulated(residuals(model, dataset, split.calib_idx), s.fns)


def _modulated(res, fns) -> list[np.ndarray]:
    """|res| / s in place: residual blocks (..., l, G_j), which are the
    caller's to overwrite, and modulation functions (..., G_j), where the
    leading axes stack replications."""
    for r, f in zip(res, fns):
        np.abs(r, out=r)
        r /= f[..., None, :]
    return res


def calibration_scores(
    dataset: Dataset, split: Split, model: FittedRegressor, s: ModulationSet
) -> Scores:
    """Scores of the calibration observations under the fitted model."""
    return Scores(_row_sups(_modulated_residuals(dataset, split, model, s)))


def calibrate_split(scores: Scores, alpha: float) -> Calibration:
    """Split calibration, :func:`calibrate_smoothed` at tau = 1."""
    return calibrate_smoothed(scores, alpha, 1.0)


def calibrate_smoothed(scores: Scores, alpha: float, tau: float) -> Calibration:
    """Smoothed calibration with tie-breaker ``tau``.

    The radius is the ceil(l + tau - (l+1)alpha)-th smallest score. Whether
    the band is closed or open at that radius depends on tau relative to a
    threshold built from the tie counts around the selected order statistic
    (ties can only arise from duplicated inputs). At ``tau = 1`` this is
    split calibration: always closed, and the whole space below the
    feasibility bound alpha < 1/(l+1).

    Raises
    ------
    EmptyBandError
        If alpha is at or above the upper feasibility bound (l+tau)/(l+1).
    """
    _level(alpha, "smoothed", tau)
    radius, closed, infinite = _calibrated(scores.sorted_values, alpha, tau)
    if infinite:
        return Calibration(radius=math.nan, closure="closed", infinite=True)
    return Calibration(radius=float(radius), closure="closed" if closed else "open")


def _calibrated(srt: np.ndarray, alpha: float, tau):
    """Radius, closedness and whole-space flag of the smoothed rule on the
    ascending scores ``srt`` (l,), or per row of an (R, l) stack with one tau
    each: the rank-th smallest score, closed for tau above a threshold built
    from the tie counts around it; a whole space is closed with radius 0."""
    l, tau = srt.shape[-1], np.asarray(tau)
    rank = order_stat_index(l, alpha, tau)
    if (rank < 1).any():  # the message of the first tau that crosses
        crossed = _feasible_rank(l, alpha, float(tau.flat[np.argmax(rank < 1)]))[1]
        raise EmptyBandError(f"{crossed}; the smoothed band is empty")
    infinite, rank = rank > l, np.minimum(rank, l)
    w = np.take_along_axis(srt, rank[..., None] - 1, -1)
    # Scores equal to w sit next to rank in the sorted order.
    right_ties = (srt <= w).sum(-1) - rank
    left_ties = rank - 1 - (srt < w).sum(-1)
    # floor((l+1)alpha - tau) is l - rank by the rank rule.
    threshold = ((l + 1) * alpha - (l - rank) + right_ties) / (
        right_ties + left_ties + 2
    )
    return np.where(infinite, 0.0, w[..., 0]), (tau > threshold) | infinite, infinite


def calibrate(
    dataset: Dataset,
    split: Split,
    model: FittedRegressor,
    s: ModulationSet,
    alpha: float,
    mode: str = "split",
    tau: float | None = None,
) -> BandPredictor:
    """End-to-end calibration on a split of the dataset's rows 0..n-1: score
    the calibration set and wrap the result into a band predictor."""
    scores = calibration_scores(dataset, split, model, s)
    cal = calibrate_smoothed(scores, alpha, _level(alpha, mode, tau))
    return BandPredictor(
        model=model,
        modulation=s,
        radius=cal.radius,
        closure=cal.closure,
        alpha=alpha,
        mode=mode,
        tau=tau,
        infinite=cal.infinite,
    )


def _concatenated_band(model, s, radii, x, closure: str = "closed",
                       truncate_at_zero: bool = False) -> Band:
    """Band prediction -+ radii * s with one radius per component (or per grid
    point; the simultaneous band repeats one radius); the whole space when
    ``radii`` is ``None``. ``truncate_at_zero`` clamps both bounds at 0 once
    :func:`_bounds` has checked them unclamped."""
    if radii is None:
        return Band(lower=None, upper=None, closure=closure, infinite=True)
    lower, upper = _bounds(predict(model, x).values, radii, s.fns)
    if truncate_at_zero:
        lower, upper = ([np.maximum(a, 0.0) for a in side] for side in (lower, upper))
    return Band(lower=lower, upper=upper, closure=closure)


def _bounds(fit, radii, fns):
    """Bounds fit -+ radius * s per component, checked as :class:`Band`
    checks them; ``fit`` (R, G_j) and radii (R, 1) stack replications."""
    lower, upper = zip(*[(v - k * f, v + k * f) for v, k, f in zip(fit, radii, fns)])
    for side, bounds in (("lower", lower), ("upper", upper)):
        for j, a in enumerate(bounds):
            _finite(a, f"{side} bound component {j}")
    _ordered(lower, upper)
    return lower, upper


def make_band(
    pred: BandPredictor, x: Covariates, truncate_at_zero: bool = False
) -> Band:
    """Band around the prediction at ``x``: prediction -+ radius * s.

    ``truncate_at_zero`` clamps both bounds at 0 (for nonnegative
    responses) after the unclamped bounds are checked."""
    radii = None if pred.infinite else [pred.radius] * pred.modulation.grid.p
    return _concatenated_band(pred.model, pred.modulation, radii, x, pred.closure,
                              truncate_at_zero)


def contains(band: Band, y: MFCurve) -> bool:
    """Whether the curve lies inside the band at every component and grid
    point (strictly inside when the band is open)."""
    if band.infinite:
        return True
    if len(y.values) != len(band.lower):
        raise ShapeError("curve and band have different component counts")
    for v, lo, hi in zip(y.values, band.lower, band.upper):
        if v.shape != lo.shape:
            raise ShapeError("curve and band shapes differ")
        if not _inside(lo, v, hi, band.closure == "closed"):
            return False
    return True


def _inside(lo, v, hi, closed):
    """Whether ``v`` lies between ``lo`` and ``hi`` at every point of the last
    axis, strictly unless ``closed``; leading axes stack replications, with
    one ``closed`` flag each."""
    closed = np.asarray(closed)[..., None]
    return np.where(closed, (lo <= v) & (v <= hi), (lo < v) & (v < hi)).all(-1)


def p_value(calib_scores: Scores, new_score: float) -> float:
    """Conformal p-value, :func:`p_value_smoothed` at tau = 1: fraction of
    calibration scores at least the new one, counting the new observation.
    The new score is a nonnegative number, as every score is."""
    return p_value_smoothed(calib_scores, new_score, 1.0)


def p_value_smoothed(calib_scores: Scores, new_score: float, tau: float) -> float:
    """Smoothed conformal p-value: ties (including the new observation
    against itself) weighted by ``tau``. A NaN new score, which no ordering
    places among the calibration scores, or a negative one raises ValueError."""
    _level(None, "smoothed", tau)
    new_score = _real(new_score, "new_score")
    if math.isnan(new_score):
        raise ValueError("the new score is NaN")
    if new_score < 0:
        raise ValueError(f"the new score must be nonnegative, got {new_score!r}")
    strict = int(np.count_nonzero(calib_scores.values > new_score))
    ties = int(np.count_nonzero(calib_scores.values == new_score)) + 1
    return (strict + tau * ties) / (calib_scores.l + 1)


def _band_size(radii, fns, grid, radius=None):
    """Band size from the quadrature area 2 * sum_j radii[j] * integral of
    s_j, where a leading axis stacks radii (R,) and functions (R, G_j):
    2 * radius (mpb) or the area (cub, no ``radius``). The size must be
    finite, then agree with the area within 1e-10 * max(1, |size|); else
    MFConformalError, naming the first replication of a stack that fails."""
    # An overflow is left to the rules below, which name it.
    with np.errstate(over="ignore", invalid="ignore"):
        area = 2.0 * sum(k * a for k, a in zip(radii, _integrals(fns, grid)))
        size = area if radius is None else 2.0 * radius
        bad = np.ravel(~(np.abs(area - size) <= 1e-10 * np.maximum(1.0, np.abs(size))))
    area, overflow = np.ravel(area), np.ravel(~np.isfinite(size))
    if overflow.any():
        raise MFConformalError(
            f"band size overflows: quadrature gives {float(area[overflow.argmax()])!r}")
    if bad.any():
        at = bad.argmax()
        raise MFConformalError(
            f"band size self-check failed: 2*radius={float(np.ravel(size)[at])!r} "
            f"but quadrature gives {float(area[at])!r}; is the modulation set normalized?")
    return size


def band_size(pred: BandPredictor) -> float:
    """Band size 2 * radius: the summed area between upper and lower bounds.

    :func:`_band_size` recomputes the area by quadrature as a self-check of
    the modulation's unit-integral convention.
    """
    if pred.infinite:
        raise InfiniteBandError("an infinite band has no finite size")
    s = pred.modulation
    return _band_size([pred.radius] * s.grid.p, s.fns, s.grid, pred.radius)


def _split_radii(dataset, split, model, s, alpha, pointwise=False,
                 strict=False) -> list | None:
    """Per-component split-rank order statistic of each curve's modulated
    sup residual (or, if ``pointwise``, of the residuals at every grid point).
    Below the feasibility bound alpha < 1/(l+1) it is ``None`` or, if
    ``strict``, a ValueError naming the bound."""
    _level(alpha)
    rank, crossed = _feasible_rank(split.l, alpha)
    if crossed:
        if strict:
            raise ValueError(crossed)
        return None
    return _rank_radii(_modulated_residuals(dataset, split, model, s), rank, pointwise)


def _rank_radii(blocks, rank: int, pointwise: bool = False) -> list:
    """The rank-th smallest over the calibration rows of each modulated
    residual block (..., l, G_j): of the row maxima or, if ``pointwise``, at
    every grid point."""
    if pointwise:
        return [np.sort(a, axis=-2)[..., rank - 1, :] for a in blocks]
    return [np.sort(a.max(axis=-1), axis=-1)[..., rank - 1] for a in blocks]


def cub_radii(
    dataset: Dataset,
    split: Split,
    model: FittedRegressor,
    s: ModulationSet,
    alpha: float,
) -> np.ndarray:
    """Per-component radii of the concatenated univariate construction.

    Component j is calibrated on its own sup scores, so each radius is at
    most the simultaneous radius. Undefined below the feasibility bound
    alpha < 1/(l+1). :func:`cub_band` states what the radii cover."""
    return np.array(_split_radii(dataset, split, model, s, alpha, strict=True))


def cub_band(
    dataset: Dataset,
    split: Split,
    model: FittedRegressor,
    s: ModulationSet,
    alpha: float,
    x: Covariates,
) -> Band:
    """Concatenation of the p independently calibrated univariate bands.

    With k = ceil((1-alpha)(l+1)) and continuous scores, each band covers its
    component with probability k/(l+1), and all p cover together with
    probability in [1 - p(1 - k/(l+1)), k/(l+1)]: k/(l+1) for identical
    components, at least (k/(l+1))**p for independent ones with one error
    law. A study's ``theoretical_coverage`` for ``cub`` is k/(l+1), the
    ceiling. Below the feasibility bound every univariate band is the whole
    space, so the concatenation is returned as an infinite band."""
    radii = _split_radii(dataset, split, model, s, alpha)
    return _concatenated_band(model, s, radii, x)


def pointwise_radii(
    dataset: Dataset,
    split: Split,
    model: FittedRegressor,
    s: ModulationSet,
    alpha: float,
) -> tuple[np.ndarray, ...]:
    """Per-point radii: the calibration order statistic of the modulated
    absolute residuals separately at every component and grid point."""
    return tuple(_split_radii(dataset, split, model, s, alpha, True, strict=True))


def pointwise_band(
    dataset: Dataset,
    split: Split,
    model: FittedRegressor,
    s: ModulationSet,
    alpha: float,
    x: Covariates,
) -> Band:
    """Concatenation of the per-point prediction intervals (infinite below
    the feasibility bound, like :func:`cub_band`)."""
    radii = _split_radii(dataset, split, model, s, alpha, pointwise=True)
    return _concatenated_band(model, s, radii, x)
