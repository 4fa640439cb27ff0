"""Discretized multivariate functional data.

Curves with p components are represented by their values on a fixed
per-component grid of domain points. Every supremum over a domain becomes a
maximum over grid points and every integral a weighted sum, so the grid's
quadrature weights are part of the data model. All types here are immutable
after construction (arrays are stored read-only) and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MFConformalError",
    "ShapeError",
    "ComponentGrid",
    "Grid",
    "MFCurve",
    "Covariates",
    "Dataset",
    "Split",
    "uniform_grid",
    "trapezoid_weights",
    "sup_abs",
    "total_integral",
    "random_split",
    "order_stat_index",
    "smoothed_order_stat_index",
    "theoretical_coverage",
]


class MFConformalError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MFConformalError, ValueError):
    """Input does not conform to the expected grid layout."""


def _readonly(values, name: str, ndim: int = 1, error=ShapeError) -> np.ndarray:
    """Read-only float copy with ``ndim`` dimensions and finite entries; a
    non-finite entry raises ``error``. Entries must already be numbers: a
    string such as ``"1"`` is refused, not parsed. The caller's array is
    always copied and left as it is, so the copy never pins or exposes it."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":
            raise TypeError
        arr = np.array(arr, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError(f"{name} is ragged or not numeric") from None
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    _finite(arr, name, error)
    arr.setflags(write=False)
    return arr


def _finite(arr: np.ndarray, name: str, error=ShapeError) -> None:
    """Raise ``error`` naming ``name`` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise error(f"{name} contains non-finite entries")


_JSON_KINDS = {bool: "boolean", int: "number", float: "number", str: "string",
               list: "list", dict: "object"}


def _json_value(doc: dict, key: str, kind: type, *default, item: type = object,
                error: type = ValueError, label: str = ""):
    """``doc[key]`` as a JSON value of ``kind`` (bool, int, float, str, list or
    dict), the default when absent; else ``error``, naming ``label`` and the
    key. A boolean or a string is not a number, an int may not have a
    fraction (``4.0`` gives 4, ``Infinity`` is refused), and each entry of a
    list must be an ``item``."""
    if key not in doc:
        if default:
            return default[0]
        raise error(f"{label}{key!r} is missing")
    value, number = doc[key], kind in (int, float)
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if number else kind)
            or (kind is list and not all(isinstance(v, item) for v in value))):
        of = "" if item is object else f" of {_JSON_KINDS[item]}s"
        raise error(f"{label}{key!r} must be a JSON {_JSON_KINDS[kind]}{of}, "
                    f"got {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise error(f"{label}{key!r} must be an integer, got {json.dumps(value)}")
    try:
        return kind(value) if number else value
    except OverflowError:
        raise error(f"{label}{key!r} is beyond the float range") from None


def _json_object(path, error: type, what: str) -> dict:
    """The JSON object in the file at ``path``; ``error`` naming ``what`` when
    the text is not JSON or its top level is not an object. An OSError from
    opening or reading the file passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"malformed {what}: the top level must be a JSON object")
    return doc


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for an ascending vector of points.

    Endpoints are half-weighted; the weights sum exactly to the span
    ``points[-1] - points[0]``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ShapeError("need at least two ascending points")
    w = np.empty_like(pts)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    if pts.size > 2:
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class ComponentGrid:
    """Discretization of one component domain: ascending points plus
    strictly positive quadrature weights summing to the domain length."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points, "points")
        w = _readonly(self.weights, "weights")
        if pts.size < 2:
            raise ShapeError("a component grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ShapeError("grid points must be strictly increasing")
        if w.shape != pts.shape:
            raise ShapeError("weights must have the same length as points")
        if not np.all(w > 0):
            raise ShapeError("quadrature weights must be strictly positive")
        span = pts[-1] - pts[0]
        if abs(float(w.sum()) - span) > 1e-6 * max(1.0, span):
            raise ShapeError(
                f"weights sum to {w.sum():g} but the domain length is {span:g}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_points(cls, points) -> "ComponentGrid":
        """Component grid with trapezoid weights on the given points."""
        pts = np.asarray(points, dtype=float)
        return cls(pts, trapezoid_weights(pts))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def measure(self) -> float:
        """Length |T_j| of the component domain (sum of the weights)."""
        return float(self.weights.sum())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ComponentGrid):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )


@dataclass(frozen=True)
class Grid:
    """Per-component discretization of the p domains; grids are equal when
    their component grids are."""

    components: tuple[ComponentGrid, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ShapeError("a grid needs at least one component")
        if not all(isinstance(c, ComponentGrid) for c in comps):
            raise ShapeError("grid components must be ComponentGrid instances")
        object.__setattr__(self, "components", comps)

    @property
    def p(self) -> int:
        return len(self.components)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.components)

    @property
    def measure(self) -> float:
        """Total length of all component domains, sum_j |T_j|."""
        return float(sum(c.measure for c in self.components))

    def validate_blocks(self, blocks: Sequence[np.ndarray], what: str) -> int:
        """Check one (count, G_j) array per component, with one count >= 1 for
        all components; returns the count."""
        shapes = [np.shape(b) for b in blocks]
        count = shapes[0][0] if shapes and len(shapes[0]) == 2 else 0
        if count < 1 or shapes != [(count, g) for g in self.sizes]:
            raise ShapeError(
                f"{what} have shapes {shapes}, expected one (count, G_j) block "
                f"per component with count >= 1 and G_j = {self.sizes}"
            )
        return count


def uniform_grid(
    n_points: int = 100,
    domain: tuple[float, float] = (0.0, 1.0),
    p: int = 1,
) -> Grid:
    """Grid with ``p`` identical components of equispaced points on ``domain``
    and trapezoid weights."""
    a, b = domain
    if not (n_points >= 2 and b > a):
        raise ShapeError("need n_points >= 2 and a non-empty domain")
    comp = ComponentGrid.from_points(np.linspace(a, b, n_points))
    return Grid((comp,) * p)


@dataclass(frozen=True, eq=False)
class MFCurve:
    """One multivariate functional datum: p sampled component curves."""

    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        vals = tuple(
            _readonly(v, f"curve component {j}")
            for j, v in enumerate(self.values)
        )
        if len(vals) < 1:
            raise ShapeError("a curve needs at least one component")
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class Covariates:
    """Named covariates for one observation.

    ``scalar`` maps names to real values; ``functional`` maps names to one
    sampled curve per component (each matching the grid of its component).
    Which names feed which component's regression is declared by the
    regressor specification, not here.
    """

    scalar: dict[str, float] = field(default_factory=dict)
    functional: dict[str, tuple[np.ndarray, ...]] = field(default_factory=dict)

    def __post_init__(self):
        scalar = {k: float(v) for k, v in self.scalar.items()}
        for k, v in scalar.items():
            if not math.isfinite(v):
                raise ShapeError(f"scalar covariate {k!r} is not finite: {v!r}")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(
            self,
            "functional",
            {
                k: tuple(_readonly(a, f"functional covariate {k!r}") for a in arrs)
                for k, arrs in self.functional.items()
            },
        )


def _columns(rows, p: int, what: str) -> list[list[np.ndarray]]:
    """Regroup per-observation rows of p component vectors into p lists, one
    per component."""
    for i, row in enumerate(rows):
        if len(row) != p:
            raise ShapeError(
                f"{what} of pair {i} has {len(row)} components, grid has {p}"
            )
    return [[row[j] for row in rows] for j in range(p)]


def _readonly_blocks(blocks, what: str) -> tuple[np.ndarray, ...]:
    return tuple(_readonly(b, f"{what} component {j}", 2) for j, b in enumerate(blocks))


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Regression data sharing one grid, held only as read-only column blocks.

    ``responses[j]`` is the (n, G_j) array of component j, ``scalar[name]``
    the (n,) vector of a scalar covariate and ``functional[name][j]`` the
    (n, G_j) array of a functional covariate on component j.
    ``Dataset(grid, pairs)`` stacks (:class:`Covariates`, :class:`MFCurve`)
    pairs, which must all carry the same covariate names;
    :meth:`from_blocks` takes the arrays directly. Both go through one block
    check, which copies every array it is given, so a Dataset never shares
    memory with its caller's arrays.
    """

    grid: Grid
    responses: tuple[np.ndarray, ...] = field(repr=False)
    scalar: dict[str, np.ndarray] = field(repr=False)
    functional: dict[str, tuple[np.ndarray, ...]] = field(repr=False)

    def __init__(self, grid: Grid, pairs):
        xs, ys = tuple(zip(*pairs)) or ((), ())
        x0 = xs[0] if xs else Covariates()
        names = (x0.scalar.keys(), x0.functional.keys())
        for i, x in enumerate(xs):
            if (x.scalar.keys(), x.functional.keys()) != names:
                raise ShapeError(
                    f"pair {i} carries covariates {[*x.scalar, *x.functional]}, "
                    f"pair 0 carries {[*x0.scalar, *x0.functional]}"
                )
        self._hold(
            grid,
            _columns([y.values for y in ys], grid.p, "curve"),
            {k: [x.scalar[k] for x in xs] for k in x0.scalar},
            {
                k: _columns([x.functional[k] for x in xs], grid.p,
                            f"functional covariate {k!r}")
                for k in x0.functional
            },
        )

    @classmethod
    def from_blocks(cls, grid: Grid, responses, scalar=None, functional=None):
        """Dataset from one (n, G_j) response array per component, optional
        (n,) scalar covariate vectors and optional functional covariates of
        one (n, G_j) array per component. The arrays are copied."""
        dataset = cls.__new__(cls)
        dataset._hold(grid, responses, scalar or {}, functional or {})
        return dataset

    def _hold(self, grid: Grid, responses, scalar: dict, functional: dict):
        """The block check: read-only copies of finite values, every block
        shaped for the grid and one row count n >= 2 for all of them."""
        responses = _readonly_blocks(responses, "responses")
        n = grid.validate_blocks(responses, "responses")
        scalar = {k: _readonly(v, f"scalar covariate {k!r}") for k, v in scalar.items()}
        functional = {k: _readonly_blocks(v, f"functional covariate {k!r}")
                      for k, v in functional.items()}
        counts = [v.size for v in scalar.values()] + [
            grid.validate_blocks(v, f"functional covariate {k!r} blocks")
            for k, v in functional.items()
        ]
        if n < 2 or any(c != n for c in counts):
            raise ShapeError(
                f"a dataset needs one row count n >= 2 for all blocks; the "
                f"responses have {n} rows, the covariates {counts}"
            )
        for name, value in (("grid", grid), ("responses", responses),
                            ("scalar", scalar), ("functional", functional)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.responses[0].shape[0]

    def covariates(self, i: int) -> Covariates:
        """The covariates of row i as one observation."""
        return Covariates(
            scalar={k: v[i] for k, v in self.scalar.items()},
            functional={k: tuple(b[i] for b in blocks)
                        for k, blocks in self.functional.items()},
        )

    def curve(self, i: int) -> MFCurve:
        """The response of row i as one curve."""
        return MFCurve(tuple(b[i] for b in self.responses))


def _indices(values) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints; a ShapeError for a value that is
    not an integer, such as ``1.9`` or ``2.0``, or for a boolean, which
    ``int`` would take silently."""
    idx = tuple(values)
    for v in idx:
        if isinstance(v, bool) or not hasattr(v, "__index__"):
            raise ShapeError(f"split index {v!r} is not an integer")
    return tuple(map(operator.index, idx))


@dataclass(frozen=True)
class Split:
    """Disjoint training/calibration index sets partitioning 0..n-1."""

    train_idx: tuple[int, ...]
    calib_idx: tuple[int, ...]

    def __post_init__(self):
        train, calib = _indices(self.train_idx), _indices(self.calib_idx)
        if len(train) < 1 or len(calib) < 1:
            raise ShapeError("both split parts must be non-empty")
        idx = train + calib
        if len(set(idx)) != len(idx) or min(idx) < 0 or max(idx) >= len(idx):
            raise ShapeError("split parts must partition 0..n-1 exactly")
        object.__setattr__(self, "train_idx", train)
        object.__setattr__(self, "calib_idx", calib)

    @property
    def m(self) -> int:
        return len(self.train_idx)

    @property
    def l(self) -> int:
        return len(self.calib_idx)


def _row_sups(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The sup-metric reduction: for nonnegative (count, G_j) blocks, one per
    component, the max of each row over all components and grid points.
    Blocks may carry leading replication axes, (R, count, G_j)."""
    return np.max([b.max(axis=-1) for b in blocks], axis=0)


def sup_abs(curve: MFCurve) -> float:
    """Largest absolute value of a curve over all components and grid points."""
    return float(_row_sups([np.abs(v)[None] for v in curve.values])[0])


def _integrals(fns: Sequence[np.ndarray], grid: Grid) -> list:
    """Quadrature integral of each sampled component function: one float per
    component or, for an (R, G_j) stack of R functions, one (R,) array whose
    entries are each their own ``np.dot``, so equal to the integral of that
    function alone."""
    return [float(np.dot(c.weights, f)) if np.ndim(f) == 1
            else np.array([np.dot(c.weights, r) for r in f])
            for c, f in zip(grid.components, fns)]


def total_integral(fns: Sequence[np.ndarray], grid: Grid) -> float:
    """Sum over components of the quadrature integral of each sampled function."""
    grid.validate_blocks([np.asarray(f)[None] for f in fns], "integrands")
    return float(sum(_integrals(fns, grid)))


def random_split(n: int, l: int, seed=None, strategy: str = "uniform") -> Split:
    """Partition ``0..n-1`` into training (size ``n - l``) and calibration
    (size ``l``) index sets.

    Parameters
    ----------
    n, l : int
        Total number of observations and calibration-set size, ``1 <= l <= n-1``.
    seed : int, sequence of ints, SeedSequence or Generator, optional
        Randomness source for the uniform strategy; ignored by ``"parity"``.
    strategy : {"uniform", "parity"}
        ``"uniform"`` draws a uniformly random partition. ``"parity"`` labels
        observations as days 1..n and assigns odd days to training and even
        days to calibration; if the even-day count differs from ``l``, days
        are reassigned one at a time choosing the day closest to the center
        day (n+1)/2, with ties broken toward the earlier day.
    """
    if not (1 <= l <= n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l}, n={n}")
    if strategy == "uniform":
        train, calib = (part.tolist() for part in _uniform_parts(
            np.random.default_rng(seed).permutation(n), l))
    elif strategy == "parity":
        # Day d is index d - 1, so even days are the odd indices. The side
        # with the surplus gives up the days nearest the center day first.
        surplus = n // 2 - l
        center = (n - 1) / 2.0
        nearest = sorted(range(n), key=lambda i: (abs(i - center), i))
        moved = [i for i in nearest if i % 2 == (surplus > 0)][:abs(surplus)]
        calib = sorted(set(range(1, n, 2)).symmetric_difference(moved))
        train = sorted(set(range(n)).difference(calib))
    else:
        raise ValueError(f"unknown split strategy {strategy!r}")
    return Split(tuple(train), tuple(calib))


def _uniform_parts(perm: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform split of a permutation of 0..n-1: training indices (all but
    the first l entries) and calibration indices (the first l), each sorted.
    Permutations may be stacked along leading axes, (R, n)."""
    return np.sort(perm[..., l:], axis=-1), np.sort(perm[..., :l], axis=-1)


# Order-statistic rank arithmetic. Split calibration is smoothed calibration
# at tau = 1, so one rank rule serves both modes. Products like (l+1)*alpha
# are exact integers for many (l, alpha) pairs used in calibration; floating
# point can land one ulp off, so values within a relative 1e-9 of an integer
# are snapped before taking the floor.
_SNAP_TOL = 1e-9


def _snap_floor(x: float) -> int:
    r = round(x)
    if abs(x - r) <= _SNAP_TOL * max(1.0, abs(x)):
        return int(r)
    return math.floor(x)


def _level(alpha: float | None, mode: str = "split", tau: float | None = None) -> float:
    """Check a conformal level: alpha in (0, 1), a known mode and, in smoothed
    mode, tau in [0, 1], in split mode no tau; returns the effective
    tie-breaker, 1 in split mode (split mode is smoothed at tau = 1).
    ``alpha=None`` checks the mode and tie-breaker alone, for a p-value,
    which has no level."""
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if mode == "split":
        if tau is not None:
            raise ValueError(f"tau applies to smoothed mode; split mode uses "
                             f"tau = 1, got {tau!r}")
        return 1.0
    if mode != "smoothed":
        raise ValueError(f"unknown mode {mode!r}")
    if tau is None or not 0.0 <= tau <= 1.0:
        raise ValueError(f"smoothed mode needs tau in [0, 1], got {tau}")
    return tau


def order_stat_index(count: int, alpha: float, tau: float = 1.0) -> int:
    """1-based rank ceil(count + tau - (count+1)*alpha) of the calibration
    quantile, ceil((count+1)*(1-alpha)) at the default tau = 1.

    May be < 1 (band would be empty) or > count (band is infinite); callers
    decide how to handle those regimes.
    """
    # With x = F + frac for the snapped floor F, the ceiling is
    # count + 1 - F, less one when tau does not exceed frac.
    x = (count + 1) * alpha
    floor = _snap_floor(x)
    return count + 1 - floor - (tau <= max(x - floor, 0.0))


def _feasible_rank(count: int, alpha: float, tau: float = 1.0) -> tuple[int, str | None]:
    """:func:`order_stat_index` and, when the rank falls outside 1..count, a
    message naming the bound of tau/(l+1) <= alpha < (l+tau)/(l+1) that
    alpha crossed (below the lower one the band is the whole space, at the
    upper one it is empty); ``None`` inside the interval."""
    rank = order_stat_index(count, alpha, tau)
    if rank > count:
        return rank, (f"alpha={alpha} is below the lower feasibility bound: it "
                      f"needs alpha >= {tau:g}/(l+1) = {tau / (count + 1):.6g}")
    if rank < 1:
        return rank, (f"alpha={alpha} reaches the upper feasibility bound: it needs "
                      f"alpha < (l+{tau:g})/(l+1) = {(count + tau) / (count + 1):.6g}")
    return rank, None


def smoothed_order_stat_index(count: int, alpha: float, tau: float) -> int:
    """:func:`order_stat_index` with the tie-breaker ``tau`` required."""
    return order_stat_index(count, alpha, tau)


def theoretical_coverage(l: int, alpha: float) -> float:
    """Exact unconditional coverage 1 - floor((l+1)*alpha)/(l+1) of the
    non-smoothed calibrated band, for an integer l >= 1 and alpha in (0, 1)."""
    l = _integer(l, "l")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    _level(alpha)
    return 1.0 - _snap_floor((l + 1) * alpha) / (l + 1)


def _guaranteed_coverage(l: int, alpha: float, mode: str) -> float:
    """Exact coverage: 1 - alpha smoothed, :func:`theoretical_coverage` split."""
    return 1.0 - alpha if mode == "smoothed" else theoretical_coverage(l, alpha)


def _seed(value, name: str, error: type = ValueError):
    """``value`` as a seed: an integer >= 0 by ``operator.index`` (a boolean,
    which it takes as 0 or 1, is refused) or a non-empty list or tuple of
    them, returned as a tuple; else ``error`` naming ``name``. ``None``, which
    would draw fresh entropy, is refused too."""
    entries = value if isinstance(value, (list, tuple)) else (value,)
    try:
        if not entries:
            raise TypeError
        out = tuple(_integer(v, name, TypeError) for v in entries)
        if min(out) < 0:
            raise TypeError
    except TypeError:
        raise error(f"{name} must be an integer seed, got "
                    f"{json.dumps(value, default=repr)} (an integer >= 0 or a "
                    f"non-empty list of them)") from None
    return out if entries is value else out[0]


def _integer(value, name: str, error: type = ValueError) -> int:
    """``value`` as a Python int by ``operator.index``; else ``error`` naming
    ``name``. A boolean, which ``operator.index`` takes as 0 or 1, is
    refused, and so is a float even when it is whole, such as ``9.0``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")
