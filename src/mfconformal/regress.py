"""Pluggable pointwise regression estimators for functional responses.

Each component curve is regressed on its selected covariates independently at
every grid point (a concurrent linear model). No smoothing is applied across
grid points: band validity downstream never depends on estimator quality, so
the estimators stay deliberately simple. Anything exposing the same
``fit``/``predict`` contract can be substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    Covariates,
    Dataset,
    Grid,
    MFConformalError,
    MFCurve,
    ShapeError,
    _readonly_blocks,
)

__all__ = [
    "RegressorSpec",
    "FittedRegressor",
    "SingularDesignError",
    "InsufficientDataError",
    "fit",
    "predict",
    "residuals",
]

KINDS = ("intercept_only", "concurrent_fos", "concurrent_fof")

# Relative singular-value cutoff below which a design is declared
# rank-deficient.
RANK_RCOND = 1e-10


class SingularDesignError(MFConformalError, ValueError):
    """The pointwise design matrix is rank deficient."""


class InsufficientDataError(MFConformalError, ValueError):
    """Fewer training observations than design columns."""


@dataclass(frozen=True)
class RegressorSpec:
    """Choice of concurrent model and per-component covariate names.

    ``terms[j]`` lists the covariate names entering component j's design (an
    intercept column is prepended when ``intercept`` is true). An empty
    ``terms`` means no covariates for any component. ``intercept_only``
    requires empty terms; ``concurrent_fos`` allows scalar covariates only;
    ``concurrent_fof`` allows scalar and functional covariates.
    """

    kind: str
    terms: tuple[tuple[str, ...], ...] = ()
    intercept: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regressor kind {self.kind!r}")
        terms = tuple(tuple(t) for t in self.terms)
        if not all(isinstance(name, str) for t in terms for name in t):
            raise ValueError(f"terms must name covariates by strings, got {terms!r}")
        if self.kind == "intercept_only":
            if any(terms):
                raise ValueError("intercept_only admits no covariates")
            if not self.intercept:
                raise ValueError("intercept_only requires the intercept")
        if not self.intercept and (not terms or any(len(t) == 0 for t in terms)):
            raise ValueError("a component with no terms needs an intercept")
        object.__setattr__(self, "terms", terms)

    def component_terms(self, p: int) -> tuple[tuple[str, ...], ...]:
        if not self.terms:
            return ((),) * p
        if len(self.terms) != p:
            raise ShapeError(
                f"spec lists terms for {len(self.terms)} components, data has {p}"
            )
        return self.terms


@dataclass(frozen=True, eq=False)
class FittedRegressor:
    """Pointwise least-squares coefficients, one (G_j, q_j) block per
    component, where q_j counts component j's terms and the intercept."""

    grid: Grid
    spec: RegressorSpec
    coefficients: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.grid.p:
            raise ShapeError("one coefficient block per component is required")
        terms = self.spec.component_terms(self.grid.p)
        coefs = _readonly_blocks(self.coefficients, "coefficient")
        for j, arr in enumerate(coefs):
            shape = (self.grid.components[j].size, len(terms[j]) + self.spec.intercept)
            if arr.shape != shape:
                raise ShapeError(
                    f"coefficient block {j} has shape {arr.shape}, expected {shape}"
                )
        object.__setattr__(self, "coefficients", coefs)

    def predict(self, x: Covariates, truncate_at_zero: bool = False) -> MFCurve:
        return predict(self, x, truncate_at_zero)


def _design(columns, spec: RegressorSpec, names: tuple[str, ...], j: int, rows):
    """Design of component j at the given rows of ``columns``: the column
    blocks of a :class:`Dataset`, or one :class:`Covariates` read as a
    one-row block (``rows=[0]``). Returns an (n_rows, q) matrix shared by
    every grid point when all named covariates are scalar, otherwise an
    (n_rows, G_j, q) tensor varying along the grid. A name found among the
    scalar covariates is taken from there; a functional one is refused for
    ``concurrent_fos``."""
    cols = []
    for name in names:
        if name in columns.scalar:
            cols.append(np.atleast_1d(columns.scalar[name])[rows])
        elif name in columns.functional and spec.kind == "concurrent_fos":
            raise ShapeError(f"covariate {name!r} is functional; concurrent_fos "
                             "takes scalar covariates only")
        elif name in columns.functional:
            cols.append(np.atleast_2d(columns.functional[name][j])[rows])
        else:
            raise ShapeError(f"covariate {name!r} missing from the observation")
    shape = next((c.shape for c in cols if c.ndim == 2), (len(rows),))
    X = np.empty(shape + (len(cols) + spec.intercept,))
    if spec.intercept:
        X[..., 0] = 1.0
    for k, c in enumerate(cols, start=spec.intercept):
        X[..., k] = c[:, None] if c.ndim < len(shape) else c
    return X


def _fitted(X, coef) -> np.ndarray:
    """``np.matmul(X, coef)`` of designs (..., n_rows, q) and coefficient
    blocks (..., q, G), bit for bit. A one-column design takes one multiply:
    a matrix product with K = 1 costs several times as much. The ``+= 0.0``
    gives a zero product the sign the matrix product gives it, +0.0, where
    the plain multiply can give -0.0."""
    if X.shape[-1] != 1:
        return np.matmul(X, coef)
    out = X * coef
    out += 0.0
    return out


def _predictions(model: FittedRegressor, columns, rows) -> list[np.ndarray]:
    """Fitted values at the given rows of ``columns``: one (n_rows, G_j) array
    per component."""
    terms = model.spec.component_terms(model.grid.p)
    out = []
    for j, coef in enumerate(model.coefficients):
        X = _design(columns, model.spec, terms[j], j, rows)
        out.append(_fitted(X, coef.T) if X.ndim == 2
                   else np.einsum("igq,gq->ig", X, coef))
    return out


def _svd_failed(err, flag):
    """The error ``numpy.linalg.lstsq`` raises when dgelsd flags a failure."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _enough_rows(m: int, q: int, j: int) -> None:
    """The rule that component j's fit needs a training curve per design
    column: InsufficientDataError unless ``m >= q``."""
    if m < q:
        raise InsufficientDataError(f"component {j}: {m} training curves for "
                                    f"{q} design columns")


def _solve(X, y, j: int, shared: bool = False) -> np.ndarray:
    """Least-squares solutions (..., q, k) of component j's designs X
    (..., m, q) for responses y (..., m, k), in one call for the whole stack.

    ``numpy.linalg.lstsq`` takes one matrix per call; this calls the gufunc it
    wraps (numpy >= 2) on the whole stack. Each matrix gets its own LAPACK
    dgelsd on the same Fortran copy, so every solution is
    ``numpy.linalg.lstsq``'s bit for bit, and so is the error contract: an SVD
    that does not converge raises ``LinAlgError``, never a floating-point
    error. A rank-deficient matrix raises SingularDesignError. Its message
    calls a 2-D design, or with ``shared`` each design of a stack of
    replications, shared by all grid points; otherwise it names the first
    rank-deficient grid index, as in "at grid index 3".
    """
    with np.errstate(call=_svd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        sol, _, rank, _ = _umath_linalg.lstsq(X, y, RANK_RCOND,
                                              signature="ddd->ddid")
    q = X.shape[-1]
    bad = np.flatnonzero(rank < q)
    if bad.size:
        at = "(all grid points)" if shared or X.ndim == 2 else f"at grid index {bad[0]}"
        raise SingularDesignError(f"singular design for component {j} {at}: "
                                  f"rank {rank.flat[bad[0]]} < {q}")
    return sol


def fit(dataset: Dataset, train_idx, spec: RegressorSpec) -> FittedRegressor:
    """Fit the concurrent model by ordinary least squares at every grid point.

    Each component takes one solve: a design shared by the grid points has
    their responses as right-hand sides, and a ``concurrent_fof`` design is
    one matrix per grid point, stacked along the grid.

    Parameters
    ----------
    dataset : Dataset
    train_idx : iterable of int
        Indices of the training observations.
    spec : RegressorSpec

    Returns
    -------
    FittedRegressor

    Raises
    ------
    InsufficientDataError
        If the training set is smaller than a component's design dimension.
    SingularDesignError
        If a pointwise design matrix is rank deficient (smallest singular
        value below ``RANK_RCOND`` times the largest); for ``concurrent_fof``
        the message names the first such grid index.
    numpy.linalg.LinAlgError
        If the SVD of a design does not converge.
    """
    idx = np.fromiter(train_idx, np.intp)
    grid = dataset.grid
    terms = spec.component_terms(grid.p)
    m = len(idx)

    blocks = []
    for j in range(grid.p):
        _enough_rows(m, len(terms[j]) + spec.intercept, j)
        resp = dataset.responses[j][idx]  # (m, G_j)
        X = _design(dataset, spec, terms[j], j, idx)
        if X.ndim == 2:
            blocks.append(_solve(X, resp, j).T)  # (G_j, q)
        else:  # one (m, q) design and one response column per grid point
            blocks.append(_solve(X.transpose(1, 0, 2), resp.T[..., None], j)[..., 0])
    return FittedRegressor(grid=grid, spec=spec, coefficients=tuple(blocks))


def predict(model, x: Covariates, truncate_at_zero: bool = False) -> MFCurve:
    """Evaluate a fitted model at one covariate value.

    ``model`` is usually a :class:`FittedRegressor`; any object exposing
    ``grid`` and ``predict(x) -> MFCurve`` can stand in (band validity never
    depends on the estimator). With ``truncate_at_zero`` the predicted curves
    are clamped at 0 from below (for responses that cannot be negative).
    """
    if isinstance(model, FittedRegressor):
        for name, arrs in x.functional.items():
            model.grid.validate_blocks([np.asarray(a)[None] for a in arrs],
                                       f"functional covariate {name!r} components")
        values = [p[0] for p in _predictions(model, x, [0])]
    else:
        values = model.predict(x).values
    if truncate_at_zero:
        values = [np.maximum(v, 0.0) for v in values]
    return MFCurve(tuple(values))


def residuals(model, dataset: Dataset, idx) -> list[np.ndarray]:
    """Residuals y_i - prediction of the given observations: one
    (len(idx), G_j) block per component, rows in the order of ``idx``.

    The built-in regressor predicts all rows in one batch per component;
    other estimators are called one observation at a time.
    """
    idx = np.fromiter(idx, np.intp)
    if isinstance(model, FittedRegressor):
        preds = _predictions(model, dataset, idx)
    else:
        rows = [model.predict(dataset.covariates(i)).values for i in idx]
        preds = [np.array([r[j] for r in rows]) for j in range(dataset.grid.p)]
    res = [y[idx] for y in dataset.responses]  # fresh copies, written in place
    for r, yhat in zip(res, preds):
        r -= yhat
    return res
