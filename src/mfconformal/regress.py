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
    component."""

    grid: Grid
    spec: RegressorSpec
    coefficients: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.grid.p:
            raise ShapeError("one coefficient block per component is required")
        coefs = _readonly_blocks(self.coefficients, "coefficient")
        for j, arr in enumerate(coefs):
            if arr.shape[0] != self.grid.components[j].size:
                raise ShapeError(
                    f"coefficient block {j} has shape {arr.shape}, expected "
                    f"({self.grid.components[j].size}, q)"
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


def _predictions(model: FittedRegressor, columns, rows) -> list[np.ndarray]:
    """Fitted values at the given rows of ``columns``: one (n_rows, G_j) array
    per component."""
    terms = model.spec.component_terms(model.grid.p)
    out = []
    for j, coef in enumerate(model.coefficients):
        X = _design(columns, model.spec, terms[j], j, rows)
        out.append(X @ coef.T if X.ndim == 2 else np.einsum("igq,gq->ig", X, coef))
    return out


def _solve(X, y, j: int, g: int | None = None) -> np.ndarray:
    """Least-squares solution of the design X of component j, at grid index g
    or, for ``g=None``, at all grid points at once; a SingularDesignError when
    X is rank deficient."""
    sol, _, rank, _ = np.linalg.lstsq(X, y, rcond=RANK_RCOND)
    if rank < X.shape[-1]:
        at = "(all grid points)" if g is None else f"at grid index {g}"
        raise SingularDesignError(
            f"singular design for component {j} {at}: rank {rank} < {X.shape[-1]}"
        )
    return sol


def fit(dataset: Dataset, train_idx, spec: RegressorSpec) -> FittedRegressor:
    """Fit the concurrent model by ordinary least squares at every grid point.

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
        value below ``RANK_RCOND`` times the largest).
    """
    idx = np.fromiter(train_idx, np.intp)
    grid = dataset.grid
    terms = spec.component_terms(grid.p)
    m = len(idx)

    blocks = []
    for j in range(grid.p):
        q = len(terms[j]) + (1 if spec.intercept else 0)
        if m < q:
            raise InsufficientDataError(
                f"component {j}: {m} training curves for {q} design columns"
            )
        resp = dataset.responses[j][idx]  # (m, G_j)
        X = _design(dataset, spec, terms[j], j, idx)
        if X.ndim == 2:
            blocks.append(_solve(X, resp, j).T)  # (G_j, q)
        else:
            blocks.append(np.array([_solve(X[:, g], resp[:, g], j, g)
                                    for g in range(X.shape[1])]))
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
    return [y[idx] - yhat for y, yhat in zip(dataset.responses, preds)]
