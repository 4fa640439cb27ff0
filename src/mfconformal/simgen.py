"""Deterministic scenario generators for the Monte Carlo studies.

Three study families on two components over [0, 1]:

1. linear (and exponentiated) functional-on-scalar responses with B-spline
   errors, used for coverage checks under several misspecifications;
2. shared systematic component with independent, half-domain-spliced or
   duplicated errors, used to compare simultaneous and concatenated bands;
3. constant-variance trigonometric errors, locally-varying spline errors and
   a sparse-contamination variant, used to compare modulation families.

Determinism contract: all coefficient functions are drawn from
``default_rng(coeff_seed)`` and regenerate identically across replications;
per-replication randomness comes from ``default_rng(seed)`` with a fixed
draw order (error coefficients first, then any phases, then the final
permutation of the n+1 pairs). The held-out pair returned separately is
therefore a uniformly random element of the generated sample, which is what
makes the n+1 generated pairs exchangeable even though the design points
w_i = i/(n+1) are fixed.

Gaussian variates use numpy's PCG64 ``standard_normal`` (ziggurat), pinned
here as the named sampling algorithm so seeds reproduce across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Covariates,
    Dataset,
    Grid,
    MFCurve,
    _integer,
    _readonly,
    _seed,
    uniform_grid,
)
from .regress import RegressorSpec

__all__ = [
    "BSplineBasis",
    "ScenarioSpec",
    "uniform_bspline_basis",
    "eval_bspline",
    "basis_matrix",
    "draw_trig_coefficients",
    "generate",
    "regressor_for",
]


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """Clamped B-spline basis: ``order`` repeated boundary knots and equally
    spaced interior knots."""

    order: int
    n_basis: int
    knots: np.ndarray
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.order < 1 or self.n_basis < self.order:
            raise ValueError("need n_basis >= order >= 1")
        knots = _readonly(self.knots, "knot vector", error=ValueError)
        if knots.shape != (self.n_basis + self.order,):
            raise ValueError(
                f"knot vector must have n_basis + order = "
                f"{self.n_basis + self.order} entries"
            )
        object.__setattr__(self, "knots", knots)

    @property
    def degree(self) -> int:
        return self.order - 1


def uniform_bspline_basis(
    order: int, n_basis: int, domain: tuple[float, float] = (0.0, 1.0)
) -> BSplineBasis:
    """Clamped basis with ``n_basis - order`` equally spaced interior knots."""
    a, b = domain
    interior = n_basis - order
    inner = np.linspace(a, b, interior + 2)[1:-1]
    knots = np.concatenate([np.full(order, a), inner, np.full(order, b)])
    return BSplineBasis(order=order, n_basis=n_basis, knots=knots, domain=domain)


def eval_bspline(basis: BSplineBasis, coeffs, t: float) -> float:
    """Evaluate sum_k coeffs[k] * B_k(t): the row of :func:`basis_matrix` at
    ``t`` dotted with the coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.n_basis,):
        raise ValueError(f"need {basis.n_basis} coefficients, got {c.shape}")
    return float(basis_matrix(basis, [t])[0] @ c)


def basis_matrix(basis: BSplineBasis, ts) -> np.ndarray:
    """All basis functions at all points: matrix of shape (len(ts), n_basis).

    Vectorized Cox-de Boor triangular recursion over the evaluation points.
    """
    ts = np.asarray(ts, dtype=float)
    a, b = basis.domain
    if not np.all((a <= ts) & (ts <= b)):
        raise ValueError(f"evaluation points outside the basis domain [{a}, {b}]")
    p = basis.degree
    knots = basis.knots
    spans = np.searchsorted(knots, ts, side="right") - 1
    spans = np.clip(spans, p, basis.n_basis - 1)

    nt = ts.size
    N = np.zeros((nt, p + 1))
    N[:, 0] = 1.0
    left = np.empty((nt, p + 1))
    right = np.empty((nt, p + 1))
    for j in range(1, p + 1):
        left[:, j] = ts - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - ts
        saved = np.zeros(nt)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = np.where(denom != 0.0, N[:, r] / np.where(denom == 0, 1, denom), 0.0)
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N[:, j] = saved

    out = np.zeros((nt, basis.n_basis))
    rows = np.arange(nt)
    for r in range(p + 1):
        out[rows, spans - p + r] = N[:, r]
    return out


@lru_cache(maxsize=32)
def _unit_grid_basis(order: int, n_basis: int, n_points: int) -> np.ndarray:
    basis = uniform_bspline_basis(order, n_basis)
    mat = basis_matrix(basis, np.linspace(0.0, 1.0, n_points))
    mat.setflags(write=False)
    return mat


_CONTAMINATION_SIZES = (
    "the contamination pattern is defined for n = 20 or n divisible by 40"
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully pinned generation setting.

    ``coeff_seed`` fixes the coefficient functions shared by every
    replication; ``seed`` drives everything replication-specific.
    ``error_scale`` multiplies the random error-coefficient draws (0 gives
    noiseless data, a test hook) without changing the stream layout.
    """

    study: int
    scenario: int
    n: int
    covariate_set: int = 2
    coeff_seed: int | tuple[int, ...] = 0
    seed: int | tuple[int, ...] = 0
    grid_points: int = 100
    error_scale: float = 1.0

    def __post_init__(self):
        for name in ("study", "scenario", "n", "covariate_set", "grid_points"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.study not in (1, 2, 3):
            raise ValueError("study must be 1, 2 or 3")
        top = 2 if self.study == 1 else 3
        if not 1 <= self.scenario <= top:
            raise ValueError(f"study {self.study} has scenarios 1..{top}")
        if self.covariate_set not in (1, 2, 3):
            raise ValueError("covariate_set must be 1, 2 or 3")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if (self.study, self.scenario) == (3, 3) and self.n != 20 and self.n % 40:
            raise ValueError(
                f"study 3, scenario 3: {_CONTAMINATION_SIZES}, got n={self.n}"
            )
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not 0.0 <= self.error_scale < float("inf"):
            raise ValueError(
                f"error_scale must be finite and >= 0, got {self.error_scale!r}"
            )
        # The coefficient curves are cached on coeff_seed, so it must be a
        # plain, hashable seed value that names one draw.
        for name in ("coeff_seed", "seed"):
            object.__setattr__(self, name, _seed(getattr(self, name), name))


# Per-cell constants: every replication of a study cell shares them, so each
# is built once per process and stored read-only.


@lru_cache(maxsize=32)
def _grid(grid_points: int) -> Grid:
    return uniform_grid(grid_points, p=2)


@lru_cache(maxsize=32)
def _coefficient_curves(coeff_seed: int, n_points: int) -> np.ndarray:
    """The three fixed coefficient functions sampled on the grid, (3, G)."""
    rng = np.random.default_rng(coeff_seed)
    coefs = rng.standard_normal((3, 6))
    curves = coefs @ _unit_grid_basis(4, 6, n_points).T
    curves.setflags(write=False)
    return curves


@lru_cache(maxsize=32)
def _design_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed covariates w_i = i/(n+1), i = 1..n+1, and their squares."""
    w = np.arange(1, n + 2) / (n + 1)
    w2 = w * w
    w.setflags(write=False)
    w2.setflags(write=False)
    return w, w2


@lru_cache(maxsize=2)
def _systematic_means(coeff_seed: int, n: int, grid_points: int, shared: bool):
    """The systematic part of the n+1 generated rows, one (n+1, G) array per
    component: b0 + w b1 and b0 + w^2 b2, or, when ``shared`` (study 2), the
    one array b0 + w b1 + w^2 b2 for both components.

    Two entries cover the cells that alternate within one study call, so the
    cache holds at most four arrays of 8 (n+1) G bytes; mc-n2000 (n = 2000,
    G = 100) holds three 1.6 MB arrays.
    """
    b0, b1, b2 = _coefficient_curves(coeff_seed, grid_points)
    w, w2 = _design_points(n)
    if shared:
        means = (b0 + np.outer(w, b1) + np.outer(w2, b2),) * 2
    else:
        means = (b0 + np.outer(w, b1), b0 + np.outer(w2, b2))
    for mean in means:
        mean.setflags(write=False)
    return means


def draw_trig_coefficients(rng, count: int, scale: float = 1.0):
    """Amplitude vectors (count, 3) with unit variances and 0.7 cross
    correlation, plus uniform phases on [-0.5, 0.5]."""
    sigma = np.full((3, 3), 0.7)
    np.fill_diagonal(sigma, 1.0)
    chol = np.linalg.cholesky(sigma)
    amps = rng.standard_normal((count, 3)) @ chol.T * scale
    phases = rng.uniform(-0.5, 0.5, count)
    return amps, phases


@lru_cache(maxsize=32)
def _contamination_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and component indices of the (observation, component) pairs that
    carry the anomalous bump (about 5% of the multivariate functions), for an
    n that :class:`ScenarioSpec` admits."""
    if n == 20:
        rows, comps = np.array([0]), np.array([0])
    else:
        blocks = 40 * np.arange(n // 40)
        rows = np.concatenate([blocks, blocks + 1])
        comps = np.repeat([0, 1], n // 40)
    rows.setflags(write=False)
    comps.setflags(write=False)
    return rows, comps


def _errors(spec: ScenarioSpec, rngs, points: np.ndarray) -> np.ndarray:
    """The (R, 2, n+1, G) error curves of R replications, component-major,
    each drawn from its own generator of ``rngs`` in the study's order.

    Studies 1 and 2 use 6-basis spline errors; study 2 splices component 2
    onto component 1 for t <= 0.5 (scenario 2, the boundary point belongs to
    the first branch) or duplicates it (scenario 3). Study 3 uses
    trigonometric errors with correlated amplitudes (scenario 1) or 13-basis
    spline errors with one low-variance coefficient (scenarios 2 and 3).
    Each generator draws its coefficient rows in (row, component) order; the
    rows are put in (component, row) order before the curves are computed,
    so that each component's curves are one contiguous block. The draws of
    all generators are stacked first, which gives each replication the same
    curves as it would get alone.
    """
    count, shape = 2 * (spec.n + 1), (len(rngs), spec.n + 1, 2)

    def component_major(draws):
        # (R * (n+1) * 2, ...) in generated order -> (R * 2 * (n+1), ...)
        draws = np.concatenate(draws)
        tail = draws.shape[1:]
        return draws.reshape(shape + tail).swapaxes(1, 2).reshape((-1,) + tail)

    if spec.study == 3 and spec.scenario == 1:
        draws = [draw_trig_coefficients(rng, count, spec.error_scale) for rng in rngs]
        amps = component_major([a for a, _ in draws])
        phases = component_major([ph for _, ph in draws])
        arg = 10.0 * np.pi * (points[None, :] + phases[:, None])
        eps = amps[:, [0]] + amps[:, [1]] * np.cos(arg) + amps[:, [2]] * np.sin(arg)
    else:
        n_basis, scale = 6, spec.error_scale
        if spec.study == 3:
            sd = np.full(13, np.sqrt(0.001))
            sd[6] = np.sqrt(9e-6)
            n_basis, scale = 13, sd * spec.error_scale
        coefs = component_major(
            [rng.standard_normal((count, n_basis)) * scale for rng in rngs])
        eps = coefs @ _unit_grid_basis(4, n_basis, points.size).T
    eps = eps.reshape(len(rngs), 2, spec.n + 1, points.size)
    if spec.study == 2 and spec.scenario == 2:
        eps[:, 1] = np.where(points <= 0.5, eps[:, 0], eps[:, 1])
    elif spec.study == 2 and spec.scenario == 3:
        eps[:, 1] = eps[:, 0]
    return eps


def _covariates(spec: ScenarioSpec) -> dict:
    """The scalar covariates of the n+1 generated rows: w and w^2, or none in
    study 3, scenario 3."""
    if spec.study == 3 and spec.scenario == 3:
        return {}
    w, w2 = _design_points(spec.n)
    return {"w": w, "w2": w2}


def _responses(spec: ScenarioSpec, rngs) -> np.ndarray:
    """The (R, 2, n+1, G) responses of R replications, component-major and
    in generated row order: the errors of :func:`_errors` plus the
    systematic part, the linear part b0 + w b1 (component 1) and
    b0 + w^2 b2 (component 2), exponentiated in study 1, scenario 2; the
    full quadratic part shared by both components in study 2; and in study
    3, scenario 3, a deterministic bump on ~5% of the curves with no
    observable covariates. Each systematic part and bump is added to one
    contiguous block per component."""
    points = _grid(spec.grid_points).components[0].points
    y = _errors(spec, rngs, points)
    if spec.study == 3 and spec.scenario == 3:
        rows, comps = _contamination_cells(spec.n)
        y[:, comps, rows] += 0.5 * _unit_grid_basis(4, 13, points.size)[:, 6]
        return y
    means = _systematic_means(spec.coeff_seed, spec.n, points.size, spec.study == 2)
    for j, mean in enumerate(means):
        y[:, j] += mean
    if spec.study == 1 and spec.scenario == 2:
        np.exp(y, out=y)
    return y


def generate(spec: ScenarioSpec):
    """One sample of the spec's study cell: (dataset, held-out pair), the
    rows of :func:`_responses` with their covariates in a random order. The
    last permuted row is held out; :meth:`Dataset.from_blocks` copies the
    others."""
    rng = np.random.default_rng(spec.seed)
    y, scalar = _responses(spec, [rng])[0], _covariates(spec)
    perm = rng.permutation(spec.n + 1)
    keep, out = perm[:-1], perm[-1]
    dataset = Dataset.from_blocks(_grid(spec.grid_points), (y[0, keep], y[1, keep]),
                                  {k: v[keep] for k, v in scalar.items()})
    held_out = Covariates(scalar={k: v[out] for k, v in scalar.items()})
    return dataset, (held_out, MFCurve((y[0, out], y[1, out])))


def regressor_for(spec: ScenarioSpec) -> RegressorSpec:
    """Regressor matching the spec's covariate set.

    Studies 1 and 2 use their three covariate sets (omitted variable,
    as-generated, added irrelevant variable). Study 3 is always evaluated
    with the correctly specified model: scenario 3 has no observable
    covariates, so its correct model is the plain intercept.
    """
    if spec.study == 3:
        if spec.scenario == 3:
            return RegressorSpec(kind="intercept_only")
        return RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w2",)))
    if spec.covariate_set == 1:
        return RegressorSpec(kind="intercept_only")
    if spec.covariate_set == 3:
        return RegressorSpec(kind="concurrent_fos", terms=(("w", "w2"),) * 2)
    if spec.study == 1:
        return RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w2",)))
    return RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
