import re

import numpy as np
import pytest

from mfconformal import (
    Covariates,
    Dataset,
    MFCurve,
    RegressorSpec,
    ShapeError,
    fit,
    predict,
    residuals,
    uniform_grid,
)
from mfconformal import regress
from mfconformal.regress import InsufficientDataError, SingularDesignError

from conftest import make_dataset


def constant_curve_dataset(grid, levels):
    pairs = tuple(
        (Covariates(), MFCurve(tuple(np.full(c.size, lv) for c in grid.components)))
        for lv in levels
    )
    return Dataset(grid=grid, pairs=pairs)


def linear_dataset(grid, ws, noise=None, slope=5.0, intercept=2.0):
    pairs = []
    for i, w in enumerate(ws):
        values = []
        for c in grid.components:
            y = intercept + slope * w * np.ones(c.size)
            if noise is not None:
                y = y + noise[i]
            values.append(y)
        pairs.append((Covariates(scalar={"w": w}), MFCurve(tuple(values))))
    return Dataset(grid=grid, pairs=tuple(pairs))


class TestIntercptOnly:
    def test_mean_of_constant_curves(self, grid2):
        ds = constant_curve_dataset(grid2, [1.0, 3.0])
        model = fit(ds, [0, 1], RegressorSpec(kind="intercept_only"))
        for x in (Covariates(), Covariates(scalar={"anything": 9.0})):
            pred = predict(model, x)
            for v in pred.values:
                assert np.allclose(v, 2.0, atol=1e-14)

    def test_same_curve_for_every_x(self, rng, grid2):
        ds = make_dataset(rng, grid2, 8)
        model = fit(ds, range(8), RegressorSpec(kind="intercept_only"))
        p1 = predict(model, Covariates(scalar={"w": 0.1}))
        p2 = predict(model, Covariates(scalar={"w": 0.9}))
        for a, b in zip(p1.values, p2.values):
            assert np.array_equal(a, b)


class TestConcurrentFos:
    def test_exact_recovery_without_noise(self):
        grid = uniform_grid(20, p=2)
        ws = np.linspace(0.1, 0.9, 6)
        ds = linear_dataset(grid, ws)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        model = fit(ds, range(6), spec)
        for coef in model.coefficients:
            assert np.allclose(coef[:, 0], 2.0, atol=1e-10)
            assert np.allclose(coef[:, 1], 5.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        grid = uniform_grid(15, p=2)
        n = 12
        ds = make_dataset(rng, grid, n)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        model = fit(ds, range(n), spec)

        ws = np.array([ds.covariates(i).scalar["w"] for i in range(n)])
        X = np.column_stack([np.ones(n), ws])
        XtX = X.T @ X
        for j in range(2):
            Y = np.stack([ds.curve(i).values[j] for i in range(n)])
            for g in range(grid.components[j].size):
                beta = np.linalg.solve(XtX, X.T @ Y[:, g])
                assert np.allclose(model.coefficients[j][g], beta, atol=1e-9)

    def test_residual_orthogonality(self, rng):
        grid = uniform_grid(10, p=2)
        n = 9
        ds = make_dataset(rng, grid, n)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        model = fit(ds, range(n), spec)
        res = residuals(model, ds, range(n))
        ws = np.array([ds.covariates(i).scalar["w"] for i in range(n)])
        X = np.column_stack([np.ones(n), ws])
        for j in range(2):
            R = res[j]
            assert R.shape == (n, grid.components[j].size)
            grams = X.T @ R
            scale = max(1.0, float(np.abs(R).max()) * n)
            assert np.max(np.abs(grams)) <= 1e-8 * scale

    def test_predict_affine_in_scalar_covariates(self, rng):
        grid = uniform_grid(12, p=2)
        ds = make_dataset(rng, grid, 10)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        model = fit(ds, range(10), spec)
        xa = Covariates(scalar={"w": 0.2})
        xb = Covariates(scalar={"w": 0.8})
        xm = Covariates(scalar={"w": 0.5})
        for a, b, m in zip(
            predict(model, xa).values, predict(model, xb).values,
            predict(model, xm).values,
        ):
            assert np.allclose(a + b, 2 * m, atol=1e-12)

    def test_refit_is_bit_reproducible(self, rng):
        grid = uniform_grid(10, p=2)
        ds = make_dataset(rng, grid, 10)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        m1 = fit(ds, range(10), spec)
        m2 = fit(ds, range(10), spec)
        for a, b in zip(m1.coefficients, m2.coefficients):
            assert a.tobytes() == b.tobytes()


class TestConcurrentFof:
    def test_matches_pointwise_normal_equations(self, rng):
        grid = uniform_grid(8, p=2)
        n = 10
        temps = [tuple(rng.normal(size=c.size) for c in grid.components) for _ in range(n)]
        pairs = []
        for i in range(n):
            values = tuple(
                1.0 + 0.5 * temps[i][j] + 0.1 * rng.normal(size=grid.components[j].size)
                for j in range(2)
            )
            pairs.append(
                (
                    Covariates(scalar={}, functional={"temp": temps[i]}),
                    MFCurve(values),
                )
            )
        ds = Dataset(grid=grid, pairs=tuple(pairs))
        spec = RegressorSpec(kind="concurrent_fof", terms=(("temp",), ("temp",)))
        model = fit(ds, range(n), spec)
        for j in range(2):
            for g in range(grid.components[j].size):
                X = np.column_stack(
                    [np.ones(n), [temps[i][j][g] for i in range(n)]]
                )
                y = np.array([ds.curve(i).values[j][g] for i in range(n)])
                beta = np.linalg.solve(X.T @ X, X.T @ y)
                assert np.allclose(model.coefficients[j][g], beta, atol=1e-9)

    def test_coefficients_are_pointwise_lstsq_bit_for_bit(self, rng):
        grid, n = uniform_grid(9, p=2), 11
        temp = [rng.normal(size=(n, 9)) for _ in range(2)]
        ys = [rng.normal(size=(n, 9)) for _ in range(2)]
        ds = Dataset.from_blocks(grid, ys, scalar={"w": rng.normal(size=n)},
                                 functional={"temp": temp})
        spec = RegressorSpec("concurrent_fof", (("temp",), ("w", "temp")))
        train = [0, 2, 3, 5, 6, 7, 9, 10]
        model = fit(ds, train, spec)
        for j, names in enumerate(spec.terms):
            want = []
            for g in range(9):
                cols = [np.ones(len(train))] + [
                    ds.scalar["w"][train] if name == "w" else temp[j][train, g]
                    for name in names]
                want.append(np.linalg.lstsq(np.column_stack(cols), ys[j][train, g],
                                            rcond=regress.RANK_RCOND)[0])
            got = model.coefficients[j]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_singular_design_names_the_first_singular_grid_index(self, rng):
        temp = rng.normal(size=(6, 8))
        temp[:, 3] = 0.7  # collinear with the intercept at grid index 3 only
        temp[:, 5] = -1.0
        ds = Dataset.from_blocks(uniform_grid(8), [rng.normal(size=(6, 8))],
                                 functional={"temp": [temp]})
        with pytest.raises(SingularDesignError, match=r"^singular design for "
                           r"component 0 at grid index 3: rank 1 < 2$"):
            fit(ds, range(6), RegressorSpec("concurrent_fof", (("temp",),)))


class TestConcurrentFosScalarOnly:
    MESSAGE = "covariate 'temp' is functional; concurrent_fos takes scalar covariates only"

    def test_fit_refuses_a_functional_covariate(self, rng):
        ds = Dataset.from_blocks(uniform_grid(5), [rng.normal(size=(6, 5))],
                                 functional={"temp": [rng.normal(size=(6, 5))]})
        with pytest.raises(ShapeError, match=self.MESSAGE):
            fit(ds, range(6), RegressorSpec("concurrent_fos", (("temp",),)))

    def test_predict_refuses_a_functional_covariate(self, rng, grid2):
        ds = Dataset.from_blocks(
            grid2, [rng.normal(size=(6, c.size)) for c in grid2.components],
            scalar={"temp": rng.normal(size=6)},
        )
        model = fit(ds, range(6), RegressorSpec("concurrent_fos", (("temp",),) * 2))
        x = Covariates(functional={"temp": tuple(np.zeros(c.size) for c in grid2.components)})
        with pytest.raises(ShapeError, match=self.MESSAGE):
            predict(model, x)


class TestPredictOptions:
    def test_truncation_clamps_negative_predictions(self, grid2):
        ds = constant_curve_dataset(grid2, [-0.3, -0.1])
        model = fit(ds, [0, 1], RegressorSpec(kind="intercept_only"))
        raw = predict(model, Covariates())
        clamped = predict(model, Covariates(), truncate_at_zero=True)
        assert np.all(raw.values[0] < 0)
        assert np.all(clamped.values[0] == 0.0)

    def test_method_equals_the_function(self, rng, grid2):
        ds = make_dataset(rng, grid2, 6)
        model = fit(ds, range(6), RegressorSpec("concurrent_fos", (("w",), ("w",))))
        x = Covariates(scalar={"w": -3.0})  # negative predictions, so truncation shows
        for method, function in (
                (model.predict(x), predict(model, x)),
                (model.predict(x, truncate_at_zero=True),
                 predict(model, x, truncate_at_zero=True))):
            assert [a.tobytes() for a in method.values] == [
                b.tobytes() for b in function.values]

    def test_layout_mismatch(self, rng, grid2):
        ds = make_dataset(rng, grid2, 6)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        model = fit(ds, range(6), spec)
        with pytest.raises(ShapeError, match="missing"):
            predict(model, Covariates(scalar={"z": 1.0}))


class TestFitErrors:
    def test_singular_design_names_component(self, grid2):
        # Two perfectly collinear covariates.
        pairs = tuple(
            (
                Covariates(scalar={"w": w, "w2": 2.0 * w}),
                MFCurve(tuple(np.full(c.size, w) for c in grid2.components)),
            )
            for w in (0.1, 0.4, 0.7, 0.9)
        )
        ds = Dataset(grid=grid2, pairs=pairs)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w", "w2"),) * 2)
        with pytest.raises(SingularDesignError, match="component 0"):
            fit(ds, range(4), spec)

    def test_insufficient_data(self, rng, grid2):
        ds = make_dataset(rng, grid2, 4)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        with pytest.raises(InsufficientDataError):
            fit(ds, [0], spec)

    def test_intercept_only_rejects_terms(self):
        with pytest.raises(ValueError):
            RegressorSpec(kind="intercept_only", terms=(("w",),))

    @pytest.mark.parametrize("bad,message", [
        (-1, "training index -1 is outside 0..7"),
        (8, "training index 8 is outside 0..7"),
        (1.9, "training index must be an integer, got 1.9"),
        (True, "training index must be an integer, got True"),
        ("1", "training index must be an integer, got '1'"),
        (2**70, f"training index {2**70} is outside 0..7"),
    ], ids=["negative", "n", "fraction", "bool", "text", "beyond int64"])
    def test_fit_takes_row_indices_by_the_integer_rule(self, rng, grid2, bad, message):
        # Before, -1 wrapped to the last row, 8 raised numpy's IndexError, 1.9
        # was truncated, True taken as 1, "1" parsed and 2**70 raised
        # OverflowError.
        ds = make_dataset(rng, grid2, 8)
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            fit(ds, [0, 1, 2, bad], RegressorSpec(kind="intercept_only"))

    def test_residuals_refuse_a_negative_row_index(self, rng, grid2):
        ds = make_dataset(rng, grid2, 8)
        model = fit(ds, range(4), RegressorSpec(kind="intercept_only"))
        with pytest.raises(ShapeError, match="^observation index -1 is outside 0..7$"):
            residuals(model, ds, [-1])

    def test_the_first_faulty_index_is_named(self, rng, grid2):
        # Before, every index was checked for an integer before any for its
        # range, so the fraction after an out-of-range index was named.
        ds = make_dataset(rng, grid2, 8)
        with pytest.raises(ShapeError, match="^training index 8 is outside 0..7$"):
            fit(ds, [8, 1.5], RegressorSpec(kind="intercept_only"))


def stacked_design(columns, spec, names, j, rows):
    """Reference design built by stacking broadcast columns."""
    cols = [np.ones(len(rows))] if spec.intercept else []
    for name in names:
        if name in columns.scalar:
            cols.append(np.atleast_1d(columns.scalar[name])[rows])
        else:
            cols.append(np.atleast_2d(columns.functional[name][j])[rows])
    shape = max((c.shape for c in cols), key=len)
    return np.stack([np.broadcast_to(c[:, None], shape) if c.ndim < len(shape) else c
                     for c in cols], axis=-1)


DESIGN_SPECS = {
    "scalar-only": RegressorSpec("concurrent_fos", (("w",), ("w", "v"))),
    "functional-only": RegressorSpec("concurrent_fof", (("temp",), ("temp",))),
    "mixed": RegressorSpec("concurrent_fof", (("w", "temp"), ("temp", "v"))),
    "no-intercept": RegressorSpec("concurrent_fof", (("temp",), ("w", "temp")),
                                  intercept=False),
}


class TestDesignAgainstStackedReference:
    @pytest.mark.parametrize("name", sorted(DESIGN_SPECS))
    def test_fit_residuals_and_predict_are_bit_identical(self, rng, monkeypatch, name):
        grid = uniform_grid(7, p=2)
        n = 12
        ds = Dataset.from_blocks(
            grid,
            [rng.normal(size=(n, 7)) for _ in range(2)],
            scalar={"w": rng.normal(size=n), "v": rng.normal(size=n)},
            functional={"temp": [rng.normal(size=(n, 7)) for _ in range(2)]},
        )
        spec, train, calib = DESIGN_SPECS[name], range(8), range(8, n)
        x = ds.covariates(10)

        def outputs():
            model = fit(ds, train, spec)
            return (model.coefficients, residuals(model, ds, calib),
                    predict(model, x).values)

        merged = outputs()
        monkeypatch.setattr(regress, "_design", stacked_design)
        reference = outputs()
        for got, want in zip(merged, reference):
            assert len(got) == len(want) == 2
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestOneColumnFit:
    def test_fitted_values_are_the_matrix_product_bit_for_bit(self, rng):
        # Products that are zeros of either sign, subnormal or exact.
        design = np.array([0.0, -0.0, 1.0, -1.0, 3.5, -2.25, 1e-300, -7e-200])
        coef = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e-310, -1.5, 4.0, 1e300])
        # The stacked path multiplies a stack of shuffled one-column designs,
        # and a stack of one-row held-out designs, by their own coefficient
        # rows in one np.matmul call; the public path takes one 2-D design at
        # a time. Each slice of the stacked product is that slice's own
        # product, zero signs included, and each entry the rounded multiply.
        designs = np.array([rng.permutation(design) for _ in range(3)])[..., None]
        b = np.array([rng.permutation(coef) for _ in range(3)])[:, None]
        for X in (designs, designs[:, :1]):
            got = np.matmul(X, b)
            assert got.shape == X.shape[:-1] + coef.shape
            assert np.array_equal(got, X * b)
            for r in range(len(X)):
                want = np.matmul(X[r], b[r])
                assert np.array_equal(got[r], want)
                assert np.array_equal(np.signbit(got[r]), np.signbit(want))


class TestStackedSolve:
    """``_solve`` solves a stack of designs in one call, each matrix as
    ``np.linalg.lstsq`` solves it alone."""

    @pytest.mark.parametrize("k", [1, 100])
    @pytest.mark.parametrize("m", ["q", 10, 1000])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_each_matrix_is_lstsq_bit_for_bit(self, rng, q, m, k):
        m = q if m == "q" else m
        for size in (1, 3, 20):
            X = rng.normal(size=(size, m, q))
            y = rng.normal(size=(size, m, k))
            y[::2, :, 0] = 0.0  # zero solutions, whose sign is pinned too
            got = regress._solve(X, y, 0)
            want = np.array([np.linalg.lstsq(X[r], y[r], rcond=regress.RANK_RCOND)[0]
                             for r in range(size)])
            assert got.shape == want.shape == (size, q, k)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # A 2-D design is one matrix of the same stack.
            assert np.array_equal(regress._solve(X[-1], y[-1], 0), want[-1])

    @pytest.mark.parametrize("bad", [0, 1, 4])
    def test_any_rank_deficient_member_refuses_the_stack(self, rng, bad):
        X = rng.normal(size=(5, 10, 2))
        X[bad, :, 1] = 2.0 * X[bad, :, 0]
        y = rng.normal(size=(5, 10, 3))
        with pytest.raises(SingularDesignError, match=rf"^singular design for "
                           rf"component 4 at grid index {bad}: rank 1 < 2$"):
            regress._solve(X, y, 4)
        with pytest.raises(SingularDesignError, match=r"^singular design for "
                           r"component 4 \(all grid points\): rank 1 < 2$"):
            regress._solve(X[bad], y[bad], 4)
        # A stack of replications, each with a design shared by its grid
        # points, as the study harness solves them.
        with pytest.raises(SingularDesignError, match=r"^singular design for "
                           r"component 4 \(all grid points\): rank 1 < 2$"):
            regress._solve(X, y, 4, shared=True)

    @pytest.mark.parametrize("errors", ["warn", "raise", "ignore"])
    def test_a_nan_design_raises_numpys_error(self, rng, errors, capfd):
        X, y = rng.normal(size=(3, 10, 2)), rng.normal(size=(3, 10, 4))
        X[1, 0, 0] = np.nan
        message = "^SVD did not converge in Linear Least Squares$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            np.linalg.lstsq(X[1], y[1], rcond=regress.RANK_RCOND)
        # The harness runs its stacks with floating-point errors ignored, and
        # a caller may have them raised.
        with np.errstate(all=errors):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                regress._solve(X, y, 0)
        capfd.readouterr()  # LAPACK reports the NaN on stdout


@pytest.mark.parametrize("fields,message", [
    ({"kind": "spline"}, "unknown regressor kind 'spline'"),
    ({"kind": "intercept_only", "intercept": False},
     "intercept_only requires the intercept"),
    ({"kind": "concurrent_fos", "terms": (("w",), ()), "intercept": False},
     "a component with no terms needs an intercept"),
])
def test_regressor_spec_refusal_messages(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RegressorSpec(**fields)
