import numpy as np
import pytest
from scipy.interpolate import BSpline

from mfconformal import Covariates, MFCurve, ScenarioSpec, eval_bspline, fit, generate
from mfconformal.regress import residuals
from mfconformal.simgen import (
    _spline_errors,
    basis_matrix,
    draw_trig_coefficients,
    regressor_for,
    uniform_bspline_basis,
)


class TestBSpline:
    def test_clamped_knot_layout(self):
        basis = uniform_bspline_basis(4, 6)
        expected = [0, 0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1, 1]
        assert np.allclose(basis.knots, expected)

    @pytest.mark.parametrize("n_basis", [6, 13])
    def test_partition_of_unity(self, n_basis):
        basis = uniform_bspline_basis(4, n_basis)
        ones = np.ones(n_basis)
        for t in np.linspace(0, 1, 53):
            assert eval_bspline(basis, ones, float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coefficients(self):
        basis = uniform_bspline_basis(4, 6)
        for t in (0.0, 0.31, 1.0):
            assert eval_bspline(basis, np.zeros(6), t) == 0.0

    @pytest.mark.parametrize("n_basis", [6, 13])
    def test_matches_scipy_reference(self, n_basis):
        rng = np.random.default_rng(5)
        basis = uniform_bspline_basis(4, n_basis)
        coeffs = rng.normal(size=n_basis)
        ref = BSpline(basis.knots, coeffs, basis.degree, extrapolate=False)
        for t in np.linspace(0, 1, 101):
            assert eval_bspline(basis, coeffs, float(t)) == pytest.approx(
                float(ref(t)), abs=1e-12
            )

    def test_basis_matrix_agrees_with_pointwise_eval(self):
        rng = np.random.default_rng(6)
        basis = uniform_bspline_basis(4, 6)
        coeffs = rng.normal(size=6)
        ts = np.linspace(0, 1, 37)
        via_matrix = basis_matrix(basis, ts) @ coeffs
        via_eval = [eval_bspline(basis, coeffs, float(t)) for t in ts]
        assert np.allclose(via_matrix, via_eval, atol=1e-13)

    def test_outside_domain_rejected(self):
        basis = uniform_bspline_basis(4, 6)
        with pytest.raises(ValueError):
            eval_bspline(basis, np.zeros(6), 1.5)


class TestStudy1:
    def test_noiseless_curves_are_exactly_systematic(self):
        # With zeroed error coefficients the correctly specified model
        # interpolates, so its training residuals vanish identically.
        spec = ScenarioSpec(study=1, scenario=1, n=12, coeff_seed=3, seed=8,
                            error_scale=0.0)
        ds, (x_new, y_new) = generate(spec)
        model = fit(ds, range(ds.n), regressor_for(spec))
        for block in residuals(model, ds, range(ds.n)):
            assert block.shape == (ds.n, spec.grid_points)
            assert np.max(np.abs(block)) < 1e-10

    def test_w_values_equally_spaced(self):
        spec = ScenarioSpec(study=1, scenario=1, n=10, seed=4)
        ds, (x_new, _) = generate(spec)
        ws = sorted(
            [ds.covariates(i).scalar["w"] for i in range(ds.n)]
            + [x_new.scalar["w"]]
        )
        assert np.allclose(ws, np.arange(1, 12) / 11)

    def test_error_mean_zero_monte_carlo(self):
        # 10^4 spline error curves: the pointwise mean must sit within four
        # standard errors of zero, with the pointwise variance known in
        # closed form from the basis functions.
        points = np.linspace(0, 1, 100)
        eps = _spline_errors(np.random.default_rng(11), 10_000, 6, 1.0, points)
        bmat = basis_matrix(uniform_bspline_basis(4, 6), points)
        pointwise_var = (bmat**2).sum(axis=1)
        se = np.sqrt(pointwise_var / 10_000)
        assert np.all(np.abs(eps.mean(axis=0)) <= 4 * se)

    def test_scenario2_positive(self):
        spec = ScenarioSpec(study=1, scenario=2, n=15, seed=1)
        ds, (_, y_new) = generate(spec)
        for i in range(ds.n):
            for v in ds.curve(i).values:
                assert np.all(v > 0)
        assert all(np.all(v > 0) for v in y_new.values)

    def test_bit_identical_datasets_for_same_spec(self):
        spec = ScenarioSpec(study=1, scenario=1, n=9, coeff_seed=2, seed=13)
        a, (xa, ya) = generate(spec)
        b, (xb, yb) = generate(spec)
        for i in range(a.n):
            for va, vb in zip(a.curve(i).values, b.curve(i).values):
                assert va.tobytes() == vb.tobytes()
            assert a.covariates(i).scalar == b.covariates(i).scalar
        assert all(u.tobytes() == v.tobytes() for u, v in zip(ya.values, yb.values))


class TestStudy2:
    def test_scenario3_components_identical(self):
        spec = ScenarioSpec(study=2, scenario=3, n=8, seed=21)
        ds, (_, y_new) = generate(spec)
        for i in range(ds.n):
            v = ds.curve(i).values
            assert np.array_equal(v[0], v[1])
        assert np.array_equal(y_new.values[0], y_new.values[1])

    def test_scenario2_spliced_at_half(self):
        # 101 points puts t=0.5 on the grid; the boundary belongs to the
        # first branch.
        spec = ScenarioSpec(study=2, scenario=2, n=8, seed=22, grid_points=101)
        ds, _ = generate(spec)
        pts = ds.grid.components[0].points
        first = pts <= 0.5
        diffs = []
        for i in range(ds.n):
            v = ds.curve(i).values
            assert np.array_equal(v[0][first], v[1][first])
            diffs.append(np.max(np.abs(v[0][~first] - v[1][~first])))
        assert max(diffs) > 0  # independent beyond the splice

    def test_scenario1_zero_errors_components_identical(self):
        spec = ScenarioSpec(study=2, scenario=1, n=8, seed=23, error_scale=0.0)
        ds, _ = generate(spec)
        for i in range(ds.n):
            v = ds.curve(i).values
            assert np.allclose(v[0], v[1], atol=1e-14)


class TestStudy3:
    def test_amplitude_correlation_matches_target(self):
        amps, phases = draw_trig_coefficients(np.random.default_rng(31), 10_000)
        corr = np.corrcoef(amps.T)
        assert corr[0, 1] == pytest.approx(0.7, abs=0.02)
        assert corr[0, 2] == pytest.approx(0.7, abs=0.02)
        assert corr[1, 2] == pytest.approx(0.7, abs=0.02)
        assert np.all(np.abs(phases) <= 0.5)

    def test_contamination_count_n20(self):
        spec = ScenarioSpec(study=3, scenario=3, n=20, seed=41, error_scale=0.0)
        ds, (x_new, y_new) = generate(spec)
        curves = [ds.curve(i) for i in range(ds.n)] + [y_new]
        contaminated = [
            c for c in curves
            if any(np.max(np.abs(v)) > 1e-12 for v in c.values)
        ]
        assert len(contaminated) == 1
        # exactly one component carries the bump
        flags = [np.max(np.abs(v)) > 1e-12 for v in contaminated[0].values]
        assert flags.count(True) == 1

    def test_contamination_count_n200(self):
        spec = ScenarioSpec(study=3, scenario=3, n=200, seed=42, error_scale=0.0)
        ds, (x_new, y_new) = generate(spec)
        curves = [ds.curve(i) for i in range(ds.n)] + [y_new]
        contaminated = sum(
            1 for c in curves if any(np.max(np.abs(v)) > 1e-12 for v in c.values)
        )
        assert contaminated == 10

    def test_low_variance_seventh_coefficient(self):
        # Scenario 2 errors dip in variance where the 7th basis function
        # dominates (center of the domain).
        spec = ScenarioSpec(study=3, scenario=2, n=200, seed=43)
        ds, _ = generate(spec)
        stack = np.stack([ds.curve(i).values[0] for i in range(ds.n)])
        # remove the systematic component via the correct model fit
        model = fit(ds, range(ds.n), regressor_for(spec))
        res = residuals(model, ds, range(ds.n))[0]
        std = res.std(axis=0)
        center = std[45:55].mean()
        edges = (std[:10].mean() + std[-10:].mean()) / 2
        assert center < 0.6 * edges

    def test_regressor_for_study3(self):
        assert regressor_for(ScenarioSpec(study=3, scenario=3, n=20)).kind == (
            "intercept_only"
        )
        spec = regressor_for(ScenarioSpec(study=3, scenario=1, n=20))
        assert spec.terms == (("w",), ("w2",))


class TestAllScenarioCombinations:
    @pytest.mark.parametrize("study,scenario", [
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
    ])
    @pytest.mark.parametrize("n", [20, 40])
    def test_finite_and_grid_conformant(self, study, scenario, n):
        spec = ScenarioSpec(study=study, scenario=scenario, n=n, seed=60)
        ds, (x_new, y_new) = generate(spec)
        assert ds.n == n
        assert ds.grid.p == 2
        for i in range(ds.n):
            for v in ds.curve(i).values:
                assert v.size == 100 and np.all(np.isfinite(v))
        assert all(np.all(np.isfinite(v)) for v in y_new.values)

    @pytest.mark.parametrize("study,scenario", [(1, 1), (2, 3), (3, 3)])
    def test_builds_one_curve_and_one_covariates_per_call(
        self, monkeypatch, study, scenario
    ):
        # The n kept rows reach the dataset as arrays; only the held-out row
        # becomes single-observation objects.
        counts = {MFCurve: 0, Covariates: 0}
        for cls in counts:
            def counting(self, real=cls.__post_init__, cls=cls):
                counts[cls] += 1
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        ds, (x_new, y_new) = generate(
            ScenarioSpec(study=study, scenario=scenario, n=20, seed=3)
        )
        assert counts == {MFCurve: 1, Covariates: 1}
        assert ds.n == 20 and isinstance(x_new, Covariates)
        assert isinstance(y_new, MFCurve)

    def test_unsupported_contamination_size(self):
        with pytest.raises(ValueError, match="contamination"):
            generate(ScenarioSpec(study=3, scenario=3, n=30, seed=1))
