from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import BSpline

from mfconformal import (
    Covariates,
    Dataset,
    MFCurve,
    ScenarioSpec,
    eval_bspline,
    fit,
    generate,
    uniform_grid,
)
from mfconformal.regress import residuals
from mfconformal.simgen import (
    _coefficient_curves,
    _contamination_cells,
    _design_points,
    _errors,
    _systematic_means,
    _unit_grid_basis,
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
        # eval_bspline is a row of basis_matrix, so scipy is the pointwise
        # reference.
        rng = np.random.default_rng(6)
        basis = uniform_bspline_basis(4, 6)
        coeffs = rng.normal(size=6)
        ts = np.linspace(0, 1, 37)
        ref = BSpline(basis.knots, coeffs, basis.degree, extrapolate=False)
        assert np.allclose(basis_matrix(basis, ts) @ coeffs, ref(ts), atol=1e-13)

    def test_outside_domain_rejected(self):
        basis = uniform_bspline_basis(4, 6)
        with pytest.raises(ValueError):
            eval_bspline(basis, np.zeros(6), 1.5)

    def test_nan_point_rejected(self):
        basis = uniform_bspline_basis(4, 6)
        with pytest.raises(ValueError, match="outside the basis domain"):
            eval_bspline(basis, np.zeros(6), np.nan)
        with pytest.raises(ValueError, match="outside the basis domain"):
            basis_matrix(basis, [0.5, np.nan])


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
        # (The 2 * 5000 error curves of one study 1 sample.)
        points = np.linspace(0, 1, 100)
        spec = ScenarioSpec(study=1, scenario=1, n=4999)
        eps = _errors(spec, [np.random.default_rng(11)], points).reshape(10_000, 100)
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

    @pytest.mark.parametrize("n", [2, 30, 60, 100, 2001])
    def test_spec_refuses_a_size_the_contamination_pattern_lacks(self, n):
        with pytest.raises(ValueError, match=(
            r"^study 3, scenario 3: the contamination pattern is defined for "
            rf"n = 20 or n divisible by 40, got n={n}$"
        )):
            ScenarioSpec(study=3, scenario=3, n=n)
        for study, scenario in ((1, 1), (2, 3), (3, 2)):
            assert ScenarioSpec(study=study, scenario=scenario, n=n).n == n

    @pytest.mark.parametrize("n", [20, 40, 80, 2000])
    def test_spec_takes_a_contamination_size(self, n):
        assert ScenarioSpec(study=3, scenario=3, n=n).n == n


def reference_generate(spec):
    """The generator's arithmetic rebuilt for one replication: each
    component's systematic part from ``b0 + np.outer(...)``, then a copying
    ``Dataset.from_blocks``."""
    n, grid = spec.n, uniform_grid(spec.grid_points, p=2)
    points = grid.components[0].points
    rng = np.random.default_rng(spec.seed)
    y = _errors(spec, [rng], points)[0].swapaxes(0, 1)  # (n+1, 2, G)
    scalar = {}
    if (spec.study, spec.scenario) == (3, 3):
        bump = 0.5 * _unit_grid_basis(4, 13, points.size)[:, 6]
        # w_ij = 1 for observation i = j + 40k (i = j = 1 at n = 20), added
        # as the full product with every row.
        weights = np.zeros((n + 1, 2))
        if n == 20:
            weights[0, 0] = 1.0
        for j in (1, 2):
            weights[j + 40 * np.arange(n // 40) - 1, j - 1] = 1.0
        y += weights[:, :, None] * bump
    else:
        b0, b1, b2 = _coefficient_curves(spec.coeff_seed, points.size)
        w = np.arange(1, n + 2) / (n + 1)
        scalar = {"w": w, "w2": w * w}
        if spec.study == 2:
            y += (b0 + np.outer(w, b1) + np.outer(w * w, b2))[:, None]
        else:
            y[:, 0] += b0 + np.outer(w, b1)
            y[:, 1] += b0 + np.outer(w * w, b2)
        if (spec.study, spec.scenario) == (1, 2):
            np.exp(y, out=y)
    perm = rng.permutation(n + 1)
    keep, out = perm[:-1], perm[-1]
    dataset = Dataset.from_blocks(
        grid, (y[keep, 0], y[keep, 1]), {k: v[keep] for k, v in scalar.items()}
    )
    return dataset, {k: v[out] for k, v in scalar.items()}, (y[out, 0], y[out, 1])


ALL_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


# n=80 is the smallest n with two 40-row contamination blocks in study 3,
# scenario 3, whose components alternate by block.
@pytest.mark.parametrize("n", [20, 40, 80])
def test_generate_is_bit_identical_to_per_replication_arithmetic(n):
    # Cells interleave within each seed, so the per-cell caches are filled,
    # hit and evicted along the way.
    for seed in range(6):
        for study, scenario in ALL_CELLS:
            spec = ScenarioSpec(study=study, scenario=scenario, n=n, seed=(seed, 4),
                                coeff_seed=seed % 3)
            ds, (x_new, y_new) = generate(spec)
            want, x_want, y_want = reference_generate(spec)
            assert all(map(np.array_equal, ds.responses, want.responses))
            assert ds.scalar.keys() == want.scalar.keys()
            assert all(np.array_equal(ds.scalar[k], want.scalar[k]) for k in ds.scalar)
            assert x_new.scalar == x_want
            assert all(map(np.array_equal, y_new.values, y_want))


def reference_errors(spec, rng, points):
    """One replication's errors in generated order, (n+1, 2, G): the curve
    of drawn row k belongs to observation k // 2, component k % 2."""
    count, size = 2 * (spec.n + 1), points.size
    if (spec.study, spec.scenario) == (3, 1):
        amps, phases = draw_trig_coefficients(rng, count, spec.error_scale)
        arg = 10.0 * np.pi * (points[None, :] + phases[:, None])
        eps = amps[:, [0]] + amps[:, [1]] * np.cos(arg) + amps[:, [2]] * np.sin(arg)
    else:
        n_basis, scale = 6, spec.error_scale
        if spec.study == 3:
            scale = np.full(13, np.sqrt(0.001)) * spec.error_scale
            scale[6] = np.sqrt(9e-6) * spec.error_scale
            n_basis = 13
        coefs = rng.standard_normal((count, n_basis)) * scale
        eps = coefs @ _unit_grid_basis(4, n_basis, size).T
    eps = eps.reshape(spec.n + 1, 2, size)
    if (spec.study, spec.scenario) == (2, 2):
        eps[:, 1] = np.where(points <= 0.5, eps[:, 0], eps[:, 1])
    elif (spec.study, spec.scenario) == (2, 3):
        eps[:, 1] = eps[:, 0]
    return eps


@pytest.mark.parametrize("error_scale", [1.0, 0.0])
@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("study,scenario", ALL_CELLS)
def test_errors_are_the_generated_curves_in_component_major_order(
        study, scenario, n, error_scale):
    # _errors puts the drawn rows in (component, row) order before the
    # curves are computed; swapped back, a stack of three replications must
    # hold each one's curves as drawn, signs of zeros included.
    spec = ScenarioSpec(study=study, scenario=scenario, n=n, coeff_seed=1,
                        grid_points=50, error_scale=error_scale)
    points = uniform_grid(50, p=2).components[0].points
    seeds = [(n, study, scenario, r) for r in range(3)]
    got = _errors(spec, [np.random.default_rng(s) for s in seeds], points)
    assert got.shape == (3, 2, n + 1, 50) and got.flags.c_contiguous
    want = np.array([reference_errors(spec, np.random.default_rng(s), points)
                     for s in seeds])
    got = got.swapaxes(1, 2)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("study,scenario", ALL_CELLS)
def test_generate_holds_blocks_that_own_their_data(study, scenario):
    # Each block and the held-out curve is its own read-only copy, so keeping
    # any of them pins no generated (2, n+1, G) array.
    spec = ScenarioSpec(study=study, scenario=scenario, n=20, seed=1)
    ds, (x, y) = generate(spec)
    held = (*ds.responses, *ds.scalar.values(), *y.values)
    assert ds.n == 20 and len(ds.responses) == 2
    assert ds.scalar.keys() == x.scalar.keys()
    for i, block in enumerate(held):
        assert block.dtype == np.float64 and block.base is None
        assert not block.flags.writeable
        assert not any(np.shares_memory(block, other) for other in held[:i])


class TestPerCellConstants:
    def test_replications_share_the_grid_and_nobody_writes_the_constants(self):
        spec = ScenarioSpec(study=1, scenario=1, n=20, coeff_seed=7, grid_points=50)
        first, _ = generate(replace(spec, seed=(0, 0, 0)))
        second, _ = generate(replace(spec, seed=(0, 1, 0)))
        assert first.grid is second.grid
        w, w2 = _design_points(20)
        constants = [_coefficient_curves(7, 50), w, w2, *_contamination_cells(20)]
        blocks = [*first.responses, *first.scalar.values()]
        for arr in constants + blocks:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("study,scenario", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_systematic_means_are_read_only_and_shared_by_replications(
        self, study, scenario
    ):
        spec = ScenarioSpec(study=study, scenario=scenario, n=20, coeff_seed=7,
                            grid_points=50)
        key = (7, 20, 50, study == 2)
        generate(replace(spec, seed=(0, 0, 0)))
        means = _systematic_means(*key)
        generate(replace(spec, seed=(0, 1, 0)))
        again = _systematic_means(*key)
        assert len(means) == 2 and all(a is b for a, b in zip(means, again))
        assert (means[0] is means[1]) == (study == 2)
        for mean in means:
            assert mean.shape == (21, 50)
            with pytest.raises(ValueError, match="read-only"):
                mean[0, 0] = 0.0

    def test_coeff_seed_is_a_plain_seed(self):
        spec = ScenarioSpec(study=2, scenario=1, n=20, seed=3, grid_points=5)
        by_list, _ = generate(replace(spec, coeff_seed=[7, 1]))
        by_tuple, _ = generate(replace(spec, coeff_seed=(7, 1)))
        assert np.array_equal(by_list.responses[0], by_tuple.responses[0])
        assert replace(spec, coeff_seed=np.int64(7)).coeff_seed == 7
        for bad in (None, 7.5, np.random.default_rng(7)):
            with pytest.raises(ValueError, match="coeff_seed"):
                replace(spec, coeff_seed=bad)

    @pytest.mark.parametrize("field", ["seed", "coeff_seed"])
    def test_seeds_follow_one_integer_rule(self, field):
        spec = ScenarioSpec(study=1, scenario=1, n=20, grid_points=5)
        assert getattr(replace(spec, **{field: [np.int64(1), 2]}), field) == (1, 2)
        assert type(getattr(replace(spec, **{field: np.int64(3)}), field)) is int
        for bad in ((1.9, 2), (True, 1), ("3",), True, 2.0, "3", None,
                    -3, [], (), [1, -2], np.int64(-1)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                replace(spec, **{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_error_scale_must_be_finite_and_nonnegative(self, bad):
        # Unchecked, a non-finite scale surfaces as non-finite responses in
        # every replication, blamed on the generated data.
        with pytest.raises(ValueError, match="error_scale must be finite and >= 0"):
            ScenarioSpec(study=1, scenario=1, n=20, error_scale=bad)
        assert ScenarioSpec(study=1, scenario=1, n=20, error_scale=0).error_scale == 0


# Per cell at n=40, seed 1, coeff_seed 7 and 5 grid points: the first response
# row of each component, the held-out curve and the held-out w (None without
# covariates). A change in draw order or assembly shifts these by O(1); the
# tolerance only absorbs last-bit BLAS differences between hosts.
PINNED_CELLS = {
    (1, 1): (
        [[-1.1537689116519776, -0.8559612226673038, -1.6791343766424296, -0.42349649313432164, -1.1064460206130187], [-0.6158337575552537, 0.3660249270927229, 0.18543527611346822, 0.5720421622998916, -0.8358358281473258]],
        [[-1.1119495215645516, -0.049359888755349274, -0.4560760005399529, -0.6980502950939789, -2.8368211419925515], [0.4468271405930694, -0.609840534316092, -0.8082257213704782, -0.8076262508466756, -2.2267259884704576]],
        0.4878048780487805,
    ),
    (1, 2): (
        [[0.31544563941127274, 0.4248745956460402, 0.18653537555182878, 0.6547534717948856, 0.33073229058909426], [0.5401903197396675, 1.4419911868545423, 1.2037422863745757, 1.7718818294677614, 0.4335119884410292]],
        [[0.3289171046335574, 0.951838512072684, 0.633765668735134, 0.49755444305525526, 0.05861168837335607], [1.5633440372053196, 0.5434375218013233, 0.4456480690183011, 0.4459153019908093, 0.10788105639203963]],
        0.4878048780487805,
    ),
    (2, 1): (
        [[-1.1414778986813718, -0.9012110310791335, -1.651019540874385, -0.4591495789308388, -1.1598027661001589], [-0.5952969176439332, 0.4837885191108326, 0.026866453157972425, 0.5417423358974831, -0.7139719717024271]],
        [[-1.0868658216245402, -0.14170643653459353, -0.39869878468680053, -0.7708116946787078, -2.945712459313246], [0.47616548332352715, -0.44160683143307816, -1.0347526113069008, -0.8509117171358307, -2.0526347649777446]],
        0.4878048780487805,
    ),
    (2, 2): (
        [[-1.1414778986813718, -0.9012110310791335, -1.651019540874385, -0.4591495789308388, -1.1598027661001589], [-1.1414778986813718, -0.9012110310791335, -1.651019540874385, 0.5417423358974831, -0.7139719717024271]],
        [[-1.0868658216245402, -0.14170643653459353, -0.39869878468680053, -0.7708116946787078, -2.945712459313246], [-1.0868658216245402, -0.14170643653459353, -0.39869878468680053, -0.8509117171358307, -2.0526347649777446]],
        0.4878048780487805,
    ),
    (2, 3): (
        [[-1.1414778986813718, -0.9012110310791335, -1.651019540874385, -0.4591495789308388, -1.1598027661001589], [-1.1414778986813718, -0.9012110310791335, -1.651019540874385, -0.4591495789308388, -1.1598027661001589]],
        [[-1.0868658216245402, -0.14170643653459353, -0.39869878468680053, -0.7708116946787078, -2.945712459313246], [-1.0868658216245402, -0.14170643653459353, -0.39869878468680053, -0.7708116946787078, -2.945712459313246]],
        0.4878048780487805,
    ),
    (3, 1): (
        [[-0.6644632470950985, -0.6188463763462297, -1.6349480298144239, -1.6225173280979324, -1.563250582953578], [1.4639075505106174, 0.6382046034475769, -0.186911226783391, 0.3828525385912346, 0.414426397364025]],
        [[1.5738265248541474, 3.114196917789688, 2.0530848663356536, 0.4580141715355367, 0.6243756807288783], [2.759956778479048, 4.680999216363649, 0.7833983641764974, -1.3112666083967761, 1.7550223185716411]],
        0.14634146341463414,
    ),
    (3, 2): (
        [[-0.009909028682114521, 0.024096725789491985, -0.6828360759476879, -0.6740955642562398, -0.9736113664729806], [0.10684991766368222, -0.06849724237388169, -0.5370994208077774, -0.6818082964444679, -1.0107231148553244]],
        [[0.024222004350798798, 0.1710379641935295, -0.8481896057434514, -0.6820278081192427, -0.7300708709375691], [-0.03981875794104105, -0.19730054127508437, -0.4506262041890631, -0.8295187182914148, -1.2100036416557778]],
        0.6585365853658537,
    ),
    (3, 3): (
        [[-0.027275270541348883, -0.017077773010659797, -0.00740657837466717, -0.0006917038276798072, -0.07771498439751022], [0.09803194507434615, 0.010791626114845515, -0.003616320495367674, -0.010201119100562673, 0.01386306363064798]],
        [[-0.016614911692801805, -0.004723496913033338, 0.008461403778707383, 0.026004425340641242, 0.02655253234373138], [-0.08676395443919468, 0.022355079838094153, -0.0043564719734448965, -0.047314213578721474, -0.01990266084234993]],
        None,
    ),
}


@pytest.mark.parametrize("study,scenario", sorted(PINNED_CELLS))
def test_generator_pinned_per_cell(study, scenario):
    first_rows, held_out, w = PINNED_CELLS[study, scenario]
    ds, (x_new, y_new) = generate(ScenarioSpec(
        study=study, scenario=scenario, n=40, seed=1, coeff_seed=7, grid_points=5
    ))
    np.testing.assert_allclose([b[0] for b in ds.responses], first_rows, rtol=1e-12)
    np.testing.assert_allclose(y_new.values, held_out, rtol=1e-12)
    if w is None:
        assert x_new.scalar == {}
    else:
        assert x_new.scalar["w"] == pytest.approx(w, rel=1e-12)
