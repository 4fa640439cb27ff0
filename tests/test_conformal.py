import dataclasses
import math
import re

import numpy as np
import pytest

from mfconformal import (
    Band,
    Covariates,
    MFCurve,
    ModulationSet,
    RegressorSpec,
    Scores,
    band_size,
    calibrate,
    calibrate_smoothed,
    calibrate_split,
    calibration_scores,
    conformal,
    contains,
    cub_band,
    fit,
    make_band,
    p_value,
    p_value_smoothed,
    pointwise_band,
    predict,
    random_split,
    s_const,
    s_sigma,
    score,
    uniform_grid,
)
from mfconformal.conformal import (
    Calibration,
    EmptyBandError,
    InfiniteBandError,
    _calibrated,
    cub_radii,
    pointwise_radii,
)
from mfconformal.core import MFConformalError, ShapeError, Split
from mfconformal.regress import residuals

from conftest import make_dataset, random_curve


@pytest.fixture
def instance(rng):
    """A small fitted/calibrated split-mode instance."""
    grid = uniform_grid(40, p=2)
    ds = make_dataset(rng, grid, 30)
    split = random_split(30, 11, seed=5)
    model = fit(ds, split.train_idx, RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",))))
    train_res = residuals(model, ds, split.train_idx)
    s = s_sigma(train_res, grid)
    return ds, split, model, s


class TestScore:
    def test_constant_residual(self, grid2):
        s = s_const(grid2)
        res = MFCurve(tuple(np.full(c.size, 1.3) for c in grid2.components))
        assert score(res, s) == pytest.approx(1.3 / 0.5, rel=1e-14)

    def test_zero_residual(self, grid2):
        res = MFCurve(tuple(np.zeros(c.size) for c in grid2.components))
        assert score(res, s_const(grid2)) == 0.0

    def test_matches_full_scan(self, rng, grid2):
        res = random_curve(rng, grid2)
        base = [np.abs(rng.normal(size=c.size)) + 0.2 for c in grid2.components]
        s = ModulationSet(grid2, tuple(base), "sigma", unit_integral=False)
        best = -np.inf
        for rv, sv in zip(res.values, s.fns):
            for a, b in zip(rv, sv):
                best = max(best, abs(float(a)) / float(b))
        assert score(res, s) == best


class TestCalibrateSplit:
    def test_l9_alpha_010_takes_max(self):
        scores = Scores(np.arange(1.0, 10.0))
        cal = calibrate_split(scores, 0.10)
        assert cal.radius == 9.0 and cal.closure == "closed" and not cal.infinite

    def test_l99_alpha_010_rank_90(self, rng):
        vals = rng.normal(size=99) ** 2
        cal = calibrate_split(Scores(vals), 0.10)
        assert cal.radius == np.sort(vals)[89]

    def test_infeasible_alpha_gives_infinite_band(self):
        cal = calibrate_split(Scores(np.arange(1.0, 10.0)), 0.05)
        assert cal.infinite

    def test_alpha_exactly_at_bound_is_feasible(self):
        cal = calibrate_split(Scores(np.arange(1.0, 10.0)), 0.1)
        assert not cal.infinite


class TestCalibrateSmoothed:
    def test_tau_one_reduces_to_split(self, rng):
        cases = [(rng.normal(size=17) ** 2, alpha) for alpha in (0.1, 0.25, 0.37)]
        # l=9 with alpha just outside the snapping tolerance below 1/(l+1):
        # both calibrators give the whole space.
        cases.append((np.arange(1.0, 10.0), 0.1 * (1 - 3e-9)))
        for vals, alpha in cases:
            split_cal = calibrate_split(Scores(vals), alpha)
            smooth_cal = calibrate_smoothed(Scores(vals), alpha, 1.0)
            assert smooth_cal.infinite == split_cal.infinite
            assert smooth_cal.closure == split_cal.closure == "closed"
            if not split_cal.infinite:
                assert smooth_cal.radius == split_cal.radius
        assert split_cal.infinite

    def test_hand_worked_open_case(self):
        # l=9, alpha=0.10, tau=0.5: rank ceil(8.5)=9, no ties, threshold
        # (1 - floor(0.5) + 0)/2 = 0.5, tau <= threshold -> open.
        scores = Scores(np.arange(1.0, 10.0))
        cal = calibrate_smoothed(scores, 0.10, 0.5)
        assert cal.radius == 9.0
        assert cal.closure == "open"

    def test_tie_counters_match_bruteforce(self, rng):
        for trial in range(50):
            gen = np.random.default_rng(trial)
            vals = gen.integers(0, 4, size=11).astype(float)
            alpha = float(gen.uniform(0.05, 0.6))
            tau = float(gen.uniform(0, 1))
            scores = Scores(vals)
            l = 11
            rank = int(np.ceil(l + tau - (l + 1) * alpha))
            if not 1 <= rank <= l:
                continue
            srt = np.sort(vals)
            w = srt[rank - 1]
            r_n = int(np.sum(srt[rank:] == w))
            v_n = int(np.sum(srt[: rank - 1] == w))
            cal = calibrate_smoothed(scores, alpha, tau)
            assert cal.radius == w
            thr = ((l + 1) * alpha - np.floor((l + 1) * alpha - tau) + r_n) / (
                r_n + v_n + 2
            )
            assert cal.closure == ("closed" if tau > thr else "open")

    def test_membership_equals_smoothed_p_value(self, rng):
        # The open/closed rule must reproduce {delta_{y,tau} > alpha} exactly,
        # including tied scores.
        for trial in range(200):
            gen = np.random.default_rng(1000 + trial)
            vals = np.round(gen.uniform(0, 3, size=9), 1)  # many ties
            alpha = float(gen.uniform(0.05, 0.8))
            tau = float(gen.uniform(0, 1))
            scores = Scores(vals)
            new = float(gen.choice(np.concatenate([vals, gen.uniform(0, 3, 5)])))
            delta = p_value_smoothed(scores, new, tau)
            try:
                cal = calibrate_smoothed(scores, alpha, tau)
            except EmptyBandError:
                assert delta <= alpha + 1e-12
                continue
            if cal.infinite:
                member = True
            elif cal.closure == "closed":
                member = new <= cal.radius
            else:
                member = new < cal.radius
            assert member == (delta > alpha), (trial, vals, new, alpha, tau)

    def test_alpha_above_feasibility_raises(self):
        with pytest.raises(EmptyBandError):
            calibrate_smoothed(Scores(np.arange(1.0, 10.0)), 0.97, 0.2)

    def test_a_stack_names_its_first_tau_that_empties_the_band(self):
        # At l = 9, alpha = 0.95 reaches the bound (l + tau)/(l + 1) for
        # tau = 0.2 and 0.1 but not for tau = 1.
        srt = np.tile(np.arange(1.0, 10.0), (2, 3, 1))
        with pytest.raises(EmptyBandError, match=re.escape(
                "needs alpha < (l+0.2)/(l+1) = 0.92; the smoothed band is empty")):
            _calibrated(srt, 0.95, np.array([[1.0, 1.0, 0.2], [0.1, 1.0, 1.0]]))


class TestBands:
    def test_zero_radius_band_degenerates_to_prediction(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        pred = dataclasses.replace(pred, radius=0.0)
        band = make_band(pred, ds.covariates(0))
        yhat = predict(model, ds.covariates(0))
        for lo, hi, v in zip(band.lower, band.upper, yhat.values):
            assert np.array_equal(lo, v) and np.array_equal(hi, v)

    def test_constant_modulation_constant_halfwidth(self, rng):
        grid = uniform_grid(30, p=2)
        ds = make_dataset(rng, grid, 20)
        split = random_split(20, 9, seed=2)
        model = fit(ds, split.train_idx, RegressorSpec(kind="intercept_only"))
        pred = calibrate(ds, split, model, s_const(grid), 0.10)
        band = make_band(pred, ds.covariates(0))
        for lo, hi in zip(band.lower, band.upper):
            assert np.allclose(hi - lo, 2 * pred.radius * 0.5, rtol=1e-12)

    def test_width_over_modulation_equals_radius(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        band = make_band(pred, ds.covariates(3))
        for lo, hi, f in zip(band.lower, band.upper, s.fns):
            assert np.allclose((hi - lo) / 2 / f, pred.radius, rtol=1e-12)

    def test_truncate_at_zero(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        band = make_band(pred, ds.covariates(0), truncate_at_zero=True)
        for lo in band.lower:
            assert np.all(lo >= 0.0)

    def test_truncation_follows_the_bound_checks(self, rng):
        # 1e308 * s = 1e308 * 100 overflows both bounds; clamping the lower
        # one at 0 first would leave only the upper one to refuse.
        grid = uniform_grid(5, (0.0, 0.01))
        ds = make_dataset(rng, grid, 6)
        model = fit(ds, np.arange(6), RegressorSpec(kind="intercept_only"))
        pred = conformal.BandPredictor(model, s_const(grid), 1e308, "closed",
                                       0.1, "split")
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^lower bound component 0 contains non-finite entries$"):
            make_band(pred, Covariates(), truncate_at_zero=True)

    def test_contains_prediction_and_excursions(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        x = ds.covariates(1)
        band = make_band(pred, x)
        yhat = predict(model, x)
        assert contains(band, yhat)
        bumped = [v.copy() for v in yhat.values]
        bumped[1][7] = band.upper[1][7] + 1e-6
        assert not contains(band, MFCurve(tuple(bumped)))

    def test_open_band_excludes_boundary(self, grid2):
        lower = tuple(np.zeros(c.size) for c in grid2.components)
        upper = tuple(np.ones(c.size) for c in grid2.components)
        closed = Band(lower=lower, upper=upper, closure="closed")
        opened = Band(lower=lower, upper=upper, closure="open")
        boundary = MFCurve(tuple(np.ones(c.size) for c in grid2.components))
        inside = MFCurve(tuple(np.full(c.size, 0.5) for c in grid2.components))
        assert contains(closed, boundary)
        assert not contains(opened, boundary)
        assert contains(opened, inside)

    def test_infinite_band_contains_everything(self, rng, grid2):
        band = Band(lower=None, upper=None, infinite=True)
        assert contains(band, random_curve(rng, grid2))


class TestOutcomeChecks:
    def test_band_refuses_an_unknown_closure(self, grid2):
        bounds = tuple(np.zeros(c.size) for c in grid2.components)
        with pytest.raises(ValueError, match="unknown closure 'ajar'"):
            Band(lower=bounds, upper=bounds, closure="ajar")
        with pytest.raises(ValueError, match="unknown closure 'ajar'"):
            Band(lower=None, upper=None, closure="ajar", infinite=True)

    def test_calibration_refuses_an_infinite_radius(self):
        with pytest.raises(ValueError, match="radius must be finite and >= 0, got inf"):
            Calibration(radius=math.inf, closure="closed")
        assert Calibration(radius=math.nan, closure="closed", infinite=True).infinite

    def test_split_mode_refuses_a_tau(self, instance):
        ds, split, model, s = instance
        with pytest.raises(ValueError, match="tau applies to smoothed mode"):
            calibrate(ds, split, model, s, 0.2, mode="split", tau=0.3)
        pred = calibrate(ds, split, model, s, 0.2)
        with pytest.raises(ValueError, match="tau applies to smoothed mode"):
            dataclasses.replace(pred, tau=0.3)

    def test_scores_must_be_a_nonempty_nonnegative_vector(self):
        with pytest.raises(ShapeError, match="^scores must be a non-empty vector$"):
            Scores(np.array([]))
        with pytest.raises(ValueError, match="^scores must be nonnegative$"):
            Scores(np.array([0.5, -0.25]))

    def test_split_mode_refuses_an_open_band(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.2)
        with pytest.raises(ValueError, match="^split-mode bands are closed$"):
            dataclasses.replace(pred, closure="open")
        opened = dataclasses.replace(pred, closure="open", mode="smoothed", tau=0.5)
        assert opened.closure == "open"

    def test_band_refuses_inconsistent_bounds(self, grid2):
        lo = tuple(np.zeros(c.size) for c in grid2.components)
        hi = tuple(np.ones(c.size) for c in grid2.components)
        for kwargs, error, message in [
            (dict(lower=lo, upper=hi, infinite=True), ValueError,
             "an infinite band carries no bounds"),
            (dict(lower=lo, upper=hi[:1]), ShapeError,
             "lower and upper need the same component count"),
            (dict(lower=lo, upper=(hi[0], hi[1][:-1])), ShapeError,
             "component 1 bounds have mismatched shapes"),
            (dict(lower=hi, upper=(hi[0], lo[1])), ValueError,
             "component 1 has lower > upper"),
            (dict(lower=lo, upper=(hi[0], np.full(50, np.inf))), ValueError,
             "upper bound component 1 contains non-finite entries"),
        ]:
            with pytest.raises(error, match=f"^{message}$"):
                Band(**kwargs)

    def test_contains_refuses_a_curve_of_another_shape(self, instance):
        band = make_band(calibrate(*instance, 0.2), Covariates(scalar={"w": 0.5}))
        with pytest.raises(ShapeError,
                           match="^curve and band have different component counts$"):
            contains(band, MFCurve((np.zeros(40),)))
        with pytest.raises(ShapeError, match="^curve and band shapes differ$"):
            contains(band, MFCurve((np.zeros(39), np.zeros(40))))

    def test_predictor_needs_model_and_modulation_on_equal_grids(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.2)
        rebuilt = dataclasses.replace(pred, modulation=s_const(uniform_grid(40, p=2)))
        assert rebuilt.modulation.grid is not model.grid
        for grid in (uniform_grid(41, p=2), uniform_grid(40, p=1),
                     uniform_grid(40, domain=(0.0, 2.0), p=2)):
            with pytest.raises(ShapeError, match="model and modulation grids differ"):
                dataclasses.replace(pred, modulation=s_const(grid))

    @pytest.mark.parametrize("call", [calibrate, calibration_scores, cub_band])
    def test_calibration_refuses_a_split_of_another_row_count(self, rng, grid2, call):
        # Before, a split of 10 rows whose calibration rows fall below 8 was
        # calibrated on 8 rows.
        ds = make_dataset(rng, grid2, 8)
        model = fit(ds, range(3, 8), RegressorSpec(kind="intercept_only"))
        args = (ds, Split(range(3, 10), (0, 1, 2)), model, s_const(grid2))
        extra = {calibrate: (0.5,), calibration_scores: (), cub_band: (0.5, Covariates())}
        with pytest.raises(ShapeError, match="^split covers 10 rows, dataset has 8$"):
            call(*args, *extra[call])


class TestPValues:
    def test_larger_than_all(self):
        scores = Scores(np.arange(1.0, 10.0))
        assert p_value(scores, 99.0) == pytest.approx(1 / 10)

    def test_zero_score(self):
        scores = Scores(np.arange(1.0, 10.0))
        assert p_value(scores, 0.0) == 1.0

    def test_counting_oracle(self, rng):
        vals = np.round(rng.uniform(0, 5, size=23), 1)
        scores = Scores(vals)
        for new in rng.uniform(0, 5, size=40):
            expected = (int(np.sum(vals >= new)) + 1) / 24
            assert p_value(scores, float(new)) == expected

    def test_smoothed_tau_one_equals_plain(self, rng):
        vals = np.round(rng.uniform(0, 5, size=12), 1)
        scores = Scores(vals)
        for new in list(vals[:4]) + [0.0, 10.0]:
            assert p_value_smoothed(scores, float(new), 1.0) == p_value(
                scores, float(new)
            )

    def test_smoothed_no_ties(self):
        scores = Scores(np.arange(1.0, 10.0))
        assert p_value_smoothed(scores, 2.5, 0.3) == pytest.approx(
            (7 + 0.3 * 1) / 10
        )

    def test_smoothed_tied_oracle(self, rng):
        vals = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        scores = Scores(vals)
        tau = 0.4
        # new score ties the three 2.0s plus itself
        expected = (1 + tau * 4) / 6
        assert p_value_smoothed(scores, 2.0, tau) == pytest.approx(expected)

    def test_bounds(self, rng):
        vals = rng.uniform(0, 1, size=15)
        scores = Scores(vals)
        for new in rng.uniform(-1, 2, size=50):
            if new < 0:  # no score is negative
                with pytest.raises(ValueError, match="new score must be nonnegative"):
                    p_value(scores, float(new))
            else:
                assert 1 / 16 <= p_value(scores, float(new)) <= 1.0

    @pytest.mark.parametrize("tau", [None, 0.5])
    def test_nan_score_is_refused(self, tau):
        # NaN compares false with every score, which would count it as the
        # largest possible score and return the smallest p-value, tau/(l+1).
        scores = Scores(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ValueError, match="NaN"):
            if tau is None:
                p_value(scores, math.nan)
            else:
                p_value_smoothed(scores, math.nan, tau)

    @pytest.mark.parametrize("tau", [None, 0.5])
    def test_negative_score_is_refused(self, tau):
        # Before, p_value(scores, -1.0) returned 1.0.
        scores = Scores(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ValueError,
                           match="^the new score must be nonnegative, got -1.0$"):
            if tau is None:
                p_value(scores, -1.0)
            else:
                p_value_smoothed(scores, -1.0, tau)


class TestMembershipDuality:
    def test_split_membership_iff_pvalue(self, instance, rng):
        ds, split, model, s = instance
        alpha = 0.25
        pred = calibrate(ds, split, model, s, alpha)
        scores = calibration_scores(ds, split, model, s)
        x = ds.covariates(2)
        band = make_band(pred, x)
        yhat = predict(model, x)
        for _ in range(200):
            pert = MFCurve(
                tuple(
                    v + rng.normal(scale=rng.uniform(0.05, 3.0)) * f * pred.radius
                    for v, f in zip(yhat.values, s.fns)
                )
            )
            resid = MFCurve(
                tuple(a - b for a, b in zip(pert.values, yhat.values))
            )
            assert contains(band, pert) == (p_value(scores, score(resid, s)) > alpha)


class TestBandSize:
    def test_radius_one_normalized(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        pred = dataclasses.replace(pred, radius=1.0)
        assert band_size(pred) == pytest.approx(2.0, abs=1e-12)

    def test_radius_zero(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        pred = dataclasses.replace(pred, radius=0.0)
        assert band_size(pred) == 0.0

    def test_quadrature_self_check(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.25)
        assert band_size(pred) == pytest.approx(2 * pred.radius, rel=1e-12)

    def test_infinite_band_errors(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s, 0.05)  # < 1/(l+1) = 1/12
        assert pred.infinite
        with pytest.raises(InfiniteBandError):
            band_size(pred)

    def test_denormalized_modulation_fails_check(self, instance):
        ds, split, model, s = instance
        pred = calibrate(ds, split, model, s.scale(2.0), 0.25)
        with pytest.raises(MFConformalError, match="self-check"):
            band_size(pred)

    def test_size_check_of_a_stack_names_its_first_failing_replication(self):
        # s_const integrates to 1 on [0, 1]: the area is 2 * radii.
        grid = uniform_grid(11)
        fns = s_const(grid).fns
        radius = np.array([0.5, 1.0, 1.5])
        with pytest.raises(MFConformalError, match=r"^band size self-check failed: "
                           r"2\*radius=2\.0 but quadrature gives 2\.5; "):
            conformal._band_size([np.array([0.5, 1.25, 1.75])], fns, grid, radius)
        assert np.array_equal(conformal._band_size([radius], fns, grid, radius),
                              2.0 * radius)
        # 2 * radius overflows, and the area with it: an overflow, not a
        # modulation that fails to integrate to 1.
        radius = np.array([0.5, 1e308, 1.7e308])
        with pytest.raises(MFConformalError, match=r"^band size overflows: "
                           r"quadrature gives inf$"):
            conformal._band_size([radius], fns, grid, radius)

    def test_cub_size_of_a_stack_names_its_first_overflowing_replication(self):
        # Each of the two s_const components integrates to 1/2.
        grid = uniform_grid(11, p=2)
        fns = s_const(grid).fns
        radii = [np.array([1.0, 1e308, 1e308]), np.array([2.0, 1e308, 1.0])]
        with np.errstate(over="ignore"):
            with pytest.raises(MFConformalError, match=r"^band size overflows: "
                               r"quadrature gives inf$"):
                conformal._band_size(radii, fns, grid)
            sizes = conformal._band_size([k[:1] for k in radii], fns, grid)
        assert np.array_equal(sizes, [3.0])


class TestComparativeBands:
    def test_single_component_cub_equals_mpb(self, rng):
        grid = uniform_grid(25, p=1)
        ds = make_dataset(rng, grid, 16)
        split = random_split(16, 7, seed=3)
        model = fit(ds, split.train_idx, RegressorSpec(kind="intercept_only"))
        s = s_sigma(residuals(model, ds, split.train_idx), grid)
        alpha = 0.25
        pred = calibrate(ds, split, model, s, alpha)
        x = ds.covariates(0)
        mpb = make_band(pred, x)
        cub = cub_band(ds, split, model, s, alpha, x)
        for a, b in zip(mpb.lower, cub.lower):
            assert np.array_equal(a, b)
        for a, b in zip(mpb.upper, cub.upper):
            assert np.array_equal(a, b)

    def test_component_radii_below_simultaneous(self, instance):
        ds, split, model, s = instance
        alpha = 0.25
        pred = calibrate(ds, split, model, s, alpha)
        radii = cub_radii(ds, split, model, s, alpha)
        assert np.all(radii <= pred.radius)
        for arr in pointwise_radii(ds, split, model, s, alpha):
            assert np.all(arr <= pred.radius)

    def test_superset_chain(self, instance):
        ds, split, model, s = instance
        alpha = 0.25
        pred = calibrate(ds, split, model, s, alpha)
        x = ds.covariates(4)
        mpb = make_band(pred, x)
        for other in (
            cub_band(ds, split, model, s, alpha, x),
            pointwise_band(ds, split, model, s, alpha, x),
        ):
            for lo, hi, blo, bhi in zip(other.lower, other.upper, mpb.lower, mpb.upper):
                assert np.all(lo >= blo) and np.all(hi <= bhi)

    def test_constant_residuals_pointwise_equals_cub(self, grid2):
        # All calibration residuals constant in t -> sup equals the pointwise
        # value, so both constructions coincide.
        from mfconformal import Dataset

        n = 12
        pairs = tuple(
            (
                Covariates(),
                MFCurve(tuple(np.full(c.size, float(k)) for c in grid2.components)),
            )
            for k in range(n)
        )
        ds = Dataset(grid=grid2, pairs=pairs)
        split = random_split(n, 5, seed=9)
        model = fit(ds, split.train_idx, RegressorSpec(kind="intercept_only"))
        s = s_const(grid2)
        x = Covariates()
        cub = cub_band(ds, split, model, s, 0.25, x)
        pw = pointwise_band(ds, split, model, s, 0.25, x)
        for a, b in zip(cub.lower + cub.upper, pw.lower + pw.upper):
            assert np.allclose(a, b, rtol=1e-12)

    def test_pointwise_single_calibration_curve(self, rng):
        grid = uniform_grid(15, p=2)
        ds = make_dataset(rng, grid, 6)
        split = random_split(6, 1, seed=1)
        model = fit(ds, split.train_idx, RegressorSpec(kind="intercept_only"))
        s = s_const(grid)
        pw = pointwise_radii(ds, split, model, s, 0.5)
        res = residuals(model, ds, split.calib_idx)
        for arr, rv, f in zip(pw, res, s.fns):
            assert np.allclose(arr, np.abs(rv[0]) / f, rtol=1e-12)


class TestStructuralProperties:
    def test_scaling_invariance(self, instance):
        ds, split, model, s = instance
        alpha = 0.25
        base = calibrate(ds, split, model, s, alpha)
        x = ds.covariates(5)
        ref = make_band(base, x)
        for lam in (0.1, 3.0, 17.0):
            scaled = calibrate(ds, split, model, s.scale(lam), alpha)
            assert scaled.radius == pytest.approx(base.radius / lam, rel=1e-12)
            band = make_band(scaled, x)
            for a, b in zip(band.lower + band.upper, ref.lower + ref.upper):
                assert np.allclose(a, b, atol=1e-10)

    def test_nesting_in_alpha(self, instance):
        ds, split, model, s = instance
        x = ds.covariates(6)
        wide = make_band(calibrate(ds, split, model, s, 0.10), x)
        narrow = make_band(calibrate(ds, split, model, s, 0.40), x)
        for lo, hi, wlo, whi in zip(narrow.lower, narrow.upper, wide.lower, wide.upper):
            assert np.all(lo >= wlo) and np.all(hi <= whi)

    def test_smoothed_tau_one_matches_split_fieldwise(self, instance):
        ds, split, model, s = instance
        split_pred = calibrate(ds, split, model, s, 0.25, mode="split")
        smooth_pred = calibrate(ds, split, model, s, 0.25, mode="smoothed", tau=1.0)
        assert smooth_pred.radius == split_pred.radius
        assert smooth_pred.closure == split_pred.closure == "closed"
        assert smooth_pred.infinite == split_pred.infinite == False  # noqa: E712


class TestEstimatorExtensionPoint:
    def test_custom_estimator_plugs_in(self, rng):
        # Anything exposing .grid and .predict(x) -> MFCurve can back a band.
        grid = uniform_grid(20, p=2)
        ds = make_dataset(rng, grid, 14)

        class MedianPredictor:
            def __init__(self, grid, curves):
                self.grid = grid
                self._median = tuple(
                    np.median(np.stack([c.values[j] for c in curves]), axis=0)
                    for j in range(grid.p)
                )

            def predict(self, x):
                return MFCurve(self._median)

        split = random_split(14, 6, seed=4)
        model = MedianPredictor(grid, [ds.curve(i) for i in split.train_idx])
        s = s_const(grid)
        pred = calibrate(ds, split, model, s, 0.25)
        band = make_band(pred, ds.covariates(0))
        assert contains(band, predict(model, ds.covariates(0)))
        assert band_size(pred) == pytest.approx(2 * pred.radius)

    def test_infeasible_alpha_gives_infinite_cub_and_pointwise(self, instance):
        ds, split, model, s = instance  # l = 11
        x = ds.covariates(0)
        for builder in (cub_band, pointwise_band):
            band = builder(ds, split, model, s, 0.05, x)  # alpha < 1/12
            assert band.infinite
            assert contains(band, ds.curve(0))

    def test_cub_and_pointwise_radii_refuse_alpha_below_the_feasibility_bound(
            self, instance):
        ds, split, model, s = instance  # l = 11
        for radii in (cub_radii, pointwise_radii):
            with pytest.raises(ValueError, match=r"^alpha=0\.05 is below the lower "
                               r"feasibility bound: it needs alpha >= 1/\(l\+1\) = "
                               r"0\.0833333$"):
                radii(ds, split, model, s, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_cub_and_pointwise_refuse_alpha_outside_the_unit_interval(self, instance, alpha):
        # Before, alpha >= 1 gave a rank below 1 that indexed the sorted
        # scores from the end: radii smaller than at alpha = 0.5.
        ds, split, model, s = instance
        x = ds.covariates(0)
        for call in (lambda: cub_radii(ds, split, model, s, alpha),
                     lambda: pointwise_radii(ds, split, model, s, alpha),
                     lambda: cub_band(ds, split, model, s, alpha, x),
                     lambda: pointwise_band(ds, split, model, s, alpha, x)):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("fault", ["short component", "missing component"])
    def test_foreign_estimator_curves_are_checked_against_its_grid(self, instance, fault):
        # Before, predict returned such a curve unchecked, residuals and
        # calibrate raised numpy's broadcast error (IndexError for the
        # missing component) and make_band built a band of one component.
        ds, split, model, s = instance
        x = ds.covariates(0)
        curve = predict(model, x).values
        curve = (curve[0][:-1], curve[1]) if fault == "short component" else curve[:1]

        class FixedPredictor:
            grid = model.grid

            def predict(self, x):
                return MFCurve(curve)

        bad = FixedPredictor()
        pred = conformal.BandPredictor(model=bad, modulation=s, radius=1.0,
                                       closure="closed", alpha=0.25, mode="split")
        for call in (lambda: predict(bad, x),
                     lambda: residuals(bad, ds, split.calib_idx),
                     lambda: calibrate(ds, split, bad, s, 0.25),
                     lambda: make_band(pred, x)):
            with pytest.raises(ShapeError, match="^predicted curve components have shapes"):
                call()

    def test_model_and_modulation_on_another_grid_are_refused(self, instance, rng):
        # Before, each call raised numpy's broadcast error.
        ds, split, model, s = instance  # a 40-point grid
        other = uniform_grid(50, p=2)
        spec = RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",)))
        foreign_fit = fit(make_dataset(rng, other, 30), split.train_idx, spec)
        for call in (lambda: residuals(foreign_fit, ds, split.calib_idx),
                     lambda: calibrate(ds, split, foreign_fit, s_const(other), 0.25)):
            with pytest.raises(ShapeError, match="^model and dataset grids differ$"):
                call()
        for call in (lambda: calibrate(ds, split, model, s_const(other), 0.25),
                     lambda: cub_band(ds, split, model, s_const(other), 0.25, ds.covariates(0)),
                     lambda: calibration_scores(ds, split, model, s_const(other))):
            with pytest.raises(ShapeError, match="^model and modulation grids differ$"):
                call()


class TestRaggedGrids:
    def test_components_with_different_grids(self, rng):
        # Each component may live on its own domain and resolution.
        from mfconformal import ComponentGrid, Dataset, Grid

        grid = Grid(
            (
                ComponentGrid.from_points(np.linspace(0, 1, 30)),
                ComponentGrid.from_points(np.linspace(0, 2, 17)),
            )
        )
        pairs = []
        for i in range(15):
            w = (i + 1) / 16
            pairs.append(
                (
                    Covariates(scalar={"w": w}),
                    MFCurve(
                        (
                            w + 0.2 * rng.normal(size=30),
                            2 * w + 0.4 * rng.normal(size=17),
                        )
                    ),
                )
            )
        ds = Dataset(grid=grid, pairs=tuple(pairs))
        split = random_split(15, 6, seed=1)
        model = fit(
            ds, split.train_idx,
            RegressorSpec(kind="concurrent_fos", terms=(("w",), ("w",))),
        )
        s = s_sigma(residuals(model, ds, split.train_idx), grid)
        pred = calibrate(ds, split, model, s, 0.25)
        x = Covariates(scalar={"w": 0.5})
        band = make_band(pred, x)
        assert [b.shape for b in band.lower] == [(30,), (17,)]
        assert band_size(pred) == pytest.approx(2 * pred.radius, rel=1e-12)
        mpb, cub, pw = (
            band,
            cub_band(ds, split, model, s, 0.25, x),
            pointwise_band(ds, split, model, s, 0.25, x),
        )
        for other in (cub, pw):
            for lo, hi, blo, bhi in zip(other.lower, other.upper, mpb.lower, mpb.upper):
                assert np.all(lo >= blo) and np.all(hi <= bhi)
