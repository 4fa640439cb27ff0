"""End-to-end acceptance checks.

Each test prints one PASS line with the measured quantities; tolerances are
pinned in the assertions. Run with ``pytest -s tests/test_acceptance.py`` to
see the lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfconformal import (
    ScenarioSpec,
    Scores,
    StudyConfig,
    calibrate,
    calibrate_smoothed,
    calibrate_split,
    calibration_scores,
    contains,
    cub_band,
    fit,
    make_band,
    p_value,
    pointwise_band,
    predict,
    random_split,
    run_study,
    s_bar_c,
    score,
    theoretical_coverage,
)
from mfconformal.conformal import EmptyBandError, cub_radii, pointwise_radii
from mfconformal.core import _SNAP_TOL, MFCurve
from mfconformal.modulate import TrimConfig, make_modulation, trimmed_envelope
from mfconformal.regress import residuals
from mfconformal.simgen import generate, regressor_for


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _study1_config(covariate_set=2, l=9, mode="split", n_reps=2000, seed=101):
    scenario = ScenarioSpec(
        study=1, scenario=1, n=20, covariate_set=covariate_set, coeff_seed=7
    )
    return StudyConfig(
        scenario=scenario,
        l=l,
        n_reps=n_reps,
        alpha=0.10,
        modulation="sigma",
        mode=mode,
        master_seed=seed,
    )


def _random_instance(gen, studies=(1, 2, 3)):
    """One random fitted split-conformal instance for the structural checks."""
    study = int(gen.choice(studies))
    top = 2 if study == 1 else 3
    scenario = int(gen.integers(1, top + 1))
    n = 20
    spec = ScenarioSpec(
        study=study,
        scenario=scenario,
        n=n,
        covariate_set=int(gen.integers(1, 4)),
        coeff_seed=int(gen.integers(100000)),
        seed=int(gen.integers(100000)),
        grid_points=60,
    )
    dataset, (x_new, y_new) = generate(spec)
    l = int(gen.integers(9, 15))
    alpha = float(gen.choice([0.10, 0.25]))
    split = random_split(n, l, seed=int(gen.integers(100000)))
    model = fit(dataset, split.train_idx, regressor_for(spec))
    label = str(gen.choice(["s0", "sigma", "sbar"]))
    train_res = residuals(model, dataset, split.train_idx)
    s = make_modulation(label, train_res, dataset.grid, TrimConfig(alpha=alpha))
    return dataset, split, model, s, alpha, x_new, y_new


def test_criterion_1_exact_split_coverage():
    t0 = time.time()
    rep = run_study(_study1_config())
    elapsed = time.time() - t0
    ok = abs(rep.coverage - 0.90) <= 0.021 and elapsed < 120
    _report(1, ok, f"coverage {rep.coverage:.4f} in 0.90+-0.021, {elapsed:.1f}s")
    assert abs(rep.coverage - 0.90) <= 0.021
    assert elapsed < 120


def test_criterion_2_coverage_under_misspecification():
    covs = {}
    for cov_set in (1, 3):
        rep = run_study(_study1_config(covariate_set=cov_set, seed=202 + cov_set))
        covs[cov_set] = rep.coverage
    ok = all(abs(c - 0.90) <= 0.021 for c in covs.values())
    _report(2, ok, f"set1 {covs[1]:.4f}, set3 {covs[3]:.4f}, both in 0.90+-0.021")
    for c in covs.values():
        assert abs(c - 0.90) <= 0.021


def test_criterion_3_non_round_calibration_size():
    rep = run_study(_study1_config(l=10, seed=303))
    target = 10 / 11
    tol = 3 * math.sqrt(target * (1 - target) / 2000)
    ok = abs(rep.coverage - target) <= tol
    _report(3, ok, f"coverage {rep.coverage:.4f} in {target:.4f}+-{tol:.4f}")
    assert rep.theoretical_coverage == pytest.approx(target, abs=1e-12)
    assert abs(rep.coverage - target) <= tol


def test_criterion_4_smoothed_exactness():
    rep = run_study(_study1_config(l=10, mode="smoothed", seed=404))
    tol = 3 * math.sqrt(0.9 * 0.1 / 2000)
    ok = abs(rep.coverage - 0.90) <= tol
    _report(4, ok, f"smoothed coverage {rep.coverage:.4f} in 0.90+-{tol:.4f}")
    assert abs(rep.coverage - 0.90) <= tol


# Exact finite-sample checks. With the fit held fixed, exchangeability makes
# every one of the l+1 pooled scores equally likely to be the test point, so
# enumerating those choices gives the coverage exactly, with no Monte Carlo
# error. Membership is read off the calibrator's radius and closure.


@st.composite
def _level(draw, max_l=30):
    """(l, alpha) with alpha at k/(l+1), one ulp either side of it, scaled
    just outside (1 - 3e-9) or inside (1 - 5e-10) the rank rule's snapping
    tolerance, or anywhere in (0, 1)."""
    l = draw(st.integers(1, max_l))
    base = draw(st.integers(1, l)) / (l + 1)
    alpha = draw(
        st.sampled_from(
            [
                base,
                math.nextafter(base, 0.0),
                math.nextafter(base, 1.0),
                base * (1 - 3e-9),
                base * (1 - 5e-10),
            ]
        )
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    )
    return l, alpha


def _pooled_scores(draw, size, ties):
    if ties:  # duplicated curves give duplicated scores
        values = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    else:
        values = draw(st.permutations(range(size)))
    return np.array(values, dtype=float)


def _inside(pooled, j, calibrate):
    """Whether pooled score j falls in the band that ``calibrate`` builds
    from the other scores."""
    try:
        cal = calibrate(Scores(np.delete(pooled, j)))
    except EmptyBandError:
        return False
    if cal.infinite:
        return True
    if cal.closure == "closed":
        return bool(pooled[j] <= cal.radius)
    return bool(pooled[j] < cal.radius)


def _covered(pooled, calibrate):
    return sum(_inside(pooled, j, calibrate) for j in range(pooled.size))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_exact_split_coverage_over_test_point_choices(data):
    l, alpha = data.draw(_level(max_l=60))
    ties = data.draw(st.booleans())
    pooled = _pooled_scores(data.draw, l + 1, ties)
    count = _covered(pooled, lambda sc: calibrate_split(sc, alpha))
    # ceil((l+1)(1-alpha)) when there are no ties; ties can only add hits.
    expected = theoretical_coverage(l, alpha) * (l + 1)
    if ties:
        assert count >= round(expected)
    else:
        assert count == pytest.approx(expected, abs=1e-9)


def _resolved_level(l, alpha):
    """alpha as the rank rule reads it: k/(l+1) when (l+1)*alpha lies within
    the relative snapping tolerance of an integer k, else exactly alpha."""
    x = Fraction(alpha) * (l + 1)
    k = round(x)
    if abs(x - k) <= Fraction(_SNAP_TOL) * max(1, x):
        return Fraction(k, l + 1)
    return Fraction(alpha)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_smoothed_coverage_integrated_over_tau(data):
    l, alpha = data.draw(_level(max_l=25))
    pooled = _pooled_scores(data.draw, l + 1, data.draw(st.booleans()))
    level = _resolved_level(l, alpha)
    # The smoothed p-value of score j, (#greater + tau * #equal) / (l+1),
    # exceeds the level exactly for tau above
    # crossing_j = ((l+1) level - #greater) / #equal, so the band must take
    # score j in there and only there. Checked on both sides of each
    # crossing; 1e-7 is wider than the float and snapping slack of the
    # calibrator's threshold.
    near = Fraction(1, 10**7)

    def at(tau):
        return lambda sc: calibrate_smoothed(sc, alpha, float(tau))

    crossings = []
    for j, v in enumerate(pooled):
        greater = int(np.count_nonzero(pooled > v))
        equal = int(np.count_nonzero(pooled == v))
        crossing = ((l + 1) * level - greater) / equal
        crossings.append(min(max(crossing, Fraction(0)), Fraction(1)))
        for tau, inside in ((crossing - near, False), (crossing + near, True)):
            if 0 <= tau <= 1:
                assert _inside(pooled, j, at(tau)) == inside
    # Coverage is then piecewise constant in tau between crossings: read it
    # at each piece's midpoint and integrate exactly.
    cuts = sorted({Fraction(0), Fraction(1), *crossings})
    total = sum(
        (hi - lo) * _covered(pooled, at((lo + hi) / 2)) for lo, hi in zip(cuts, cuts[1:])
    )
    assert total / (l + 1) == 1 - level


def test_criterion_5_cub_undercoverage():
    scenario = ScenarioSpec(
        study=2, scenario=1, n=200, covariate_set=3, coeff_seed=7
    )
    coverages = {}
    for method in ("cub", "mpb"):
        cfg = StudyConfig(
            scenario=scenario,
            l=99,
            n_reps=1000,
            alpha=0.10,
            modulation="sigma",
            method=method,
            master_seed=505,
        )
        coverages[method] = run_study(cfg).coverage
    ok = abs(coverages["cub"] - 0.81) <= 0.04 and abs(coverages["mpb"] - 0.90) <= 0.03
    _report(
        5,
        ok,
        f"CUB {coverages['cub']:.4f} in 0.81+-0.04, "
        f"MPB {coverages['mpb']:.4f} in 0.90+-0.03",
    )
    assert abs(coverages["cub"] - 0.81) <= 0.04
    assert abs(coverages["mpb"] - 0.90) <= 0.03


def test_criterion_6_size_dominates_calibration_envelope():
    gen = np.random.default_rng(606)
    checked = strict = 0
    for _ in range(500):
        scenario = int(gen.integers(1, 4))
        n = int(gen.choice([20, 40]))
        spec = ScenarioSpec(
            study=3,
            scenario=scenario,
            n=n,
            coeff_seed=int(gen.integers(100000)),
            seed=int(gen.integers(100000)),
            grid_points=60,
        )
        dataset, _ = generate(spec)
        l = int(gen.integers(9, 16))
        alpha = float(gen.choice([0.10, 0.25]))
        split = random_split(n, l, seed=int(gen.integers(100000)))
        model = fit(dataset, split.train_idx, regressor_for(spec))
        calib_res = residuals(model, dataset, split.calib_idx)
        cfg = TrimConfig(alpha=alpha)

        calib_curves = [MFCurve(tuple(b[i] for b in calib_res)) for i in range(l)]

        s0 = make_modulation("s0", calib_res, dataset.grid)
        k0 = calibrate_split(
            Scores(np.array([score(r, s0) for r in calib_curves])), alpha
        ).radius
        sc = s_bar_c(calib_res, dataset.grid, cfg)
        kc = calibrate_split(
            Scores(np.array([score(r, sc) for r in calib_curves])), alpha
        ).radius

        assert 2 * k0 >= 2 * kc, "constant-family band must not be smaller"
        env = trimmed_envelope(calib_res, dataset.grid, cfg)
        if any(float(e.max() - e.min()) > 1e-9 for e in env):
            assert 2 * k0 > 2 * kc, "strictness fails on a non-constant envelope"
            strict += 1
        checked += 1
    _report(6, True, f"{checked} instances, {strict} strict inequalities")
    assert checked == 500


def test_criterion_7_superset_chain():
    gen = np.random.default_rng(707)
    for _ in range(500):
        dataset, split, model, s, alpha, x_new, _ = _random_instance(gen)
        pred = calibrate(dataset, split, model, s, alpha)
        mpb = make_band(pred, x_new)
        for radii in (
            cub_radii(dataset, split, model, s, alpha),
            pointwise_radii(dataset, split, model, s, alpha),
        ):
            for arr in np.atleast_1d(radii):
                assert np.all(np.asarray(arr) <= pred.radius)
        for other in (
            cub_band(dataset, split, model, s, alpha, x_new),
            pointwise_band(dataset, split, model, s, alpha, x_new),
        ):
            for lo, hi, blo, bhi in zip(
                other.lower, other.upper, mpb.lower, mpb.upper
            ):
                assert np.all(lo >= blo) and np.all(hi <= bhi)
    _report(7, True, "pointwise and CUB bands inside MPB on 500 instances")


def test_criterion_8_scaling_invariance():
    gen = np.random.default_rng(808)
    worst = 0.0
    for _ in range(25):
        dataset, split, model, s, alpha, x_new, _ = _random_instance(gen)
        ref_band = make_band(calibrate(dataset, split, model, s, alpha), x_new)
        for lam in (0.1, 3.0, 17.0):
            band = make_band(
                calibrate(dataset, split, model, s.scale(lam), alpha), x_new
            )
            for a, b in zip(band.lower + band.upper, ref_band.lower + ref_band.upper):
                worst = max(worst, float(np.max(np.abs(a - b))))
    _report(8, worst <= 1e-10, f"max endpoint deviation {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_9_efficiency_ordering():
    medians = {}
    for scenario in (2, 3):
        for label in ("s0", "sigma", "sbar"):
            cfg = StudyConfig(
                scenario=ScenarioSpec(study=3, scenario=scenario, n=200, coeff_seed=7),
                l=99,
                n_reps=500,
                alpha=0.10,
                modulation=label,
                master_seed=909,
            )
            medians[(scenario, label)] = run_study(cfg).size_median
    s2 = {k[1]: v for k, v in medians.items() if k[0] == 2}
    s3 = {k[1]: v for k, v in medians.items() if k[0] == 3}
    ok2 = s2["sigma"] < s2["sbar"] < s2["s0"]
    ok3 = s3["sbar"] < min(s3["s0"], s3["sigma"])
    _report(
        9,
        ok2 and ok3,
        f"scn2 sigma {s2['sigma']:.4f} < sbar {s2['sbar']:.4f} < s0 {s2['s0']:.4f}; "
        f"scn3 sbar {s3['sbar']:.4f} < min(s0 {s3['s0']:.4f}, sigma {s3['sigma']:.4f})",
    )
    assert ok2 and ok3


def test_criterion_10_membership_pvalue_duality():
    gen = np.random.default_rng(1010)
    checks = 0
    for _ in range(50):
        dataset, split, model, s, alpha, x_new, y_new = _random_instance(gen)
        pred = calibrate(dataset, split, model, s, alpha)
        scores = calibration_scores(dataset, split, model, s)
        band = make_band(pred, x_new)
        yhat = predict(model, x_new)
        for _ in range(200):
            scale = float(gen.uniform(0.05, 2.5)) * pred.radius
            shift = gen.normal(scale=scale, size=3)
            pert = MFCurve(
                tuple(
                    v + shift[0] + shift[1] * f + shift[2] * gen.normal() * f
                    for v, f in zip(y_new.values, s.fns)
                )
            )
            resid = MFCurve(tuple(a - b for a, b in zip(pert.values, yhat.values)))
            member = contains(band, pert)
            dual = p_value(scores, score(resid, s)) > alpha
            assert member == dual
            checks += 1
    _report(10, True, f"{checks} membership/p-value agreements, exact")
    assert checks == 50 * 200


def test_criterion_11_envelope_convergence_trend():
    def envelope_distance(n, seed):
        spec = ScenarioSpec(
            study=1, scenario=1, n=n, covariate_set=2, coeff_seed=5, seed=seed
        )
        dataset, _ = generate(spec)
        split = random_split(n, n // 2, seed=(seed, 1))
        model = fit(dataset, split.train_idx, regressor_for(spec))
        cfg = TrimConfig(alpha=0.10)
        env_train = trimmed_envelope(
            residuals(model, dataset, split.train_idx), dataset.grid, cfg
        )
        env_calib = trimmed_envelope(
            residuals(model, dataset, split.calib_idx), dataset.grid, cfg
        )
        return max(
            float(np.max(np.abs(a - b))) for a, b in zip(env_train, env_calib)
        )

    sizes = (100, 200, 400, 800)
    medians = [
        float(np.median([envelope_distance(n, seed) for seed in range(50)]))
        for n in sizes
    ]
    ok = all(a >= b for a, b in zip(medians, medians[1:]))
    _report(
        11,
        ok,
        "median sup-distance "
        + " >= ".join(f"{m:.4f}" for m in medians)
        + f" across n={sizes}",
    )
    assert ok
