"""The stacked replication path against the per-replication one.

``harness._replication_batch`` runs the replications of every cell as
stacked arrays through ``harness._stacked``, and a stack with a fault again
as stacks of one. Its records must equal those of the reference
``conftest.replication``, which runs each replication through the public
objects, compared by ``repr``, whatever the stack size, the worker count or
where failures fall; so must the message of every fault. Whether a stacked
stage equals its per-replication form bit for bit depends on the BLAS
kernels, so CI runs this module under the default kernels as well as under
``OPENBLAS_CORETYPE=Haswell``.
"""

import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import failing_replications, per_replication, stacked_calls
from mfconformal import (
    ScenarioSpec,
    StudyConfig,
    conformal,
    harness,
    modulate,
    regress,
    run_study,
)
from mfconformal.conformal import EmptyBandError, _calibrated
from mfconformal.core import MFConformalError
from mfconformal.modulate import _kept_max
from mfconformal.regress import SingularDesignError

CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
VARIANTS = [("sigma", "split", "mpb"), ("sbar", "smoothed", "mpb"),
            ("s0", "split", "cub")]


def outcome(cfg: StudyConfig) -> str:
    """The report of ``run_study(cfg)`` with its records, or the message of
    the ReplicationError it raised."""
    try:
        return repr(run_study(cfg))
    except harness.ReplicationError as exc:
        return f"ReplicationError: {exc}"


@st.composite
def cells(draw):
    study, scenario = draw(st.sampled_from(CELLS))
    n = draw(st.sampled_from([20, 40]))
    mode = draw(st.sampled_from(["split", "smoothed"]))
    method = "mpb" if mode == "smoothed" else draw(st.sampled_from(["mpb", "cub"]))
    spec = ScenarioSpec(
        study=study, scenario=scenario, n=n,
        covariate_set=draw(st.integers(1, 3)),
        coeff_seed=draw(st.integers(0, 3)),
        grid_points=draw(st.sampled_from([20, 50])),
        error_scale=draw(st.sampled_from([1.0, 1.0, 0.0])),
    )
    n_reps = draw(st.integers(1, 12))
    return StudyConfig(
        scenario=spec,
        l=draw(st.one_of(st.integers(2, n - 3), st.just(n - 3))),
        n_reps=n_reps,
        alpha=draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.9])),
        modulation=draw(st.sampled_from(["s0", "sigma", "sbar"])),
        mode=mode,
        method=method,
        master_seed=draw(st.integers(0, 2**32)),
        workers=draw(st.sampled_from([1, 1, 2])),
        keep_records=True,
        skip_failures=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=cells(), data=st.data())
def test_stacked_records_equal_per_replication_records(cfg, data):
    spec = cfg.scenario
    per_rep = (spec.n + 1) * 2 * spec.grid_points * 8
    stack = data.draw(st.integers(1, cfg.n_reps + 1), label="stack size")
    failing = data.draw(st.sets(st.integers(0, cfg.n_reps - 1), max_size=3),
                        label="failing replications")
    with failing_replications(failing, "stacked"):
        with mock.patch.object(harness, "STACK_BYTES", stack * per_rep):
            assert harness._stack_size(cfg) == stack
            got = outcome(cfg)
        with per_replication():
            want = outcome(cfg)
    assert got == want


def from_harness() -> bool:
    """Whether the caller of the calling function is harness code, which
    only the stacked path is: the public path reaches the rules from the
    modules that own them."""
    return sys._getframe(2).f_globals["__name__"] == harness.__name__


def refusing(module, name, error, at):
    """Patch ``module.name`` to raise ``error`` when the harness calls it on
    a stack for which ``at()`` is not None."""
    real = getattr(module, name)

    def rule(*args, **kwargs):
        if from_harness() and at() is not None:
            raise error(f"{name} refused the stack")
        return real(*args, **kwargs)

    return mock.patch.object(module, name, rule)


def poisoning(module, name, at):
    """Patch ``module.name`` so that, when the harness calls it on a stack
    for which ``at()`` is not None, its result has a NaN in the first block
    at that position of the stack."""
    real = getattr(module, name)

    def stage(*args, **kwargs):
        out = real(*args, **kwargs)
        if from_harness() and at() is not None:
            first = out[0] if isinstance(out, list) else out
            first[(at(),) + (0,) * (first.ndim - 1)] = np.nan
        return out

    return mock.patch.object(module, name, stage)


# The one replication of the cell that the rule refuses.
CHOSEN = 2

# Each rule that _stacked shares with the public path: how to make it refuse
# the stacks that hold replication CHOSEN, the cell variant that reaches it,
# and the message it refuses with. The four finiteness checks see real
# NaNs; a rule called once is patched to raise the error type it raises
# itself.
RULES = {
    "responses finite": (lambda at: failing_replications({CHOSEN}, "stacked"),
                         ("sigma", "split", "mpb"),
                         "responses component 0 contains non-finite entries"),
    "held-out curve finite": (
        lambda at: failing_replications({CHOSEN}, "stacked", held_out=True),
        ("sigma", "split", "mpb"), "curve component 0 contains non-finite entries"),
    "coefficients finite": (lambda at: poisoning(regress, "_solve", at),
                            ("s0", "split", "mpb"),
                            "coefficient component 0 contains non-finite entries"),
    "scores finite": (lambda at: poisoning(conformal, "_modulated", at),
                      ("s0", "split", "mpb"),
                      "scores contains non-finite entries"),
    "design rank": (lambda at: refusing(regress, "_solve", SingularDesignError, at),
                    ("s0", "split", "cub"), "_solve refused the stack"),
    "sigma": (lambda at: refusing(modulate, "_sigma_fns", ValueError, at),
              ("sigma", "split", "mpb"), "_sigma_fns refused the stack"),
    "sbar": (lambda at: refusing(modulate, "_sbar_fns", ValueError, at),
             ("sbar", "smoothed", "mpb"), "_sbar_fns refused the stack"),
    "modulation rule, sigma": (lambda at: refusing(modulate, "_checked", ValueError, at),
                               ("sigma", "split", "mpb"), "_checked refused the stack"),
    "modulation rule, sbar": (lambda at: refusing(modulate, "_checked", ValueError, at),
                              ("sbar", "split", "mpb"), "_checked refused the stack"),
    "calibration": (lambda at: refusing(conformal, "_calibrated", EmptyBandError, at),
                    ("sigma", "smoothed", "mpb"), "_calibrated refused the stack"),
    "split closure": (lambda at: refusing(conformal, "_split_closed", ValueError, at),
                      ("sigma", "split", "mpb"), "_split_closed refused the stack"),
    "band size": (lambda at: refusing(conformal, "_band_size", MFConformalError, at),
                  ("s0", "split", "mpb"), "_band_size refused the stack"),
    "band size, cub": (lambda at: refusing(conformal, "_band_size", MFConformalError, at),
                       ("s0", "split", "cub"), "_band_size refused the stack"),
    "bounds": (lambda at: refusing(conformal, "_bounds", ValueError, at),
               ("s0", "split", "cub"), "_bounds refused the stack"),
}


@pytest.mark.parametrize("skip_failures", [False, True])
@pytest.mark.parametrize("rule", RULES)
def test_each_shared_rule_refuses_a_stack(rule, skip_failures):
    patch, (modulation, mode, method), message = RULES[rule]
    spec = ScenarioSpec(study=1, scenario=1, n=20, coeff_seed=1)
    cfg = StudyConfig(scenario=spec, l=9, n_reps=5, modulation=modulation,
                      mode=mode, method=method, master_seed=4,
                      keep_records=True, skip_failures=skip_failures)
    with per_replication():
        want = list(run_study(cfg).records)
    with stacked_calls() as calls:
        def at():
            return calls[-1].index(CHOSEN) if CHOSEN in calls[-1] else None

        with patch(at):
            got = outcome(cfg)
    # The one stack faults and runs again as stacks of one, up to the fault
    # unless failures are skipped.
    reps = list(range(cfg.n_reps))
    assert calls == [reps] + [[r] for r in reps[:None if skip_failures else CHOSEN + 1]]
    if skip_failures:
        want[CHOSEN] = harness.ReplicationRecord(CHOSEN, None, None, False)
        assert "n_failed=1," in got and got.endswith(f"records={tuple(want)!r})")
    else:
        assert got == f"ReplicationError: replication {CHOSEN} failed: {message}"


@pytest.mark.parametrize("skip_failures", [False, True])
@pytest.mark.parametrize("modulation", ["s0", "sigma", "sbar"])
@pytest.mark.parametrize("covariate_set,l", [(1, 19), (3, 19), (3, 18)])
def test_stacks_with_too_few_training_rows(covariate_set, l, modulation,
                                           skip_failures):
    # m = n - l training rows: sigma needs m >= 2, and covariate set 3 fits
    # q = 3 columns (intercept, w, w2).
    spec = ScenarioSpec(study=1, scenario=1, n=20, covariate_set=covariate_set,
                        coeff_seed=5)
    cfg = StudyConfig(scenario=spec, l=l, n_reps=6, modulation=modulation,
                      master_seed=12, keep_records=True,
                      skip_failures=skip_failures)
    got = outcome(cfg)
    with per_replication():
        assert got == outcome(cfg)


# Error scales at which the responses, the residuals, the modulation or
# the band overflow in some replications or all of them: exp(y) overflows
# above about 709 in study 1, scenario 2.
@pytest.mark.parametrize("skip_failures", [False, True])
@pytest.mark.parametrize("modulation,mode,method", VARIANTS)
@pytest.mark.parametrize("scenario,error_scale", [
    (1, 3e153), (1, 1e307), (1, 2e307), (1, 1.5e308), (2, 300.0), (2, 710.0)])
def test_overflowing_stacks_fail_as_the_reference_does(
        scenario, error_scale, modulation, mode, method, skip_failures):
    spec = ScenarioSpec(study=1, scenario=scenario, n=20, coeff_seed=1,
                        grid_points=30, error_scale=error_scale)
    cfg = StudyConfig(scenario=spec, l=9, n_reps=8, modulation=modulation,
                      mode=mode, method=method, master_seed=3,
                      keep_records=True, skip_failures=skip_failures)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = outcome(cfg)
        with per_replication():
            assert got == outcome(cfg)


def test_an_overflowing_cub_band_size_fails_its_replication():
    # The cub bounds stay finite, but the band area overflows from
    # replication 2 on; no size is left as inf.
    spec = ScenarioSpec(study=1, scenario=1, n=20, coeff_seed=1,
                        grid_points=30, error_scale=2e307)
    cfg = StudyConfig(scenario=spec, l=9, n_reps=5, modulation="s0",
                      method="cub", master_seed=3)
    assert outcome(cfg) == ("ReplicationError: replication 2 failed: "
                            "band size overflows: quadrature gives inf")
    report = run_study(replace(cfg, skip_failures=True))
    assert report.n_failed == 3
    assert np.isfinite([report.size_q1, report.size_median, report.size_q3]).all()


def stacks(cfg: StudyConfig) -> list[list[int]]:
    """The stacks ``harness._replication_batch`` runs ``cfg`` in when no
    stack faults: each once, none split again."""
    size, reps = harness._stack_size(cfg), list(range(cfg.n_reps))
    return [reps[i : i + size] for i in range(0, cfg.n_reps, size)]


# Study 3 fits its own regressor whatever the covariate set; in studies 1
# and 2, set 1 fits one column (intercept) and set 3 three.
@pytest.mark.parametrize("modulation,mode,method", VARIANTS)
@pytest.mark.parametrize("study,scenario,covariate_set", [
    (study, scenario, covariate_set) for study, scenario in CELLS
    for covariate_set in ((1, 2, 3) if study < 3 else (2,))])
@pytest.mark.parametrize("n", [200, 2000])
def test_large_cells_stack_to_the_per_replication_records(
        n, study, scenario, covariate_set, modulation, mode, method):
    spec = ScenarioSpec(study=study, scenario=scenario, n=n,
                        covariate_set=covariate_set, coeff_seed=3)
    cfg = StudyConfig(scenario=spec, l=n // 2 - 1, n_reps=2,
                      modulation=modulation, mode=mode, method=method,
                      master_seed=n + 10 * study + scenario, keep_records=True)
    with per_replication():
        want = repr(run_study(cfg))
    per_rep = (n + 1) * 2 * spec.grid_points * 8
    for stack in (1, 2):
        with mock.patch.object(harness, "STACK_BYTES", stack * per_rep), \
                stacked_calls() as calls:
            assert harness._stack_size(cfg) == stack
            assert repr(run_study(cfg)) == want
            assert calls == stacks(cfg)


@pytest.mark.parametrize("study,scenario,l,alpha,modulation,mode,method", [
    # s_bar's trimming rank falls below 1 for tau <= 0.6: s_const there.
    (3, 3, 17, 0.9, "sbar", "smoothed", "mpb"),
    # Infinite for tau > 0.6 only, and below 1/(l+1) for every replication.
    (1, 1, 9, 0.06, "sigma", "smoothed", "mpb"),
    (1, 1, 9, 0.05, "sigma", "split", "mpb"),
    (2, 3, 9, 0.05, "s0", "split", "cub"),
])
def test_stacks_without_a_fault_need_no_rerun(study, scenario, l, alpha,
                                              modulation, mode, method):
    spec = ScenarioSpec(study=study, scenario=scenario, n=20, coeff_seed=2)
    cfg = StudyConfig(scenario=spec, l=l, n_reps=30, alpha=alpha,
                      modulation=modulation, mode=mode, method=method,
                      master_seed=9, keep_records=True)

    with stacked_calls() as calls:
        got = run_study(cfg)
    with per_replication():
        want = run_study(cfg)
    assert calls == stacks(cfg)
    assert repr(got) == repr(want)
    assert got.n_infinite in ((0, 30) if alpha != 0.06 else range(1, 30))


def test_small_and_large_cells_are_stacked():
    def cell(n):
        spec = ScenarioSpec(study=1, scenario=1, n=n, coeff_seed=7)
        return StudyConfig(scenario=spec, l=n // 2 - 1, n_reps=20 if n == 20 else 2)

    small, large = cell(20), cell(2000)
    assert len(stacks(small)) < small.n_reps and harness._stack_size(large) == 1
    with stacked_calls() as calls:
        run_study(small)
        assert calls == stacks(small)
        run_study(large)
        assert calls == stacks(small) + [[0], [1]]


@pytest.mark.parametrize("mode", ["split", "smoothed"])
def test_rank_selection_of_a_stack_is_that_of_each_row(mode):
    # Scores from a few values, so that ties around the selected rank are
    # common; every row of a stack must select as it does alone.
    rng = np.random.default_rng(5)
    l, alpha = 19, 0.2
    srt = np.sort(rng.integers(0, 4, (200, l)).astype(float), axis=-1)
    tau = np.ones(200) if mode == "split" else rng.uniform(size=200)
    radius, closed, infinite = _calibrated(srt, alpha, tau)
    assert not infinite.any()
    for row, t, r, c in zip(srt, tau, radius, closed):
        alone = _calibrated(row, alpha, float(t))
        assert r == alone[0] and c == alone[1]
    if mode == "split":
        assert closed.all()  # split mode (tau = 1) is always closed
    else:
        assert closed.any() and not closed.all()


def test_kept_envelope_of_a_stack_is_that_of_each_replication():
    rng = np.random.default_rng(6)
    res = [rng.integers(-3, 4, (50, 11, 8)).astype(float) for _ in range(2)]
    rank = rng.integers(1, 14, 50)  # some above the count: keep every curve
    stacked = _kept_max(res, rank)
    for r in range(50):
        alone = _kept_max([b[r] for b in res], int(rank[r]))
        assert all(np.array_equal(s[r], a) for s, a in zip(stacked, alone))
