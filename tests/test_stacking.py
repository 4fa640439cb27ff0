"""The stacked replication path against the per-replication one.

``harness._replication_batch`` runs the replications of every cell as
stacked arrays. Its records must equal those of ``harness._replication``,
compared by ``repr``, whatever the stack size, the worker count or where
failures fall. Whether a stacked stage equals its per-replication form bit
for bit depends on the BLAS kernels, so CI runs this module under the
default kernels as well as under ``OPENBLAS_CORETYPE=Haswell``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import failing_replications, per_replication
from mfconformal import ScenarioSpec, StudyConfig, harness, run_study
from mfconformal.conformal import _selected
from mfconformal.core import _feasible_rank
from mfconformal.modulate import _kept_max

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


def rerun(cfg, rep):
    raise AssertionError(f"replication {rep} was run again on its own")


@pytest.mark.parametrize("modulation,mode,method", VARIANTS)
@pytest.mark.parametrize("study,scenario", CELLS)
@pytest.mark.parametrize("n", [200, 2000])
def test_large_cells_stack_to_the_per_replication_records(
        n, study, scenario, modulation, mode, method):
    spec = ScenarioSpec(study=study, scenario=scenario, n=n, coeff_seed=3)
    cfg = StudyConfig(scenario=spec, l=n // 2 - 1, n_reps=2,
                      modulation=modulation, mode=mode, method=method,
                      master_seed=n + 10 * study + scenario, keep_records=True)
    with per_replication():
        want = repr(run_study(cfg))
    per_rep = (n + 1) * 2 * spec.grid_points * 8
    for stack in (1, 2):
        with mock.patch.object(harness, "STACK_BYTES", stack * per_rep), \
                mock.patch.object(harness, "_replication", rerun):
            assert harness._stack_size(cfg) == stack
            assert repr(run_study(cfg)) == want


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

    with mock.patch.object(harness, "_replication", rerun):
        got = run_study(cfg)
    with per_replication():
        want = run_study(cfg)
    assert repr(got) == repr(want)
    assert got.n_infinite in ((0, 30) if alpha != 0.06 else range(1, 30))


def test_small_and_large_cells_are_stacked():
    calls = {"stacked": 0, "replication": 0}
    real_stacked, real_replication = harness._stacked, harness._replication

    def stacked(cfg, reps):
        calls["stacked"] += 1
        return real_stacked(cfg, reps)

    def replication(cfg, rep):
        calls["replication"] += 1
        return real_replication(cfg, rep)

    def cell(n):
        spec = ScenarioSpec(study=1, scenario=1, n=n, coeff_seed=7)
        return StudyConfig(scenario=spec, l=n // 2 - 1, n_reps=20 if n == 20 else 2)

    small, large = cell(20), cell(2000)
    stacks = -(-small.n_reps // harness._stack_size(small))
    assert stacks < small.n_reps and harness._stack_size(large) == 1
    with mock.patch.object(harness, "_stacked", stacked), \
            mock.patch.object(harness, "_replication", replication):
        run_study(small)
        assert calls == {"stacked": stacks, "replication": 0}
        run_study(large)
        assert calls == {"stacked": stacks + large.n_reps, "replication": 0}


@pytest.mark.parametrize("mode", ["split", "smoothed"])
def test_rank_selection_of_a_stack_is_that_of_each_row(mode):
    # Scores from a few values, so that ties around the selected rank are
    # common; every row of a stack must select as it does alone.
    rng = np.random.default_rng(5)
    l, alpha = 19, 0.2
    srt = np.sort(rng.integers(0, 4, (200, l)).astype(float), axis=-1)
    tau = np.ones(200) if mode == "split" else rng.uniform(size=200)
    rank = np.array([_feasible_rank(l, alpha, t)[0] for t in tau])
    radius, closed = _selected(srt, rank, alpha, tau)
    for row, k, t, r, c in zip(srt, rank, tau, radius, closed):
        assert (r, c) == _selected(row, int(k), alpha, float(t))
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
