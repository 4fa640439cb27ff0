import os
import pathlib
import platform
import re
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from conftest import failing_replications, replication
from mfconformal import ScenarioSpec, StudyConfig, coverage_ci, run_study, size_quartiles
from mfconformal.harness import ReplicationError


def small_config(**overrides):
    scenario = ScenarioSpec(
        study=1, scenario=1, n=20, covariate_set=2, coeff_seed=7, grid_points=50
    )
    base = dict(scenario=scenario, l=9, n_reps=20, alpha=0.10,
                modulation="sigma", master_seed=3)
    base.update(overrides)
    return StudyConfig(**base)


class TestCoverageCI:
    def test_all_hits(self):
        assert coverage_ci(10, 10) == (1.0, 1.0, 1.0)

    def test_no_hits(self):
        assert coverage_ci(0, 10) == (0.0, 0.0, 0.0)

    def test_reproduces_published_interval_shape(self):
        # 4472/5000 rounds to the 0.894 [0.886, 0.903] pattern.
        p, lo, hi = coverage_ci(4472, 5000)
        assert round(p, 3) == 0.894
        assert round(lo, 3) == 0.886
        assert round(hi, 3) == 0.903

    def test_formula(self):
        p, lo, hi = coverage_ci(80, 100)
        half = 1.96 * np.sqrt(0.8 * 0.2 / 100)
        assert lo == pytest.approx(0.8 - half) and hi == pytest.approx(0.8 + half)

    def test_invalid(self):
        with pytest.raises(ValueError):
            coverage_ci(5, 0)
        with pytest.raises(ValueError):
            coverage_ci(11, 10)


class TestSizeQuartiles:
    def test_three_values_interpolated(self):
        assert size_quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)

    def test_constant(self):
        assert size_quartiles([4.2] * 7) == (4.2, 4.2, 4.2)

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(2)
        sizes = rng.uniform(0, 10, size=41)
        q1, med, q3 = size_quartiles(sizes)
        srt = np.sort(sizes)

        def rank_interp(q):
            pos = q * (srt.size - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            return srt[lo] * (1 - frac) + srt[min(lo + 1, srt.size - 1)] * frac

        assert q1 == pytest.approx(rank_interp(0.25))
        assert med == pytest.approx(rank_interp(0.50))
        assert q3 == pytest.approx(rank_interp(0.75))

    def test_empty(self):
        with pytest.raises(ValueError):
            size_quartiles([])


class TestRunStudy:
    def test_single_noiseless_replication(self):
        scenario = ScenarioSpec(
            study=1, scenario=1, n=20, covariate_set=1, coeff_seed=1,
            grid_points=50, error_scale=0.0,
        )
        cfg = StudyConfig(scenario=scenario, l=9, n_reps=1, alpha=0.10,
                          modulation="s0", master_seed=0)
        rep = run_study(cfg)
        assert rep.coverage in (0.0, 1.0)
        assert rep.size_median >= 0.0
        assert rep.n_reps == 1

    def test_theoretical_coverage_fields(self):
        rep = run_study(small_config(n_reps=2))
        assert rep.theoretical_coverage == 0.9
        rep = run_study(small_config(n_reps=2, l=10))
        assert rep.theoretical_coverage == pytest.approx(10 / 11)
        rep = run_study(small_config(n_reps=2, l=10, mode="smoothed"))
        assert rep.theoretical_coverage == pytest.approx(0.9)

    def test_parallel_equals_serial(self):
        serial = run_study(small_config(n_reps=16, workers=1, keep_sizes=True))
        parallel = run_study(small_config(n_reps=16, workers=2, keep_sizes=True))
        assert serial.hits == parallel.hits
        assert serial.sizes == parallel.sizes
        assert serial.coverage == parallel.coverage

    def test_grid_built_once_per_cell(self, monkeypatch):
        import mfconformal.core as core
        from mfconformal import simgen

        built = []
        real = core.ComponentGrid.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(core.ComponentGrid, "__post_init__", counting)
        simgen._grid.cache_clear()
        for cells, grid_points in enumerate((50, 30), start=1):
            scenario = replace(small_config().scenario, grid_points=grid_points)
            run_study(small_config(scenario=scenario, n_reps=20))
            assert len(built) == cells

    def test_deterministic_across_runs(self):
        a = run_study(small_config(n_reps=10, keep_sizes=True))
        b = run_study(small_config(n_reps=10, keep_sizes=True))
        assert a.sizes == b.sizes and a.hits == b.hits

    def test_size_equals_two_radius(self):
        cfg = small_config(n_reps=3, keep_sizes=True)
        rep = run_study(cfg)
        for rep_idx in range(3):
            _, size, infinite = replication(cfg, rep_idx)
            assert not infinite
            assert size in rep.sizes

    @pytest.mark.parametrize("path", ["stacked", "per-replication"])
    def test_failures_abort_with_index(self, path):
        with failing_replications({3}, path):
            with pytest.raises(ReplicationError, match="replication 3"):
                run_study(small_config(n_reps=5))

    @pytest.mark.parametrize("path", ["stacked", "per-replication"])
    def test_skip_failures_counts_them(self, path):
        with failing_replications({1, 4}, path):
            rep = run_study(small_config(n_reps=6, skip_failures=True))
        assert rep.n_failed == 2
        assert rep.n_reps == 4

    @pytest.mark.parametrize("skip_failures", [False, True])
    def test_a_floating_point_fault_ends_in_the_check_that_refuses_it(
            self, skip_failures):
        # The responses overflow while a stack runs with floating-point
        # faults raised; the stack runs again, and each replication fails at
        # the dataset's finiteness check, never with a FloatingPointError.
        scenario = replace(small_config().scenario, error_scale=1e308)
        cfg = small_config(scenario=scenario, n_reps=3, skip_failures=skip_failures)
        message = ("all 3 replications failed" if skip_failures else
                   "replication 0 failed: responses component 0 contains "
                   "non-finite entries")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ReplicationError, match=f"^{message}$"):
                run_study(cfg)

    def test_cub_replication_computes_residuals_once_per_part(self, monkeypatch):
        from mfconformal import conformal, regress

        calls = []
        real = regress.residuals

        def counting(model, dataset, idx):
            calls.append(tuple(idx))
            return real(model, dataset, idx)

        monkeypatch.setattr(regress, "residuals", counting)
        monkeypatch.setattr(conformal, "residuals", counting)
        _, size, infinite = replication(small_config(method="cub"), 0)
        assert not infinite and size > 0
        assert len(calls) == 2 and len(set(calls)) == 2  # train, then calib

    def test_cub_requires_split_mode(self):
        with pytest.raises(ValueError):
            small_config(method="cub", mode="smoothed")

    @pytest.mark.parametrize("seed", [True, 1.5, [1], "1", None])
    def test_master_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="master_seed must be an integer, got"):
            small_config(master_seed=seed)

    def test_master_seed_may_be_a_numpy_integer(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            small_config(master_seed=-1)
        rep = run_study(small_config(n_reps=3, master_seed=np.int64(3)))
        ref = run_study(small_config(n_reps=3))
        assert (rep.hits, rep.size_q1, rep.size_median) == (
            ref.hits, ref.size_q1, ref.size_median)

    @pytest.mark.parametrize("field,value", [
        ("l", 9.0), ("l", True), ("n_reps", 2.5), ("n_reps", True),
        ("workers", 2.5), ("workers", "2"), ("study", 1.0), ("scenario", True),
        ("n", 20.0), ("covariate_set", True), ("grid_points", 100.0),
    ])
    def test_integer_fields_refuse_booleans_and_fractions(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            if field in ("l", "n_reps", "workers"):
                small_config(**{field: value})
            else:
                replace(small_config().scenario, **{field: value})

    def test_infeasible_alpha_counts_infinite(self):
        rep = run_study(small_config(n_reps=3, alpha=0.05))  # < 1/10
        assert rep.n_infinite == 3
        assert rep.coverage == 1.0


class TestRecordsAndInvariants:
    def test_keep_records(self):
        rep = run_study(small_config(n_reps=5, keep_records=True))
        assert len(rep.records) == 5
        assert [r.rep for r in rep.records] == list(range(5))
        assert all(r.size is not None and not r.infinite for r in rep.records)

    @pytest.mark.parametrize(
        "n,l,alpha",
        [(40, 19, 0.25), (110, 99, 0.10)],
    )
    def test_coverage_invariant_at_other_calibration_sizes(self, n, l, alpha):
        # Empirical coverage stays within 3 binomial standard errors of
        # 1 - floor((l+1) alpha)/(l+1) at N=2000.
        scenario = ScenarioSpec(
            study=1, scenario=1, n=n, covariate_set=2, coeff_seed=7
        )
        cfg = StudyConfig(scenario=scenario, l=l, n_reps=2000, alpha=alpha,
                          modulation="sigma", master_seed=77)
        rep = run_study(cfg)
        p = rep.theoretical_coverage
        tol = 3 * np.sqrt(p * (1 - p) / 2000)
        assert abs(rep.coverage - p) <= tol


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count follows glibc's malloc thresholds")
def test_a_large_cell_run_back_to_back_keeps_its_pages():
    # A fresh process runs one n = 2000 cell, as every paper-grid cell runs.
    # With glibc's dynamic mmap threshold, each replication's few-MB blocks
    # were mapped afresh: about 1530 minor page faults per replication.
    probe = textwrap.dedent("""
        import resource
        from mfconformal import ScenarioSpec, StudyConfig, harness
        spec = ScenarioSpec(study=1, scenario=1, n=2000, coeff_seed=7)
        cfg = StudyConfig(scenario=spec, l=999, n_reps=23)
        harness._replication_batch(cfg, [0, 1, 2])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        harness._replication_batch(cfg, list(range(3, 23)))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 50 * 20
