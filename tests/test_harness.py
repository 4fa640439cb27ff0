import contextlib
import os
import pathlib
import platform
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import failing_replications, replication
from mfconformal import (ScenarioSpec, StudyConfig, coverage_ci, harness, run_study,
                         size_quartiles)
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

    @pytest.mark.parametrize("hits,n,message", [
        (6, 5, "hits 6 is outside 0..5"),
        (0, 0, "n 0 is below 1"),
    ])
    def test_refusal_names_the_value(self, hits, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coverage_ci(hits, n)


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
        real = core.ComponentGrid._weigh

        # Every construction, by the constructor or by from_points, stores
        # its arrays through _weigh.
        def counting(self, pts, w):
            built.append(self)
            real(self, pts, w)

        monkeypatch.setattr(core.ComponentGrid, "_weigh", counting)
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
        # The responses overflow to inf without a warning; the stack runs
        # again, and each replication fails at the dataset's finiteness check.
        scenario = replace(small_config().scenario, error_scale=1e308)
        cfg = small_config(scenario=scenario, n_reps=3, skip_failures=skip_failures)
        message = ("all 3 replications failed" if skip_failures else
                   "replication 0 failed: responses component 0 contains "
                   "non-finite entries")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ReplicationError, match=f"^{message}$"):
                run_study(cfg)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("raised", ["warnings", "floating-point errors"])
    def test_a_floating_point_fault_reads_the_same_under_the_callers_settings(
            self, raised):
        # A caller that turns warnings or floating-point errors into
        # exceptions does not make the overflow the failure's message.
        scenario = ScenarioSpec(study=1, scenario=1, n=20, error_scale=1e308)
        cfg = StudyConfig(scenario=scenario, l=9, n_reps=3)
        with warnings.catch_warnings():
            if raised == "warnings":
                warnings.simplefilter("error")
            with (np.errstate(all="raise") if raised == "floating-point errors"
                  else contextlib.nullcontext()):
                with pytest.raises(ReplicationError, match="^replication 0 failed: "
                                   "responses component 0 contains non-finite "
                                   "entries$"):
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
        with pytest.raises(ValueError, match="master_seed -1 is below 0"):
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


class TestSeeding:
    """``harness._generators`` against ``np.random.default_rng``, the seeding
    that ``simgen.generate``, ``random_split`` and the tests' reference
    replication use."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3]),
                          st.integers(0, 2**130)),
           reps=st.lists(st.integers(0, 2**40), max_size=4),
           big=st.integers(2**32, 2**70), streams=st.sampled_from([2, 3]))
    def test_generators_equal_default_rng_bit_for_bit(self, seed, reps, big, streams):
        reps = [0, *reps, big]
        gens = harness._generators(seed, reps, streams)
        assert [len(g) for g in gens] == [len(reps)] * streams
        for stream, stream_gens in enumerate(gens):
            for rep, gen in zip(reps, stream_gens):
                ref = np.random.default_rng((seed, rep, stream))
                assert gen.bit_generator.state == ref.bit_generator.state
                # tests/conftest.py's failing_replications reads the key
                assert gen.bit_generator.seed_seq.entropy == (seed, rep, stream)
                assert np.array_equal(gen.standard_normal(3), ref.standard_normal(3))
                assert np.array_equal(gen.permutation(21), ref.permutation(21))

    @pytest.mark.parametrize("mode", ["split", "smoothed"])
    def test_a_cell_seeds_its_replications_without_default_rng(self, monkeypatch, mode):
        cfg = small_config(n_reps=20, mode=mode)
        run_study(replace(cfg, n_reps=1))  # builds the cell's cached constants
        seeds, real = [], np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        run_study(cfg)
        assert seeds == []


class TestRecordsAndInvariants:
    def test_keep_records(self):
        rep = run_study(small_config(n_reps=5, keep_records=True))
        assert len(rep.records) == 5
        assert [r.rep for r in rep.records] == list(range(5))
        assert all(r.size is not None and not r.infinite for r in rep.records)

    @pytest.mark.parametrize("keep_sizes", [False, True])
    def test_keep_sizes_keeps_the_sorted_sizes_of_the_records(self, keep_sizes):
        # Replications 2 and 5 fail and are skipped, so their sizes are None.
        cfg = small_config(n_reps=8, keep_records=True, keep_sizes=keep_sizes,
                           skip_failures=True)
        with failing_replications({2, 5}, "stacked"):
            rep = run_study(cfg)
        sizes = [r.size for r in rep.records if r.size is not None]
        assert len(sizes) == 6 and sizes != sorted(sizes)
        assert rep.sizes == (tuple(sorted(sizes)) if keep_sizes else None)

    def test_cub_equals_mpb_hit_for_hit_on_identical_components(self):
        # In study 2, scenario 3 the two components are identical, so each
        # replication's two cub ranks are mpb's one rank: the records must
        # agree exactly, not within Monte Carlo error.
        scenario = ScenarioSpec(study=2, scenario=3, n=20)
        records = [run_study(StudyConfig(scenario=scenario, l=9, n_reps=250,
                                         method=method, master_seed=77,
                                         keep_records=True)).records
                   for method in ("mpb", "cub")]
        assert [r.hit for r in records[1]] == [r.hit for r in records[0]]
        assert 0 < sum(not r.hit for r in records[0])
        for mpb, cub in zip(*records):
            assert not (mpb.infinite or cub.infinite)
            assert cub.size == pytest.approx(mpb.size, rel=1e-12, abs=0.0)

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
@pytest.mark.parametrize("study,scenario,modulation,mode,method", [
    (3, 1, "sigma", "split", "mpb"), (2, 3, "sigma", "split", "cub"),
    (3, 3, "sbar", "smoothed", "mpb")])
def test_a_large_cell_run_back_to_back_keeps_its_pages(study, scenario, modulation,
                                                       mode, method):
    # A fresh process runs one n = 2000 cell, as every paper-grid cell runs.
    # With glibc's dynamic mmap threshold, each replication's few-MB blocks
    # were mapped afresh: without harness._raise_malloc_thresholds these
    # cells took about 1530, 1820 and 2130 minor page faults per replication.
    # Study 1, scenario 1 stays under the bound without the call, so it
    # cannot show what the call does.
    probe = textwrap.dedent(f"""
        import resource
        from mfconformal import ScenarioSpec, StudyConfig, harness
        spec = ScenarioSpec(study={study}, scenario={scenario}, n=2000, coeff_seed=7)
        cfg = StudyConfig(scenario=spec, l=999, n_reps=23, modulation={modulation!r},
                          mode={mode!r}, method={method!r})
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


@pytest.mark.parametrize("fields,message", [
    ({"l": 20}, "l 20 is outside 1..19"),
    ({"n_reps": 0}, "n_reps 0 is below 1"),
    ({"method": "pointwise"}, "unknown method 'pointwise'"),
])
def test_study_config_refusal_messages(fields, message):
    spec = ScenarioSpec(study=1, scenario=1, n=20)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StudyConfig(**{"scenario": spec, "l": 9, "n_reps": 1, **fields})
