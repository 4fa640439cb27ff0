import re

import numpy as np
import pytest

from mfconformal import (
    MFCurve,
    ModulationSet,
    ShapeError,
    TrimConfig,
    modulate,
    s_bar,
    s_bar_c,
    s_const,
    s_sigma,
    sup_abs,
    total_integral,
    uniform_grid,
)
from mfconformal.modulate import (
    PathologicalDataError,
    QuantileIndexError,
    trimmed_envelope,
    zero_adjust,
)

from conftest import as_blocks, random_curve


def residual_set(rng, grid, m):
    return [random_curve(rng, grid) for _ in range(m)]


class TestSConst:
    def test_two_unit_domains(self):
        s = s_const(uniform_grid(10, p=2))
        for f in s.fns:
            assert np.allclose(f, 0.5)

    def test_single_component_length_two(self):
        s = s_const(uniform_grid(10, domain=(0.0, 2.0), p=1))
        assert np.allclose(s.fns[0], 0.5)

    def test_unit_total_integral(self, grid2):
        assert s_const(grid2).total == pytest.approx(1.0, abs=1e-12)


class TestSSigma:
    def test_constant_spread_collapses_to_const(self, grid2):
        base = [random_curve(np.random.default_rng(3), grid2) for _ in range(1)][0]
        shifted = [
            MFCurve(tuple(v + c for v in base.values)) for c in (-1.0, 0.0, 1.0)
        ]
        s = s_sigma(as_blocks(shifted), grid2)
        ref = s_const(grid2)
        for a, b in zip(s.fns, ref.fns):
            assert np.allclose(a, b, atol=1e-12)

    def test_plus_minus_constant(self, grid2):
        c = 0.7
        res = [
            MFCurve(tuple(np.full(g.size, sign * c) for g in grid2.components))
            for sign in (+1.0, -1.0)
        ]
        stacked = [
            np.std(
                np.stack([r.values[j] for r in res]), axis=0, ddof=1
            )
            for j in range(2)
        ]
        assert np.allclose(stacked[0], c * np.sqrt(2.0), atol=1e-12)
        s = s_sigma(as_blocks(res), grid2)
        for a, b in zip(s.fns, s_const(grid2).fns):
            assert np.allclose(a, b, atol=1e-12)

    def test_matches_two_pass_variance_oracle(self, rng, grid2):
        res = residual_set(rng, grid2, 9)
        s = s_sigma(as_blocks(res), grid2)
        oracle = []
        for j in range(2):
            stack = np.stack([r.values[j] for r in res])
            mu = stack.mean(axis=0)
            var = ((stack - mu) ** 2).sum(axis=0) / (len(res) - 1)
            oracle.append(np.sqrt(var))
        tot = total_integral(oracle, grid2)
        for a, b in zip(s.fns, oracle):
            assert np.allclose(a, b / tot, rtol=1e-10)

    def test_needs_two_curves(self, rng, grid2):
        with pytest.raises(ValueError):
            s_sigma(as_blocks(residual_set(rng, grid2, 1)), grid2)


class TestSBar:
    def test_index_arithmetic_small(self, grid2):
        # 4 curves with distinct sups 1..4, alpha=0.5 keeps the 3 smallest.
        res = [
            MFCurve(tuple(np.full(g.size, k) for g in grid2.components))
            for k in (3.0, 1.0, 4.0, 2.0)
        ]
        env = trimmed_envelope(as_blocks(res), grid2, TrimConfig(alpha=0.5))
        for e in env:
            assert np.allclose(e, 3.0)

    def test_identical_residuals_any_alpha(self, rng, grid2):
        base = random_curve(rng, grid2)
        base = MFCurve(tuple(np.abs(v) + 0.1 for v in base.values))
        res = [base] * 5
        for alpha in (0.1, 0.5, 0.9):
            s = s_bar(as_blocks(res), grid2, TrimConfig(alpha=alpha))
            tot = total_integral([np.abs(v) for v in base.values], grid2)
            for a, v in zip(s.fns, base.values):
                assert np.allclose(a, np.abs(v) / tot, rtol=1e-12)

    def test_case_study_sizes_with_sort_oracle(self, rng, grid2):
        m, alpha = 22, 0.25
        res = residual_set(rng, grid2, m)
        sups = np.array([sup_abs(r) for r in res])
        cutoff = np.sort(sups)[int(np.ceil((m + 1) * (1 - alpha))) - 1]
        assert int(np.ceil((m + 1) * (1 - alpha))) == 18
        kept = [r for r, w in zip(res, sups) if w <= cutoff]
        oracle = [
            np.max(np.stack([np.abs(r.values[j]) for r in kept]), axis=0)
            for j in range(2)
        ]
        env = trimmed_envelope(as_blocks(res), grid2, TrimConfig(alpha=alpha))
        for a, b in zip(env, oracle):
            assert np.array_equal(a, b)

    def test_monotone_in_alpha(self, rng, grid2):
        res = residual_set(rng, grid2, 15)
        env_loose = trimmed_envelope(as_blocks(res), grid2, TrimConfig(alpha=0.1))
        env_tight = trimmed_envelope(as_blocks(res), grid2, TrimConfig(alpha=0.4))
        for lo, hi in zip(env_tight, env_loose):
            assert np.all(lo <= hi)

    def test_smoothed_rank_below_one_falls_back_to_const(self, grid2):
        res = [
            MFCurve(tuple(np.full(g.size, 1.0) for g in grid2.components))
        ] * 2
        # count + tau - (count+1) alpha = 2 + 0 - 3*0.9 = -0.7 -> rank <= 0
        cfg = TrimConfig(alpha=0.9, mode="smoothed", tau=0.0)
        s = s_bar(as_blocks(res), grid2, cfg)
        assert s.label == "sbar"
        for a, b in zip(s.fns, s_const(grid2).fns):
            assert np.array_equal(a, b)

    def test_smoothed_rank_above_count_keeps_all(self, rng, grid2):
        res = residual_set(rng, grid2, 3)
        cfg = TrimConfig(alpha=0.05, mode="smoothed", tau=1.0)
        env = trimmed_envelope(as_blocks(res), grid2, cfg)
        oracle = [
            np.max(np.stack([np.abs(r.values[j]) for r in res]), axis=0)
            for j in range(2)
        ]
        for a, b in zip(env, oracle):
            assert np.array_equal(a, b)


class TestSBarC:
    def test_max_rank_keeps_whole_calibration_set(self, rng, grid2):
        res = residual_set(rng, grid2, 9)
        s = s_bar_c(as_blocks(res), grid2, TrimConfig(alpha=0.10))
        oracle = [
            np.max(np.stack([np.abs(r.values[j]) for r in res]), axis=0)
            for j in range(2)
        ]
        tot = total_integral(oracle, grid2)
        for a, b in zip(s.fns, oracle):
            assert np.allclose(a, b / tot, rtol=1e-12)

    def test_membership_matches_definition_scan(self, rng, grid2):
        l, alpha = 19, 0.25
        res = residual_set(rng, grid2, l)
        sups = np.array([sup_abs(r) for r in res])
        k = np.sort(sups)[14]  # ceil(20 * 0.75) = 15 -> index 14
        members = [i for i in range(l) if sups[i] <= k]
        assert len(members) == 15  # distinct sups almost surely
        oracle = [
            np.max(np.stack([np.abs(res[i].values[j]) for i in members]), axis=0)
            for j in range(2)
        ]
        env = trimmed_envelope(as_blocks(res), grid2, TrimConfig(alpha=alpha))
        for a, b in zip(env, oracle):
            assert np.array_equal(a, b)

    def test_rejects_out_of_range_rank(self, rng, grid2):
        res = residual_set(rng, grid2, 9)
        with pytest.raises(QuantileIndexError):
            s_bar_c(as_blocks(res), grid2, TrimConfig(alpha=0.05))  # alpha < 1/10
        with pytest.raises(QuantileIndexError, match=r"split mode .* 1/\(l\+1\)"):
            s_bar_c(as_blocks(res), grid2, TrimConfig(alpha=0.05))
        # Smoothed rank ceil(9 + 0 - 10 * 0.9) = 0: alpha is at the upper
        # bound (l+tau)/(l+1) = 0.9, not below a split-mode bound.
        cfg = TrimConfig(alpha=0.9, mode="smoothed", tau=0.0)
        with pytest.raises(QuantileIndexError, match=r"smoothed mode .* alpha < \(l\+0\)/\(l\+1\) = 0\.9$"):
            s_bar_c(as_blocks(res), grid2, cfg)


class TestInvariants:
    @pytest.mark.parametrize("label", ["s0", "sigma", "sbar", "sbar_c"])
    def test_positive_and_normalized(self, rng, grid2, label):
        res = residual_set(rng, grid2, 11)
        cfg = TrimConfig(alpha=0.25)
        s = {
            "s0": lambda: s_const(grid2),
            "sigma": lambda: s_sigma(as_blocks(res), grid2),
            "sbar": lambda: s_bar(as_blocks(res), grid2, cfg),
            "sbar_c": lambda: s_bar_c(as_blocks(res), grid2, cfg),
        }[label]()
        assert all(np.all(f > 0) for f in s.fns)
        assert s.total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("label", ["sigma", "sbar", "sbar_c"])
    def test_blocks_must_share_one_row_count(self, rng, grid2, label):
        blocks = as_blocks(residual_set(rng, grid2, 11))
        ragged = (blocks[0], blocks[1][:10])
        build = {"sigma": s_sigma, "sbar": s_bar, "sbar_c": s_bar_c}[label]
        args = () if label == "sigma" else (TrimConfig(alpha=0.25),)
        with pytest.raises(ShapeError, match=r"\(11, 50\), \(10, 50\)"):
            build(ragged, grid2, *args)

    def test_zero_adjust_noop_on_positive(self, rng, grid2):
        fns = [np.abs(rng.normal(size=c.size)) + 0.05 for c in grid2.components]
        adjusted = zero_adjust(fns)
        for a, b in zip(adjusted, fns):
            assert np.array_equal(a, b)

    def test_zero_adjust_fills_zeros(self):
        fns = [np.array([0.0, 2.0, 0.0]), np.array([1.0, 0.0, 0.5])]
        adjusted = zero_adjust(fns)
        eps = 1e-6 * 2.0
        assert adjusted[0][0] == eps and adjusted[0][2] == eps
        assert adjusted[1][1] == eps
        assert adjusted[0][1] == 2.0

    def test_zero_adjust_pathological(self):
        with pytest.raises(PathologicalDataError):
            zero_adjust([np.zeros(3), np.zeros(3)])

    def test_trim_config_validation(self):
        with pytest.raises(ValueError):
            TrimConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TrimConfig(alpha=0.1, mode="smoothed")
        with pytest.raises(ValueError):
            TrimConfig(alpha=0.1, mode="smoothed", tau=1.5)

    def test_trim_config_refuses_a_split_mode_tau(self):
        with pytest.raises(ValueError, match="tau applies to smoothed mode"):
            TrimConfig(alpha=0.1, mode="split", tau=0.3)

    def test_modulation_set_refuses_nonpositive_or_unnormalized_functions(self, grid2):
        half = tuple(np.full(c.size, 0.5) for c in grid2.components)
        dented = (half[0], np.where(np.arange(50) == 7, 0.0, 0.5))
        with pytest.raises(ValueError,
                           match="^modulation component 1 must be strictly positive$"):
            ModulationSet(grid2, dented, "s0")
        with pytest.raises(ValueError, match=r"^modulation set integrates to "
                                             r"2\.0\d*, expected 1$"):
            ModulationSet(grid2, tuple(2.0 * f for f in half), "s0")
        assert ModulationSet(grid2, tuple(2.0 * f for f in half), "s0",
                             unit_integral=False).total == pytest.approx(2.0)

    def test_stack_rule_names_what_a_set_alone_would(self, grid2):
        # The rule that ModulationSet applies, over an (R, G_j) stack: each
        # set is checked as it is alone, and the message is the one of the
        # first set that fails.
        half = np.full((3, 50), 0.5)
        off = half.copy()
        off[1] = 1.0  # set 1 integrates to 0.5 + 1.0
        with pytest.raises(ValueError, match=r"^modulation set integrates to "
                                             r"1\.5, expected 1$"):
            modulate._checked((half, off), grid2)
        off[2, 3] = -np.inf
        with pytest.raises(ValueError, match="^modulation component 1 contains "
                                             "non-finite entries$"):
            modulate._checked((np.where(off > 0, half, 0.0), off), grid2)

    def test_scaled_set_not_normalized(self, grid2):
        s = s_const(grid2).scale(3.0)
        assert not s.unit_integral
        assert s.total == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("build,message", [
    (lambda: s_const(uniform_grid(5)).scale(0.0), "scale factor must be positive"),
    (lambda: modulate.make_modulation("sbar", [np.ones((3, 5))], uniform_grid(5)),
     "sbar needs a TrimConfig"),
])
def test_refusal_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
