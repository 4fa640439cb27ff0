import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfconformal import (
    Band,
    ComponentGrid,
    Covariates,
    Dataset,
    FittedRegressor,
    Grid,
    ModulationSet,
    MFCurve,
    RegressorSpec,
    Scores,
    ShapeError,
    Split,
    predict,
    random_split,
    s_const,
    score,
    sup_abs,
    theoretical_coverage,
    total_integral,
    uniform_grid,
)
from mfconformal.core import _snap_floor, order_stat_index, smoothed_order_stat_index
from mfconformal.simgen import BSplineBasis

from conftest import random_curve


class TestSupAbs:
    def test_small_example(self):
        curve = MFCurve((np.array([1.0, -3.0]), np.array([2.0, 0.0])))
        assert sup_abs(curve) == 3.0

    def test_zero_curve(self):
        curve = MFCurve((np.zeros(4), np.zeros(4)))
        assert sup_abs(curve) == 0.0

    def test_matches_exhaustive_scan(self, rng, grid2):
        curve = random_curve(rng, grid2)
        best = -np.inf
        for comp in curve.values:
            for v in comp:
                best = max(best, abs(float(v)))
        assert sup_abs(curve) == best

    @given(lam=st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, lam):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(2, 20))
        curve = MFCurve((base[0], base[1]))
        scaled = MFCurve((lam * base[0], lam * base[1]))
        assert sup_abs(scaled) == pytest.approx(abs(lam) * sup_abs(curve), rel=1e-12)


class TestTotalIntegral:
    def test_constant_half_on_unit_squares(self):
        grid = uniform_grid(11, p=2)
        fns = [np.full(11, 0.5), np.full(11, 0.5)]
        assert total_integral(fns, grid) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self, grid2):
        fns = [np.zeros(c.size) for c in grid2.components]
        assert total_integral(fns, grid2) == 0.0

    def test_matches_refined_trapezoid(self, rng, grid2):
        # The grid value is the trapezoid rule on piecewise-linear data, so
        # a 20x-refined trapezoid on the linear interpolant must agree.
        fns = [np.abs(rng.normal(size=c.size)) for c in grid2.components]
        refined = 0.0
        for comp, f in zip(grid2.components, fns):
            pts = comp.points
            tt = np.unique(
                np.concatenate(
                    [np.linspace(a, b, 21) for a, b in zip(pts[:-1], pts[1:])]
                )
            )
            refined += np.trapezoid(np.interp(tt, pts, f), tt)
        assert total_integral(fns, grid2) == pytest.approx(refined, rel=1e-12)

    def test_linearity(self, rng, grid2):
        f = [np.abs(rng.normal(size=c.size)) for c in grid2.components]
        g = [np.abs(rng.normal(size=c.size)) for c in grid2.components]
        a, b = 0.7, 2.5
        combo = [a * fi + b * gi for fi, gi in zip(f, g)]
        assert total_integral(combo, grid2) == pytest.approx(
            a * total_integral(f, grid2) + b * total_integral(g, grid2), rel=1e-12
        )

    def test_shape_mismatch(self, grid2):
        with pytest.raises(ShapeError):
            total_integral([np.ones(3), np.ones(3)], grid2)


class TestGridTypes:
    def test_trapezoid_weights_sum_to_span(self):
        pts = np.array([0.0, 0.1, 0.4, 1.0])
        comp = ComponentGrid.from_points(pts)
        assert comp.measure == pytest.approx(1.0, abs=1e-15)
        assert np.all(comp.weights > 0)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ShapeError):
            ComponentGrid.from_points([0.0, 0.5, 0.3])

    def test_rejects_wrong_weight_total(self):
        with pytest.raises(ShapeError, match="domain length"):
            ComponentGrid(np.array([0.0, 1.0]), np.array([2.0, 2.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ShapeError):
            ComponentGrid.from_points([0.0])

    def test_grid_equality(self):
        assert uniform_grid(10, p=2) == uniform_grid(10, p=2)
        assert uniform_grid(10, p=2) != uniform_grid(11, p=2)
        # Separately built grids compare by their points and weights.
        pts = np.array([0.0, 0.2, 0.7, 1.0])
        grid = Grid((ComponentGrid.from_points(pts), ComponentGrid.from_points(pts)))
        again = Grid((ComponentGrid(pts.copy(), grid.components[0].weights.copy()),
                      ComponentGrid.from_points(list(pts))))
        assert grid == again and not grid != again
        moved = pts.copy()
        moved[1] = 0.3
        weighted = ComponentGrid(pts, np.array([0.1, 0.4, 0.35, 0.15]))
        for other in (Grid((grid.components[0], ComponentGrid.from_points(moved))),
                      Grid((grid.components[0], weighted)),
                      Grid(grid.components[:1]),
                      Grid(grid.components * 2)):
            assert grid != other and not grid == other
        assert grid != "grid"

    def test_curve_must_be_finite(self):
        with pytest.raises(ShapeError):
            MFCurve((np.array([1.0, np.nan]),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scalar_covariates_must_be_finite(self, value):
        with pytest.raises(ShapeError, match="scalar covariate 'w'"):
            Covariates(scalar={"v": 1.0, "w": value})


def stored_arrays(kind, arr):
    """The arrays a type stores when built from the caller's vector ``arr``
    (4 positive ascending entries)."""
    if kind == "Band":
        band = Band((arr,), (arr,))
        return band.lower + band.upper
    if kind == "Scores":
        scores = Scores(arr)
        return scores.values, scores.sorted_values
    if kind == "ModulationSet":
        return ModulationSet(uniform_grid(4), (arr,), "x", unit_integral=False).fns
    return (BSplineBasis(2, 2, arr).knots,)


class TestStoredArrays:
    @pytest.mark.parametrize("kind", ["Band", "Scores", "ModulationSet", "BSplineBasis"])
    def test_caller_array_stays_writeable_and_unaliased(self, kind):
        arr = np.array([0.25, 0.5, 0.75, 1.0])
        stored = stored_arrays(kind, arr)
        assert arr.flags.writeable
        for held in stored:
            assert not held.flags.writeable and not np.shares_memory(held, arr)
        arr[0] = 2.0
        assert all(held[0] == 0.25 for held in stored)

    @pytest.mark.parametrize("kind", ["Band", "Scores", "ModulationSet", "BSplineBasis"])
    def test_non_finite_entry_is_a_value_error_not_a_shape_error(self, kind):
        # The CLI maps ShapeError to exit 2 and other ValueErrors to exit 3.
        with pytest.raises(ValueError, match="non-finite") as info:
            stored_arrays(kind, np.array([0.25, np.nan, 0.75, 1.0]))
        assert not isinstance(info.value, ShapeError)


    @pytest.mark.parametrize("entries", [["1", "2"], [1.0, "2"], [b"1", b"2"]])
    def test_entries_must_be_numbers_not_parsed_text(self, entries):
        with pytest.raises(ShapeError, match="curve component 0 is ragged or not numeric"):
            MFCurve((entries,))


# Checks of one observation, each read as a one-row block against the grid.
ONE_OBSERVATION = {
    "score": lambda grid, v: score(MFCurve(v), s_const(grid)),
    "total_integral": lambda grid, v: total_integral(v, grid),
    "ModulationSet": lambda grid, v: ModulationSet(grid, v, "x", unit_integral=False),
    "predict": lambda grid, v: predict(
        FittedRegressor(grid, RegressorSpec("intercept_only"),
                        tuple(np.zeros((c.size, 1)) for c in grid.components)),
        Covariates(functional={"temp": v}),
    ),
}


class TestOneObservationShapes:
    @pytest.mark.parametrize("fault", ["component count", "wrong G_j"])
    @pytest.mark.parametrize("caller", sorted(ONE_OBSERVATION))
    def test_rejects_a_wrong_shape(self, grid2, caller, fault):
        bad = {"component count": (np.ones(50),),
               "wrong G_j": (np.ones(50), np.ones(49))}[fault]
        with pytest.raises(ShapeError, match=r"expected one \(count, G_j\) block"):
            ONE_OBSERVATION[caller](grid2, bad)


class TestDataset:
    def test_blocks_hold_the_pairs_column_by_column(self, rng, grid2):
        temps = [tuple(rng.normal(size=c.size) for c in grid2.components)
                 for _ in range(3)]
        curves = [random_curve(rng, grid2) for _ in range(3)]
        pairs = tuple(
            (Covariates(scalar={"w": 0.1 * i}, functional={"temp": temps[i]}), y)
            for i, y in enumerate(curves)
        )
        ds = Dataset(grid=grid2, pairs=pairs)
        for j in range(2):
            assert np.array_equal(ds.responses[j], [y.values[j] for y in curves])
            assert np.array_equal(ds.functional["temp"][j], [t[j] for t in temps])
        assert np.array_equal(ds.scalar["w"], [0.0, 0.1, 0.2])
        for block in (*ds.responses, ds.scalar["w"], *ds.functional["temp"]):
            assert not block.flags.writeable

    @pytest.mark.parametrize(
        "odd",
        [
            Covariates(scalar={"v": 1.0}),
            Covariates(scalar={"w": 1.0, "v": 1.0}),
            Covariates(),
            Covariates(functional={"w": (np.zeros(50), np.zeros(50))}),
        ],
    )
    def test_pairs_must_carry_the_same_covariate_names(self, rng, grid2, odd):
        covs = [Covariates(scalar={"w": 0.5})] * 2 + [odd]
        pairs = tuple((x, random_curve(rng, grid2)) for x in covs)
        with pytest.raises(ShapeError, match=r"pair 2 carries covariates"):
            Dataset(grid=grid2, pairs=pairs)


class TestDatasetFromBlocks:
    def blocks(self, rng, n=4):
        responses = tuple(rng.normal(size=(n, 50)) for _ in range(2))
        temp = tuple(rng.normal(size=(n, 50)) for _ in range(2))
        return responses, {"w": rng.normal(size=n)}, {"temp": temp}

    def test_equals_the_pairs_path(self, rng, grid2):
        responses, scalar, functional = self.blocks(rng)
        pairs = tuple(
            (
                Covariates(scalar={"w": scalar["w"][i]},
                           functional={"temp": tuple(b[i] for b in functional["temp"])}),
                MFCurve(tuple(b[i] for b in responses)),
            )
            for i in range(4)
        )
        a = Dataset.from_blocks(grid2, responses, scalar, functional)
        b = Dataset(grid=grid2, pairs=pairs)
        assert a.n == b.n == 4
        for ds in (a, b):
            held = (*ds.responses, ds.scalar["w"], *ds.functional["temp"])
            for got, want in zip(held, (*responses, scalar["w"], *functional["temp"])):
                assert np.array_equal(got, want) and not got.flags.writeable
        for i in range(4):
            assert np.array_equal(a.curve(i).values, pairs[i][1].values)
            assert a.covariates(i).scalar == pairs[i][0].scalar
            assert np.array_equal(a.covariates(i).functional["temp"],
                                  pairs[i][0].functional["temp"])

    def test_copies_its_input(self, rng, grid2):
        responses, scalar, _ = self.blocks(rng)
        ds = Dataset.from_blocks(grid2, responses, scalar)
        responses[0][0, 0] += 1.0
        assert responses[0].flags.writeable
        assert ds.responses[0][0, 0] != responses[0][0, 0]
        assert ds.functional == {}

    @pytest.mark.parametrize(
        "source", ["fresh", "column view", "row view", "float32", "list"])
    def test_holds_read_only_copies_of_any_source(self, rng, grid2, source):
        # A view would pin (and expose) the array it views, like a held-out
        # row of the generated response array.
        big = rng.normal(size=(5, 2, 100))
        block = {"fresh": big[:4, 0, :50].copy(), "column view": big[:4, 0, :50],
                 "row view": big[1:, 1, :50],
                 "float32": big[:4, 0, :50].astype(np.float32),
                 "list": big[:4, 0, :50].tolist()}[source]
        given = (block, big[:4, 1, :50].copy(), rng.normal(size=4))
        ds = Dataset.from_blocks(grid2, given[:2], {"w": given[2]})
        assert np.array_equal(ds.responses[0], np.asarray(block, dtype=float))
        for held in (*ds.responses, ds.scalar["w"]):
            assert held.dtype == np.float64 and held.base is None
            assert not held.flags.writeable
            assert not any(np.shares_memory(held, a) for a in (big, *given[1:]))
        assert all(a.flags.writeable for a in (big, *given[1:]))

    FAULTS = {
        "nan response": "responses component 0 contains non-finite entries",
        "inf scalar": "scalar covariate 'w' contains non-finite entries",
        "nan functional":
            "functional covariate 'temp' component 1 contains non-finite entries",
        "ragged": "responses component 0 is ragged or not numeric",
        "wrong G_j": r"responses have shapes \[\(4, 50\), \(4, 49\)\]",
        "component count": r"responses have shapes \[\(4, 50\)\]",
        "row mismatch": r"responses have shapes \[\(4, 50\), \(3, 50\)\]",
        "scalar rows": r"the responses have 4 rows, the covariates \[3, 4\]",
        "functional rows": r"the responses have 4 rows, the covariates \[4, 3\]",
        "scalar shape": r"scalar covariate 'w' must be 1-dimensional, got shape \(4, 1\)",
        "one row": r"the responses have 1 rows, the covariates \[\]",
    }

    def faulty_blocks(self, rng, fault):
        responses, scalar, functional = self.blocks(rng)
        r0, r1 = responses
        temp = functional["temp"]
        if fault == "nan response":
            r0[1, 2] = np.nan
        elif fault == "inf scalar":
            scalar["w"][3] = np.inf
        elif fault == "nan functional":
            temp[1][0, 0] = np.nan
        elif fault == "ragged":
            r0 = [r0[0], r0[1][:49], r0[2], r0[3]]
        elif fault == "wrong G_j":
            r1 = r1[:, :49]
        elif fault == "component count":
            responses = (r0,)
        elif fault == "row mismatch":
            r1 = r1[:3]
        elif fault == "scalar rows":
            scalar["w"] = scalar["w"][:3]
        elif fault == "functional rows":
            functional["temp"] = (temp[0][:3], temp[1][:3])
        elif fault == "scalar shape":
            scalar["w"] = scalar["w"][:, None]
        else:
            r0, r1, scalar, functional = r0[:1], r1[:1], None, None
        if fault != "component count":
            responses = (r0, r1)
        return responses, scalar, functional

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_rejects_malformed_blocks(self, rng, grid2, fault):
        with pytest.raises(ShapeError):
            Dataset.from_blocks(grid2, *self.faulty_blocks(rng, fault))

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_error_names_the_faulty_block(self, rng, grid2, fault):
        with pytest.raises(ShapeError, match=self.FAULTS[fault]):
            Dataset.from_blocks(grid2, *self.faulty_blocks(rng, fault))

    def test_pairs_path_rejects_a_ragged_curve(self, rng, grid2):
        pairs = [(Covariates(), random_curve(rng, grid2)) for _ in range(3)]
        short = MFCurve((np.zeros(50), np.zeros(49)))
        with pytest.raises(ShapeError):
            Dataset(grid=grid2, pairs=(*pairs, (Covariates(), short)))

    @pytest.mark.parametrize("p", [1, 3])
    def test_pairs_path_rejects_a_wrong_component_count(self, rng, grid2, p):
        pairs = [(Covariates(), random_curve(rng, grid2)) for _ in range(3)]
        odd = MFCurve(tuple(np.zeros(50) for _ in range(p)))
        with pytest.raises(ShapeError, match=f"pair 3 has {p} components"):
            Dataset(grid=grid2, pairs=(*pairs, (Covariates(), odd)))

    def test_pairs_path_rejects_a_wrong_functional_component_count(self, rng, grid2):
        pairs = tuple(
            (Covariates(functional={"temp": (np.zeros(50),) * k}), random_curve(rng, grid2))
            for k in (2, 2, 3)
        )
        with pytest.raises(ShapeError, match="functional covariate 'temp' of pair 2"):
            Dataset(grid=grid2, pairs=pairs)


class TestRandomSplit:
    def test_minimal(self):
        split = random_split(2, 1, seed=0)
        assert split.m == 1 and split.l == 1

    def test_deterministic(self):
        assert random_split(20, 7, seed=42) == random_split(20, 7, seed=42)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_partition_property(self, n):
        for l in range(1, n):
            split = random_split(n, l, seed=n * 100 + l)
            assert sorted(split.train_idx + split.calib_idx) == list(range(n))
            assert split.l == l

    def test_parity_case_study_shape(self):
        # 41 days, odd days to training, even to calibration, day 20 moved
        # to training to reach m=22, l=19.
        split = random_split(41, 19, strategy="parity")
        assert split.m == 22 and split.l == 19
        assert 19 in split.train_idx  # day 20 is index 19
        expected_calib = [d - 1 for d in range(2, 41, 2) if d != 20]
        assert list(split.calib_idx) == expected_calib

    def test_parity_matches_the_one_day_at_a_time_rule(self):
        # The documented rule, moving one day per step from the side with
        # the surplus, is the reference for the one-sort implementation.
        def reference(n, l):
            center = (n + 1) / 2.0
            train = [d for d in range(1, n + 1) if d % 2 == 1]
            calib = [d for d in range(1, n + 1) if d % 2 == 0]
            while len(calib) > l:
                day = min(calib, key=lambda d: (abs(d - center), d))
                calib.remove(day)
                train.append(day)
            while len(calib) < l:
                day = min(train, key=lambda d: (abs(d - center), d))
                train.remove(day)
                calib.append(day)
            return (tuple(sorted(d - 1 for d in train)),
                    tuple(sorted(d - 1 for d in calib)))

        for n in range(2, 121):
            for l in range(1, n):
                split = random_split(n, l, strategy="parity")
                assert (split.train_idx, split.calib_idx) == reference(n, l), (n, l)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            random_split(5, 5)

    def test_split_validation(self):
        with pytest.raises(ShapeError):
            Split((0, 1), (1, 2))

    @pytest.mark.parametrize("train,calib,bad", [
        ((0.5, 1.9, 2), (3.2,), "0.5"),
        ((0, 1, 2), (3.0,), "3.0"),
        ((True, 2), (0,), "True"),
        ((0, np.True_), (2,), "np.True_"),
        ((0, "1"), (2,), "'1'"),
    ])
    def test_split_refuses_non_integer_indices(self, train, calib, bad):
        # int() would truncate 1.9 to 1 and take True as 1.
        with pytest.raises(ShapeError, match=f"split index {bad} is not an integer"):
            Split(train, calib)

    def test_split_takes_numpy_integers_as_python_ints(self):
        split = Split(np.array([0, 2]), (np.int64(1),))
        assert (split.train_idx, split.calib_idx) == ((0, 2), (1,))
        assert all(type(i) is int for i in split.train_idx + split.calib_idx)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_partition_check_agrees_with_the_sorting_rule(self, data):
        # A permutation of 0..n-1 with up to two entries overwritten: the
        # edits make duplicates, gaps, negatives and values >= n.
        n = data.draw(st.integers(2, 12))
        idx = data.draw(st.permutations(range(n)))
        for _ in range(data.draw(st.integers(0, 2))):
            idx[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-3, n + 2))
        cut = data.draw(st.integers(1, n - 1))
        train, calib = tuple(idx[:cut]), tuple(idx[cut:])
        partitions = sorted(train + calib) == list(range(n))
        try:
            split = Split(train, calib)
        except ShapeError as exc:
            assert not partitions
            assert str(exc) == "split parts must partition 0..n-1 exactly"
        else:
            assert partitions
            assert (split.train_idx, split.calib_idx) == (train, calib)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_uniform_split_matches_sorted_permutation_oracle(self, data):
        n = data.draw(st.integers(2, 300))
        l = data.draw(st.integers(1, n - 1))
        seed = tuple(data.draw(st.lists(st.integers(0, 2**64), min_size=1,
                                        max_size=4)))
        perm = np.random.default_rng(seed).permutation(n)
        split = random_split(n, l, seed=seed)
        assert split.calib_idx == tuple(sorted(int(i) for i in perm[:l]))
        assert split.train_idx == tuple(sorted(int(i) for i in perm[l:]))
        assert all(type(i) is int for i in split.calib_idx + split.train_idx)


class TestOrderIndices:
    @pytest.mark.parametrize(
        "l,alpha,expected",
        [(9, 0.10, 9), (99, 0.10, 90), (19, 0.25, 15), (9, 0.5, 5), (9, 0.3, 7)],
    )
    def test_split_rank(self, l, alpha, expected):
        assert order_stat_index(l, alpha) == expected

    def test_split_rank_never_misrounds(self):
        # Brute-force comparison against exact rational arithmetic.
        from fractions import Fraction
        import math

        for l in range(1, 200):
            for num in range(1, 20):
                alpha = num / 20
                exact = math.ceil(Fraction(l + 1) * (1 - Fraction(num, 20)))
                assert order_stat_index(l, alpha) == exact, (l, alpha)

    def test_smoothed_rank_reduces_to_split_at_tau_one(self):
        for l in (5, 9, 10, 99):
            for alpha in (0.05, 0.1, 0.25, 0.3):
                assert smoothed_order_stat_index(l, alpha, 1.0) == order_stat_index(
                    l, alpha
                )
        # alpha at k/(l+1), one ulp either side, and scaled down by 3e-9
        # (outside the relative snapping tolerance) and by 5e-10 (inside it):
        # the floor of (l+1)*alpha is decided by the tolerance there.
        for l in range(1, 201):
            for k in range(1, l + 1):
                base = k / (l + 1)
                for alpha in (
                    base,
                    math.nextafter(base, 0.0),
                    math.nextafter(base, 1.0),
                    base * (1 - 3e-9),
                    base * (1 - 5e-10),
                ):
                    expected = l + 1 - _snap_floor((l + 1) * alpha)
                    assert order_stat_index(l, alpha, 1.0) == expected, (l, alpha)
                    assert smoothed_order_stat_index(l, alpha, 1.0) == expected

    def test_theoretical_coverage(self):
        assert theoretical_coverage(9, 0.10) == 0.9
        assert theoretical_coverage(10, 0.10) == pytest.approx(10 / 11, abs=1e-15)
        assert theoretical_coverage(19, 0.25) == 0.75

    @pytest.mark.parametrize("l,alpha,message", [
        (9, 1.5, r"alpha must lie in \(0, 1\), got 1\.5"),
        (9, -0.5, r"alpha must lie in \(0, 1\), got -0\.5"),
        (9, 0.0, r"alpha must lie in \(0, 1\), got 0\.0"),
        (9, math.nan, r"alpha must lie in \(0, 1\), got nan"),
        (0, 0.1, "need l >= 1, got 0"),
        (-3, 0.1, "need l >= 1, got -3"),
        (9.5, 0.1, r"l must be an integer, got 9\.5"),
        (True, 0.5, "l must be an integer, got True"),
    ])
    def test_theoretical_coverage_refuses_impossible_inputs(self, l, alpha, message):
        # Before, (9, 1.5) gave -0.5, (9, -0.5) gave 1.5, (-3, 0.1) 0.5,
        # (9.5, 0.1) 0.9048 and (True, 0.5) 0.5.
        with pytest.raises(ValueError, match=f"^{message}$"):
            theoretical_coverage(l, alpha)
