import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfconformal import (
    Band,
    Calibration,
    ComponentGrid,
    Covariates,
    Dataset,
    FittedRegressor,
    Grid,
    ModulationSet,
    MFCurve,
    RegressorSpec,
    ScenarioSpec,
    Scores,
    ShapeError,
    Split,
    StudyConfig,
    TrimConfig,
    coverage_ci,
    eval_bspline,
    p_value,
    p_value_smoothed,
    predict,
    random_split,
    s_const,
    score,
    size_quartiles,
    sup_abs,
    theoretical_coverage,
    total_integral,
    uniform_bspline_basis,
    uniform_grid,
)
from mfconformal import core
from mfconformal.core import (_snap_floor, order_stat_index, smoothed_order_stat_index,
                              trapezoid_weights)
from mfconformal.simgen import BSplineBasis, basis_matrix, draw_trig_coefficients

from conftest import random_curve

# Entries that neither one observation nor one dataset row may hold.
BAD_ENTRIES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "str": "1.5",
               "bytes": b"2", "int beyond the float range": 10**400,
               "fraction": Fraction(1, 3)}


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

    # Finite integrands on a finite grid whose products overflow: to inf,
    # and to inf and -inf in two components, which sum to NaN.
    @pytest.mark.parametrize("signs,total", [((1,), "inf"), ((1, -1), "nan")],
                             ids=["inf", "nan"])
    def test_refuses_a_total_beyond_the_float_range(self, signs, total):
        comp = ComponentGrid.from_points([0.0, 1e300, 2e300])
        with pytest.raises(ShapeError, match=f"beyond the float range: "
                                             f"quadrature gives {total}"):
            total_integral([np.full(3, s * 1e10) for s in signs],
                           Grid((comp,) * len(signs)))


class TestGridTypes:
    def test_trapezoid_weights_sum_to_span(self):
        pts = np.array([0.0, 0.1, 0.4, 1.0])
        comp = ComponentGrid.from_points(pts)
        assert comp.measure == pytest.approx(1.0, abs=1e-15)
        assert np.all(comp.weights > 0)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ShapeError):
            ComponentGrid.from_points([0.0, 0.5, 0.3])

    def test_from_points_converts_its_points_once(self, monkeypatch):
        converted, readonly = [], core._readonly

        def spy(values, name, ndim=1):
            converted.append(name)
            return readonly(values, name, ndim)

        monkeypatch.setattr(core, "_readonly", spy)
        grid = ComponentGrid.from_points([0.0, 0.25, 1.0])
        assert converted == ["points", "weights"]
        assert grid == ComponentGrid(np.array([0.0, 0.25, 1.0]),
                                     np.array([0.125, 0.5, 0.375]))
        assert not (grid.points.flags.writeable or grid.weights.flags.writeable)

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

    def test_component_grid_equality_with_itself_and_other_types(self):
        comp = ComponentGrid.from_points([0.0, 1.0])
        assert comp == comp and not comp != comp
        assert not comp == "x" and comp != "x"

    def test_curve_must_be_finite(self):
        with pytest.raises(ShapeError):
            MFCurve((np.array([1.0, np.nan]),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scalar_covariates_must_be_finite(self, value):
        with pytest.raises(ShapeError, match="scalar covariate 'w'"):
            Covariates(scalar={"v": 1.0, "w": value})

    @pytest.mark.parametrize("value", [*BAD_ENTRIES.values(), np.array([1.0, 2.0])],
                             ids=[*BAD_ENTRIES, "array"])
    def test_scalar_covariates_must_be_numbers(self, value):
        # Before, Covariates checked its scalars by a rule of its own: text
        # read "scalar covariate 'w' is not a number: '1.5'", NaN "is not
        # finite: nan", 10**400 raised OverflowError and Fraction(1, 3) was
        # stored as 0.333... Now one observation and one dataset row refuse
        # the same value in the same words.
        with pytest.raises(ShapeError) as one:
            Covariates(scalar={"v": 1.0, "w": value})
        if isinstance(value, np.ndarray):
            assert str(one.value) == ("scalar covariate 'w' must be 0-dimensional, "
                                      "got shape (2,)")
            return
        with pytest.raises(ShapeError) as row:
            Dataset.from_blocks(uniform_grid(3), [np.zeros((2, 3))],
                                {"v": [1.0, 1.0], "w": [value, 1.0]})
        assert str(one.value) == str(row.value)

    @pytest.mark.parametrize("value", BAD_ENTRIES.values(), ids=list(BAD_ENTRIES))
    @pytest.mark.parametrize("kind", ["curve", "functional"])
    def test_one_observation_and_one_dataset_row_refuse_alike(self, kind, value):
        grid, good, bad = uniform_grid(3, p=2), np.zeros(3), [0.0, value, 1.0]
        blocks = (np.zeros((2, 3)), [bad, good])
        if kind == "curve":
            one = lambda: MFCurve((good, bad))
            rows = lambda: Dataset.from_blocks(grid, blocks)
            labels = ("curve component 1", "responses component 1")
        else:
            one = lambda: Covariates(functional={"f": (good, bad)})
            rows = lambda: Dataset.from_blocks(grid, (np.zeros((2, 3)),) * 2,
                                               functional={"f": blocks})
            labels = ("functional covariate 'f' component 1",) * 2
        with pytest.raises(ShapeError) as observation:
            one()
        with pytest.raises(ShapeError) as row:
            rows()
        message = str(observation.value)
        assert message.startswith(f"{labels[0]} ")
        assert message.replace(*labels, 1) == str(row.value)

    @pytest.mark.parametrize("value", [10**20, np.float32(0.1), True, np.int64(3),
                                       np.array(2.5), 2**53 + 1],
                             ids=["int beyond int64", "float32", "bool", "int64",
                                  "0-d array", "int of 54 bits"])
    def test_scalar_covariates_accepted_before_convert_as_before(self, value):
        assert Covariates(scalar={"w": value}).scalar["w"] == float(value)


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

    @pytest.mark.parametrize("kind, name", [
        ("Band", "lower bound component 0"), ("Scores", "scores"),
        ("ModulationSet", "modulation component 0"), ("BSplineBasis", "knot vector"),
    ], ids=["Band", "Scores", "ModulationSet", "BSplineBasis"])
    def test_non_finite_entry_is_a_shape_error(self, kind, name):
        # One non-finite rule for every stored array: a ShapeError, which
        # is a ValueError and exits 3 from the CLI.
        with pytest.raises(ShapeError, match=f"^{name} contains non-finite entries$"):
            stored_arrays(kind, np.array([0.25, np.nan, 0.75, 1.0]))


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

    @pytest.mark.parametrize("fault,message", [
        ("curve", "curve of pair 1 has 1 components, grid has 2"),
        ("functional", "functional covariate 'temp' of pair 1 has 3 components, grid has 2"),
    ], ids=["curve", "functional"])
    def test_pairs_are_checked_in_order(self, rng, grid2, fault, message):
        # Pair 1 has a wrong component count and pair 2 other covariate
        # names: the earlier pair's fault is named. Before, every pair's names
        # were checked before any component count, so pair 2 was named.
        temp = tuple(np.zeros(c.size) for c in grid2.components)
        pairs = [(Covariates(functional={"temp": temp}), random_curve(rng, grid2))
                 for _ in range(3)]
        x, y = pairs[1]
        pairs[1] = ((x, MFCurve(y.values[:1])) if fault == "curve" else
                    (Covariates(functional={"temp": temp + temp[:1]}), y))
        pairs[2] = (Covariates(), pairs[2][1])
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
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
        with pytest.raises(ShapeError, match=f"split index must be an integer, got {bad}"):
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
        (0, 0.1, "l 0 is below 1"),
        (-3, 0.1, "l -3 is below 1"),
        (9.5, 0.1, r"l must be an integer, got 9\.5"),
        (True, 0.5, "l must be an integer, got True"),
    ])
    def test_theoretical_coverage_refuses_impossible_inputs(self, l, alpha, message):
        # Before, (9, 1.5) gave -0.5, (9, -0.5) gave 1.5, (-3, 0.1) 0.5,
        # (9.5, 0.1) 0.9048 and (True, 0.5) 0.5.
        with pytest.raises(ValueError, match=f"^{message}$"):
            theoretical_coverage(l, alpha)


@pytest.mark.parametrize("call,error,message", [
    (lambda: random_split(10.0, 3), ValueError, "n must be an integer, got 10.0"),
    (lambda: random_split(10, 3.0), ValueError, "l must be an integer, got 3.0"),
    (lambda: random_split(10, True), ValueError, "l must be an integer, got True"),
    (lambda: order_stat_index(9.5, 0.1), ValueError, "count must be an integer, got 9.5"),
    (lambda: smoothed_order_stat_index(9.5, 0.1, 0.5), ValueError,
     "count must be an integer, got 9.5"),
    (lambda: uniform_grid(5.5), ShapeError, "n_points must be an integer, got 5.5"),
    (lambda: uniform_grid(5, p=1.5), ShapeError, "p must be an integer, got 1.5"),
    (lambda: random_split(2**70, 3), ValueError,
     "n 1180591620717411303424 is outside 2..9223372036854775807"),
    (lambda: order_stat_index(-5, 0.1), ValueError, "count -5 is below 1"),
], ids=["split n", "split l", "split l bool", "rank count", "smoothed rank count",
        "grid n_points", "grid p", "split n beyond numpy", "rank negative count"])
def test_integer_parameters_refuse_other_values(call, error, message):
    # Before, random_split(10.0, 3) raised numpy's AxisError, (10, 3.0) a
    # TypeError and (10, True) split with l = 1; order_stat_index(9.5, 0.1)
    # gave the rank 9.5; both uniform_grid calls raised TypeErrors;
    # random_split(2**70, 3) raised numpy's "Maximum allowed size exceeded"
    # and order_stat_index(-5, 0.1) gave the rank -3.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: coverage_ci(5.5, 10), "hits must be an integer, got 5.5"),
    (lambda: coverage_ci(True, 10), "hits must be an integer, got True"),
    (lambda: coverage_ci(5, "10"), "n must be an integer, got '10'"),
    (lambda: BSplineBasis(2.5, 6, np.zeros(8)), "order must be an integer, got 2.5"),
    (lambda: BSplineBasis(2, 6.0, np.zeros(8)), "n_basis must be an integer, got 6.0"),
    (lambda: uniform_bspline_basis(4.0, 6), "order must be an integer, got 4.0"),
    (lambda: draw_trig_coefficients(np.random.default_rng(0), 2.0),
     "count must be an integer, got 2.0"),
], ids=["hits", "hits bool", "n text", "basis order", "basis n_basis",
        "uniform basis order", "trig count"])
def test_counts_refuse_other_values(call, message):
    # Before, coverage_ci(5.5, 10) gave 0.55, (True, 10) a lower bound of
    # -0.086 and (5, "10") Python's comparison TypeError; BSplineBasis(2.5,
    # ...) asked for 8.5 knots, BSplineBasis(2, 6.0, ...) was built, and the
    # last two raised numpy's TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: trapezoid_weights(["0", "0.5", "1"]), "points is ragged or not numeric"),
    (lambda: trapezoid_weights([0.0, math.nan, 1.0]), "points contains non-finite entries"),
    (lambda: trapezoid_weights([1.0, 0.5, 0.0]), "need at least two ascending points"),
    (lambda: ComponentGrid.from_points(["0", "0.5", "1"]),
     "points is ragged or not numeric"),
    (lambda: ComponentGrid.from_points([0.0, 1.0, 0.5]),
     "need at least two ascending points"),
    (lambda: size_quartiles(["1", "2"]), "sizes is ragged or not numeric"),
    (lambda: size_quartiles([1.0, math.nan]), "sizes contains non-finite entries"),
    (lambda: size_quartiles([[1, 2], [3, 4]]),
     "sizes must be 1-dimensional, got shape (2, 2)"),
    (lambda: eval_bspline(uniform_bspline_basis(4, 6), ["1"] * 6, 0.5),
     "coefficients is ragged or not numeric"),
    (lambda: total_integral((np.array([0.0, math.nan, 1.0]),), uniform_grid(3)),
     "integrand component 0 contains non-finite entries"),
    (lambda: total_integral((["0", "0.5", "1"],), uniform_grid(3)),
     "integrand component 0 is ragged or not numeric"),
    (lambda: basis_matrix(uniform_bspline_basis(4, 6), ["0.5"]),
     "evaluation points is ragged or not numeric"),
    (lambda: basis_matrix(uniform_bspline_basis(4, 6), [10**400]),
     "evaluation points is beyond the float range"),
    (lambda: basis_matrix(uniform_bspline_basis(4, 6), [[0.5]]),
     "evaluation points must be 1-dimensional, got shape (1, 1)"),
], ids=["weights text", "weights nan", "weights descending", "grid text",
        "grid unsorted", "quartiles text", "quartiles nan", "quartiles 2-d",
        "spline text", "integral nan", "integral text", "basis points text",
        "basis points beyond the float range", "basis points 2-d"])
def test_public_functions_convert_arrays_by_the_one_rule(call, message):
    # Before, the text inputs were parsed as numbers (total_integral raised
    # numpy's "data type must provide an itemsize"), NaN came back as NaN,
    # descending points gave negative weights, the 2-d sizes were flattened
    # and the unsorted grid read "grid points must be strictly increasing";
    # basis_matrix parsed "0.5" and raised OverflowError for 10**400.
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()


SPAN_FAULT = "grid points span -1e+308 to 1e+308, a length beyond the float range"

# Each refusal of the core objects with its error type and exact message.
REFUSALS = {
    "component grid of one point": (
        lambda: ComponentGrid(np.array([0.0]), np.array([1.0])),
        ShapeError, "need at least two ascending points"),
    "unsorted component grid": (
        lambda: ComponentGrid(np.array([0.0, 1.0, 0.5]), np.array([0.25, 0.5, 0.25])),
        ShapeError, "need at least two ascending points"),
    "grid of text weights and one point": (
        lambda: ComponentGrid(np.array([0.0]), ["1"]),
        ShapeError, "need at least two ascending points"),
    "mismatched weights": (
        lambda: ComponentGrid(np.array([0.0, 1.0]), np.array([1.0])),
        ShapeError, "weights must have the same length as points"),
    "zero weight": (
        lambda: ComponentGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ShapeError, "quadrature weights must be strictly positive"),
    "grid of no components": (lambda: Grid(()), ShapeError,
                              "a grid needs at least one component"),
    "grid of a number": (lambda: Grid((1,)), ShapeError,
                         "grid components must be ComponentGrid instances"),
    "uniform grid of one point": (lambda: uniform_grid(1), ShapeError,
                                  "n_points 1 is below 2"),
    "empty domain": (lambda: uniform_grid(5, (1.0, 1.0)), ShapeError,
                     "domain must be a pair (a, b) with a < b"),
    "curve of no components": (lambda: MFCurve(()), ShapeError,
                               "a curve needs at least one component"),
    "empty training part": (lambda: Split((), (0,)), ShapeError,
                            "both split parts must be non-empty"),
    "unknown split strategy": (
        lambda: random_split(10, 3, seed=0, strategy="blocks"),
        ValueError, "unknown split strategy 'blocks'"),
    "unknown trim mode": (lambda: TrimConfig(alpha=0.1, mode="fancy"),
                          ValueError, "unknown mode 'fancy'"),
    # Grids whose span or weight total overflows. Before, numpy's overflow
    # warnings came first, and under filterwarnings = error they were the
    # failure: the weights came back [5e307, inf, 5e307], and the
    # constructor accepted weights that sum to inf.
    "trapezoid weights whose span overflows": (
        lambda: trapezoid_weights([-1e308, 0.0, 1e308]), ShapeError, SPAN_FAULT),
    "component grid whose span overflows": (
        lambda: ComponentGrid([-1e308, 1e308], [1e308, 1e308]), ShapeError, SPAN_FAULT),
    "trapezoid grid whose span overflows": (
        lambda: ComponentGrid.from_points([-1e308, 1e308]), ShapeError, SPAN_FAULT),
    "uniform grid whose span overflows": (
        lambda: uniform_grid(5, (-1e308, 1e308)), ShapeError, SPAN_FAULT),
    "weights whose sum overflows": (
        lambda: ComponentGrid([0.0, 1.0], [1e308, 1e308]),
        ShapeError, "weights sum beyond the float range"),
    # Scalar parameters of text or of an int beyond the float range. Before,
    # the text met a comparison (TypeError) or was parsed, and the int was
    # stored or raised OverflowError once used.
    "trim level of text": (lambda: TrimConfig(alpha="0.1"),
                           ShapeError, "alpha is ragged or not numeric"),
    "study level of text": (
        lambda: StudyConfig(ScenarioSpec(study=1, scenario=1, n=5), l=2, n_reps=1,
                            alpha="0.1"),
        ShapeError, "alpha is ragged or not numeric"),
    "coverage level of text": (lambda: theoretical_coverage(5, "0.1"),
                               ShapeError, "alpha is ragged or not numeric"),
    "tie-breaker of text": (lambda: TrimConfig(alpha=0.1, mode="smoothed", tau="0.5"),
                            ShapeError, "tau is ragged or not numeric"),
    "radius of text": (lambda: Calibration(radius="1", closure="closed"),
                       ShapeError, "radius is ragged or not numeric"),
    "radius beyond the float range": (
        lambda: Calibration(radius=10**400, closure="closed"),
        ShapeError, "radius is beyond the float range"),
    "error scale of text": (
        lambda: ScenarioSpec(study=1, scenario=1, n=5, error_scale="1"),
        ShapeError, "error_scale is ragged or not numeric"),
    "error scale beyond the float range": (
        lambda: ScenarioSpec(study=1, scenario=1, n=5, error_scale=10**400),
        ShapeError, "error_scale is beyond the float range"),
    "scale factor of text": (lambda: s_const(uniform_grid(5)).scale("2"),
                             ShapeError, "scale factor is ragged or not numeric"),
    "scale factor beyond the float range": (
        lambda: s_const(uniform_grid(5)).scale(10**400),
        ShapeError, "scale factor is beyond the float range"),
    "new score of text": (lambda: p_value_smoothed(Scores([1.0, 2.0]), "1", 0.5),
                          ShapeError, "new_score is ragged or not numeric"),
    "new score beyond the float range": (
        lambda: p_value(Scores([1.0, 2.0]), 10**400),
        ShapeError, "new_score is beyond the float range"),
    "grid domain beyond the float range": (
        lambda: uniform_grid(5, (0, 10**400)),
        ShapeError, "domain is beyond the float range"),
    "grid domain of text": (lambda: uniform_grid(5, ("0", "1")),
                            ShapeError, "domain is ragged or not numeric"),
    "spline domain beyond the float range": (
        lambda: uniform_bspline_basis(4, 6, (0, 10**400)),
        ShapeError, "domain is beyond the float range"),
    "spline point beyond the float range": (
        lambda: eval_bspline(uniform_bspline_basis(4, 6), np.ones(6), 10**400),
        ShapeError, "t is beyond the float range"),
    "spline point of text": (
        lambda: eval_bspline(uniform_bspline_basis(4, 6), np.ones(6), "0.5"),
        ShapeError, "t is ragged or not numeric"),
    "replication count beyond the float range": (
        lambda: coverage_ci(10**400, 10**401),
        ShapeError, "n is beyond the float range"),
    # The array rule names an int beyond the float range; before, it read
    # "is ragged or not numeric", as for text, and Covariates raised
    # OverflowError.
    "0-d array beyond the float range": (
        lambda: core._readonly(10**400, "x", 0), ShapeError, "x is beyond the float range"),
    "dataset scalar beyond the float range": (
        lambda: Dataset.from_blocks(uniform_grid(3), [np.zeros((2, 3))],
                                    {"w": [10**400, 1.0]}),
        ShapeError, "scalar covariate 'w' is beyond the float range"),
    "observation scalar beyond the float range": (
        lambda: Covariates(scalar={"w": 10**400}),
        ShapeError, "scalar covariate 'w' is beyond the float range"),
    # The builders' counts and domains. Before, the first two raised numpy's
    # "Number of samples, -1, must be non-negative." and "negative
    # dimensions are not allowed", a domain of one end Python's "not enough
    # values to unpack", and the reversed domain and the decreasing knots
    # built a basis that refused every point as outside its domain.
    "uniform basis of fewer functions than its order": (
        lambda: uniform_bspline_basis(4, 1), ValueError, "n_basis 1 is below 4"),
    "negative trig count": (
        lambda: draw_trig_coefficients(np.random.default_rng(0), -1),
        ValueError, "count -1 is below 0"),
    "grid domain of one end": (lambda: uniform_grid(5, (0.0,)), ShapeError,
                               "domain must be a pair (a, b) with a < b"),
    "spline domain of one end": (lambda: uniform_bspline_basis(4, 6, (0.0,)), ShapeError,
                                 "domain must be a pair (a, b) with a < b"),
    "reversed spline domain": (lambda: uniform_bspline_basis(4, 6, (1.0, 0.0)), ShapeError,
                               "domain must be a pair (a, b) with a < b"),
    "decreasing knot vector": (lambda: BSplineBasis(2, 3, [1, 1, 0.5, 0, 0]), ValueError,
                               "knot vector must be non-decreasing"),
    # Spline knots lie on uniform_grid's points, and a basis is defined on its
    # knots' span. Before, numpy's RuntimeWarning came first for the two
    # domains, and the basis on [0, 1] knots with a domain of [0, 2]
    # extrapolated its polynomials to t = 1.5.
    "spline domain of infinite length": (
        lambda: uniform_bspline_basis(4, 6, (0, math.inf)), ShapeError,
        "grid points span 0 to inf, a length beyond the float range"),
    "spline domain whose span overflows": (
        lambda: uniform_bspline_basis(4, 6, (-1e308, 1e308)), ShapeError, SPAN_FAULT),
    "basis point beyond the knots": (
        lambda: basis_matrix(BSplineBasis(4, 6, uniform_bspline_basis(4, 6).knots,
                                          domain=(0.0, 2.0)), [1.5]),
        ValueError, "evaluation points outside the basis domain [0.0, 1.0]"),
    # Knots too close for floats to tell apart, refused as uniform_grid
    # refuses such points, not built into a basis that divides by zero.
    "spline domain narrower than its knots": (
        lambda: uniform_bspline_basis(4, 6, (0.0, 5e-324)), ShapeError,
        "need at least two ascending points"),
    # A row index is an integer in 0..n-1. Before, curve(-1) gave the last
    # row, curve(1.5) raised numpy's IndexError and covariates(5) of a
    # covariate-free dataset returned an empty Covariates.
    "curve of a negative row": (
        lambda: Dataset.from_blocks(uniform_grid(3), [np.zeros((3, 3))]).curve(-1),
        ShapeError, "row index -1 is outside 0..2"),
    "curve of a fractional row": (
        lambda: Dataset.from_blocks(uniform_grid(3), [np.zeros((3, 3))]).curve(1.5),
        ShapeError, "row index must be an integer, got 1.5"),
    "covariates of a row beyond n": (
        lambda: Dataset.from_blocks(uniform_grid(3), [np.zeros((3, 3))]).covariates(5),
        ShapeError, "row index 5 is outside 0..2"),
    # Before, n = 1 gave "need 1 <= l <= n-1, got l=1, n=1", an empty range.
    "split of one observation": (lambda: random_split(1, 1), ValueError, "n 1 is below 2"),
    # Before, no pairs gave "responses component 0 must be 2-dimensional".
    "dataset of no pairs": (
        lambda: Dataset(uniform_grid(3, p=2), []), ShapeError,
        "responses have shapes [(0, 3), (0, 3)], expected one (count, G_j) block per "
        "component with count >= 1 and G_j = (3, 3)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_messages(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_stacked_integrals_are_each_functions_own_dot():
    """One np.vecdot per component gives each row of a stack the bits of its
    own np.dot with the weights; a single function gives a Python float."""
    rng = np.random.default_rng(7)
    grid = Grid((ComponentGrid.from_points(np.sort(rng.uniform(0, 1, 37))),
                 uniform_grid(100).components[0]))
    for rows in (1, 2, 5, 64):
        fns = [rng.standard_normal((rows, c.size)) * 10.0 ** rng.integers(-5, 5, (rows, 1))
               for c in grid.components]
        for c, f, stacked in zip(grid.components, fns, core._integrals(fns, grid)):
            assert stacked.tobytes() == np.array([np.dot(c.weights, r) for r in f]).tobytes()
        assert [type(v) for v in core._integrals([f[0] for f in fns], grid)] == [float] * 2
