import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mfconformal import (
    Band,
    ComponentGrid,
    Covariates,
    Grid,
    ScenarioSpec,
    calibrate,
    cli,
    csvio,
    fit,
    generate,
    make_band,
    random_split,
    s_const,
)
from mfconformal.bundle import save_bundle
from mfconformal.cli import EXIT_NUMERIC, EXIT_OK, EXIT_SCHEMA, main
from mfconformal.simgen import regressor_for

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def write_curves_csv(path, points, curves, p=1):
    """curves: dict curve_id -> list of per-component value arrays."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve_id", "component", "t", "value"])
        for cid, comps in curves.items():
            for j, values in enumerate(comps, start=1):
                for t, v in zip(points, values):
                    w.writerow([cid, j, repr(float(t)), repr(float(v))])


def write_scalar_csv(path, rows, names):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve_id"] + names)
        for cid, vals in rows.items():
            w.writerow([cid] + [repr(float(vals[n])) for n in names])


def write_functional_csv(path, name, points, tables, p=1):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve_id", "component", "t", name])
        for cid, comps in tables.items():
            for j, values in enumerate(comps, start=1):
                for t, v in zip(points, values):
                    w.writerow([cid, j, repr(float(t)), repr(float(v))])


def corrupt_line(line, fault):
    """A CSV line whose first field is over the csv module's 131072-character
    limit, or which carries a byte that is not UTF-8."""
    if fault == "long-field":
        return b'"' + b"x" * 131073 + b'"' + line[line.index(b","):]
    return b"\xff" + line


def write_config(path, **kwargs):
    with open(path, "w") as fh:
        json.dump(kwargs, fh)


class TestCalibrateCommand:
    def test_toy_radius_is_single_calibration_score(self, tmp_path):
        points = np.linspace(0, 1, 5)
        base = np.zeros(5)
        other = np.array([0.0, 0.2, -0.9, 0.4, 0.1])
        write_curves_csv(tmp_path / "curves.csv", points, {"a": [base], "b": [other]})
        write_config(
            tmp_path / "config.json",
            alpha=0.5,
            modulation="s0",
            regressor={"kind": "intercept_only"},
            split={"strategy": "explicit", "train": [0], "calib": [1]},
        )
        out = tmp_path / "bundle.json"
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        # intercept fit on curve a alone predicts a; the single calibration
        # score is max|b - a| / s0 with s0 = 1 on a unit domain.
        assert doc["radius"] == pytest.approx(0.9, rel=1e-12)
        assert doc["metadata"]["l"] == 1
        assert doc["metadata"]["theoretical_coverage"] == 0.5

    def test_parity_case_study_shape(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        points = np.linspace(0, 1, 12)
        curves = {
            f"day{d:02d}": [rng.normal(size=12), rng.normal(size=12)]
            for d in range(1, 42)
        }
        write_curves_csv(tmp_path / "curves.csv", points, curves, p=2)
        write_config(
            tmp_path / "config.json",
            alpha=0.25,
            modulation="sigma",
            regressor={"kind": "intercept_only"},
            split={"strategy": "parity", "l": 19},
        )
        out = tmp_path / "bundle.json"
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(out)]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "theoretical coverage = 0.75" in captured
        doc = json.loads(out.read_text())
        assert doc["metadata"]["m"] == 22 and doc["metadata"]["l"] == 19

    def test_rerun_writes_identical_bytes(self, tmp_path):
        points = np.linspace(0, 1, 6)
        rng = np.random.default_rng(3)
        curves = {f"c{i}": [rng.normal(size=6)] for i in range(6)}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_scalar_csv(
            tmp_path / "cov.csv",
            {f"c{i}": {"w": (i + 1) / 7} for i in range(6)},
            ["w"],
        )
        write_config(
            tmp_path / "config.json",
            alpha=0.5,
            modulation="sigma",
            regressor={"kind": "concurrent_fos", "terms": [["w"]]},
            split={"strategy": "random", "l": 2, "seed": 11},
        )
        raw = []
        for name in ("b1.json", "b2.json"):
            code = main(
                ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "cov.csv"),
                 str(tmp_path / "config.json"), "-o", str(tmp_path / name)]
            )
            assert code == EXIT_OK
            raw.append((tmp_path / name).read_bytes())
        assert raw[0] == raw[1]
        assert "created" not in json.loads(raw[0])["metadata"]

    @pytest.mark.parametrize("alpha", [0.0, -0.1])
    def test_alpha_outside_unit_interval_is_a_range_error(self, tmp_path, capsys, alpha):
        points = np.linspace(0, 1, 4)
        curves = {"a": [np.zeros(4)], "b": [np.ones(4)], "c": [np.ones(4) * 2]}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_config(
            tmp_path / "config.json",
            alpha=alpha,
            regressor={"kind": "intercept_only"},
            split={"strategy": "explicit", "train": [0], "calib": [1, 2]},
        )
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(tmp_path / "b.json")]
        )
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert f"alpha must lie in (0, 1), got {alpha}" in err
        assert "feasibility" not in err

    def test_infeasible_alpha_reports_bound(self, tmp_path, capsys):
        points = np.linspace(0, 1, 4)
        curves = {"a": [np.zeros(4)], "b": [np.ones(4)], "c": [np.ones(4) * 2]}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_config(
            tmp_path / "config.json",
            alpha=0.10,  # < 1/(l+1) = 1/3
            regressor={"kind": "intercept_only"},
            split={"strategy": "explicit", "train": [0], "calib": [1, 2]},
        )
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(tmp_path / "b.json")]
        )
        assert code == EXIT_NUMERIC
        assert "1/(l+1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha,expected", [(0.1 * (1 - 5e-10), EXIT_OK), (0.1 * (1 - 3e-9), EXIT_NUMERIC)]
    )
    def test_feasibility_follows_the_rank_rule(self, tmp_path, alpha, expected):
        # l=9 and alpha a hair below 1/(l+1): inside the rank rule's snapping
        # tolerance the rank is 9 and the radius the largest score, outside
        # it the band would be the whole space.
        points = np.linspace(0, 1, 4)
        curves = {"a": [np.zeros(4)]}
        curves.update({f"c{k}": [np.full(4, float(k))] for k in range(1, 10)})
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_config(
            tmp_path / "config.json",
            alpha=alpha,
            modulation="s0",
            regressor={"kind": "intercept_only"},
            split={"strategy": "explicit", "train": [0], "calib": list(range(1, 10))},
        )
        out = tmp_path / "b.json"
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(out)]
        )
        assert code == expected
        if expected == EXIT_OK:
            assert json.loads(out.read_text())["radius"] == 9.0

    @pytest.mark.parametrize("text", ["nan", "inf", "1e999"])
    def test_non_finite_training_covariate_is_schema_error(self, tmp_path, capfd, text):
        points = np.linspace(0, 1, 6)
        rng = np.random.default_rng(4)
        curves = {f"c{i}": [rng.normal(size=6)] for i in range(6)}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        rows = [f"c{i},{(i + 1) / 7!r}" for i in range(6)]
        rows[1] = f"c1,{text}"  # a training row, on line 3
        (tmp_path / "cov.csv").write_text("curve_id,w\n" + "\n".join(rows) + "\n")
        write_config(
            tmp_path / "config.json",
            alpha=0.5,
            modulation="sigma",
            regressor={"kind": "concurrent_fos", "terms": [["w"]]},
            split={"strategy": "explicit", "train": [0, 1, 2, 3], "calib": [4, 5]},
        )
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "cov.csv"),
             str(tmp_path / "config.json"), "-o", str(tmp_path / "b.json")]
        )
        out, err = capfd.readouterr()
        assert code == EXIT_SCHEMA
        assert f"line 3: w {text!r} is not finite" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("fault", ["long-field", "not-utf8"])
    def test_unreadable_curves_csv_is_schema_error(self, tmp_path, capfd, fault):
        points = np.linspace(0, 1, 4)
        curves = {f"c{i}": [np.full(4, float(i))] for i in range(4)}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        lines = (tmp_path / "curves.csv").read_bytes().splitlines(keepends=True)
        lines[2] = corrupt_line(lines[2], fault)
        (tmp_path / "curves.csv").write_bytes(b"".join(lines))
        write_config(tmp_path / "config.json", alpha=0.5,
                     split={"strategy": "random", "l": 2, "seed": 0})
        code = main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(tmp_path / "b.json")]
        )
        err = capfd.readouterr().err
        assert code == EXIT_SCHEMA
        assert "Traceback" not in err
        assert ("line 3: field larger than field limit" if fault == "long-field"
                else "is not UTF-8 text") in err

    @pytest.mark.parametrize("table", ["scalar", "functional"])
    def test_covariate_table_missing_a_curve_is_schema_error(self, tmp_path, capsys,
                                                            table):
        points = np.linspace(0, 1, 5)
        ids = [f"c{i}" for i in range(12)]
        write_curves_csv(tmp_path / "curves.csv", points,
                         {cid: [np.full(5, float(i))] for i, cid in enumerate(ids)})
        args = ["calibrate", str(tmp_path / "curves.csv")]
        if table == "scalar":
            write_scalar_csv(tmp_path / "cov.csv", {cid: {"w": 0.5} for cid in ids[:-1]},
                             ["w"])
            args.append(str(tmp_path / "cov.csv"))
        else:
            write_functional_csv(tmp_path / "x.csv", "x", points,
                                 {cid: [np.ones(5)] for cid in ids[:-1]})
        write_config(tmp_path / "config.json", alpha=0.5,
                     functional_covariates=[str(tmp_path / "x.csv")]
                     if table == "functional" else [],
                     split={"strategy": "random", "l": 5, "seed": 0})
        code = main(args + [str(tmp_path / "config.json"), "-o", str(tmp_path / "b.json")])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: covariates file has no row for curve 'c11'\n" if table == "scalar"
            else "error: functional covariate 'x' has no rows for curve 'c11'\n")

    def test_duplicate_scalar_covariate_names_are_schema_error(self, tmp_path, capsys):
        write_curves_csv(tmp_path / "curves.csv", np.linspace(0, 1, 5),
                         {f"c{i}": [np.zeros(5)] for i in range(4)})
        (tmp_path / "cov.csv").write_text(
            "curve_id,w,w\n" + "".join(f"c{i},0.5,0.5\n" for i in range(4)))
        write_config(tmp_path / "config.json", alpha=0.5,
                     split={"strategy": "random", "l": 2, "seed": 0})
        code = main(["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "cov.csv"),
                     str(tmp_path / "config.json"), "-o", str(tmp_path / "b.json")])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == "error: line 1: duplicate covariate names\n"

    @pytest.mark.parametrize("seed,infinite", [(4, True), (3, False)])
    def test_smoothed_mode_draws_tau_from_the_seed(self, tmp_path, capsys, seed,
                                                   infinite):
        # l = 4 and alpha = 0.1: the band is the whole space for tau > 0.5,
        # which seed 4 draws (0.943) and seed 3 does not (0.086).
        points = np.linspace(0, 1, 5)
        write_curves_csv(tmp_path / "curves.csv", points,
                         {f"c{i}": [np.full(5, float(i))] for i in range(10)})
        write_config(tmp_path / "config.json", alpha=0.1, mode="smoothed", seed=seed,
                     split={"strategy": "random", "l": 4, "seed": 0})
        out = tmp_path / "b.json"
        assert main(["calibrate", str(tmp_path / "curves.csv"),
                     str(tmp_path / "config.json"), "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["tau"] == float(np.random.default_rng(seed).uniform())
        assert doc["infinite"] is infinite
        note = ("note: the calibrated band is infinite (alpha below the smoothed "
                "feasibility bound)\n")
        assert capsys.readouterr().out.startswith(note) is infinite

    def test_schema_error_is_exit_2(self, tmp_path):
        (tmp_path / "bad.csv").write_text("id,comp,t,value\nx,1,0.0,1.0\n")
        write_config(tmp_path / "config.json", alpha=0.5,
                     split={"strategy": "random", "l": 1, "seed": 0})
        code = main(
            ["calibrate", str(tmp_path / "bad.csv"), str(tmp_path / "config.json"),
             "-o", str(tmp_path / "b.json")]
        )
        assert code == EXIT_SCHEMA

    def test_unwritable_output_exits_3_before_any_csv_is_read(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("id,comp,t,value\nx,1,0.0,1.0\n")
        write_config(tmp_path / "config.json", alpha=0.5,
                     split={"strategy": "random", "l": 1, "seed": 0})
        code = main(["calibrate", str(tmp_path / "bad.csv"),
                     str(tmp_path / "config.json"), "-o", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"error: cannot write -o {tmp_path}: it is a directory\n")


class TestBandCommand:
    def test_infinite_bundle_exits_3_before_any_csv_is_read(self, tmp_path, capsys):
        # Smoothed at l=4 and tau=0.9, alpha=0.1 lies below tau/(l+1) = 0.18,
        # so the band is the whole space.
        spec = ScenarioSpec(study=1, scenario=1, n=10, grid_points=20)
        dataset, _ = generate(spec)
        split = random_split(10, 4, seed=0)
        model = fit(dataset, split.train_idx, regressor_for(spec))
        pred = calibrate(dataset, split, model, s_const(dataset.grid), 0.1,
                         mode="smoothed", tau=0.9)
        assert pred.infinite
        save_bundle(tmp_path / "bundle.json", pred)
        (tmp_path / "new.csv").write_text("curve_id,w,w2\nnew,0.5\n")
        code = main(["band", str(tmp_path / "bundle.json"), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "infinite band (alpha below 0.9/(l+1))" in err
        assert not (tmp_path / "band.csv").exists()

    def _calibrated_bundle(self, tmp_path, n=10, l=4, alpha=0.25):
        rng = np.random.default_rng(17)
        points = np.linspace(0, 1, 8)
        ws = {f"c{i}": (i + 1) / (n + 1) for i in range(n)}
        curves = {
            cid: [2.0 + 3.0 * w * np.ones(8) + 0.2 * rng.normal(size=8)]
            for cid, w in ws.items()
        }
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_scalar_csv(tmp_path / "cov.csv", {c: {"w": w} for c, w in ws.items()}, ["w"])
        write_config(
            tmp_path / "config.json",
            alpha=alpha,
            modulation="sigma",
            regressor={"kind": "concurrent_fos", "terms": [["w"]]},
            split={"strategy": "random", "l": l, "seed": 5},
        )
        bundle = tmp_path / "bundle.json"
        assert main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "cov.csv"),
             str(tmp_path / "config.json"), "-o", str(bundle)]
        ) == EXIT_OK
        return bundle, points, ws, curves, rng

    def test_round_trip_matches_in_process_band(self, tmp_path):
        bundle, points, ws, curves, rng = self._calibrated_bundle(tmp_path)
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.37}}, ["w"])
        out = tmp_path / "band.csv"
        assert main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(out)]) == EXIT_OK

        from mfconformal.bundle import load_bundle

        pred, _ = load_bundle(bundle)
        expected = make_band(pred, Covariates(scalar={"w": 0.37}))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for g, row in enumerate(rows):
            assert int(row["component"]) == 1
            assert float(row["t"]) == points[g]
            assert float(row["lower"]) == expected.lower[0][g]
            assert float(row["upper"]) == expected.upper[0][g]
            assert row["closure"] == "closed"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_exits_3_before_the_band_is_computed(
            self, tmp_path, capsys, monkeypatch, where):
        bundle = self._calibrated_bundle(tmp_path)[0]
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.37}}, ["w"])
        before = sorted(tmp_path.iterdir())
        out, problem = {
            "missing directory": (tmp_path / "missing" / "band.csv",
                                  f"{tmp_path / 'missing'} is not an existing directory"),
            "directory": (tmp_path, "it is a directory"),
        }[where]
        made = []
        monkeypatch.setattr(cli.conformal, "make_band", made.append)
        code = main(["band", str(bundle), str(tmp_path / "new.csv"), "-o", str(out)])
        assert code == EXIT_NUMERIC and made == []
        assert capsys.readouterr().err == f"error: cannot write -o {out}: {problem}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_zero_radius_bundle_degenerates(self, tmp_path):
        # Noiseless linear data, correctly specified model: all calibration
        # scores are ~0, so lower == upper == prediction.
        points = np.linspace(0, 1, 5)
        n = 8
        ws = {f"c{i}": (i + 1) / (n + 1) for i in range(n)}
        curves = {cid: [1.0 + 2.0 * w * np.ones(5)] for cid, w in ws.items()}
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_scalar_csv(tmp_path / "cov.csv", {c: {"w": w} for c, w in ws.items()}, ["w"])
        write_config(
            tmp_path / "config.json",
            alpha=0.4,
            modulation="s0",
            regressor={"kind": "concurrent_fos", "terms": [["w"]]},
            split={"strategy": "random", "l": 3, "seed": 1},
        )
        bundle = tmp_path / "bundle.json"
        assert main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "cov.csv"),
             str(tmp_path / "config.json"), "-o", str(bundle)]
        ) == EXIT_OK
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.5}}, ["w"])
        out = tmp_path / "band.csv"
        assert main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["lower"]) == pytest.approx(float(row["upper"]), abs=1e-9)
            assert float(row["lower"]) == pytest.approx(1.0 + 2.0 * 0.5, abs=1e-9)

    def test_truncate_at_zero_clips_lower(self, tmp_path):
        bundle, points, ws, curves, rng = self._calibrated_bundle(tmp_path)
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": -2.0}}, ["w"])
        out = tmp_path / "band.csv"
        assert main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "--truncate-at-zero", "-o", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        lowers = [float(r["lower"]) for r in rows]
        assert min(lowers) == 0.0  # something got clipped
        assert all(lo >= 0.0 for lo in lowers)

    def test_multiple_rows_need_curve_id(self, tmp_path):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        write_scalar_csv(
            tmp_path / "new.csv", {"p": {"w": 0.1}, "q": {"w": 0.9}}, ["w"]
        )
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        assert code == EXIT_NUMERIC
        assert main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "--curve-id", "q", "-o", str(tmp_path / "band.csv")]) == EXIT_OK

    def test_absent_curve_id_exits_3(self, tmp_path, capsys):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        capsys.readouterr()
        new = tmp_path / "new.csv"
        write_scalar_csv(new, {"p": {"w": 0.1}, "q": {"w": 0.9}}, ["w"])
        code = main(["band", str(bundle), str(new), "--curve-id", "r",
                     "-o", str(tmp_path / "band.csv")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: curve id 'r' not in {new}\n"
        assert not (tmp_path / "band.csv").exists()

    def test_nan_covariate_at_band_time_is_schema_error(self, tmp_path, capfd):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        capfd.readouterr()
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": float("nan")}}, ["w"])
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        out, err = capfd.readouterr()
        assert code == EXIT_SCHEMA
        assert "line 2: w 'nan' is not finite" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("fault", ["long-field", "not-utf8"])
    def test_unreadable_covariates_csv_is_schema_error(self, tmp_path, capfd, fault):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        capfd.readouterr()
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.3}}, ["w"])
        header, row = (tmp_path / "new.csv").read_bytes().splitlines(keepends=True)
        (tmp_path / "new.csv").write_bytes(header + corrupt_line(row, fault))
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        err = capfd.readouterr().err
        assert code == EXIT_SCHEMA
        assert "Traceback" not in err
        assert ("line 2: field larger than field limit" if fault == "long-field"
                else "is not UTF-8 text") in err

    @pytest.mark.parametrize(
        "corrupt",
        [lambda doc: [doc], lambda doc: {**doc, "metadata": 5}],
        ids=["top-level-list", "metadata-int"],
    )
    def test_malformed_bundle_fails_at_load(self, tmp_path, capsys, corrupt):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        capsys.readouterr()
        bundle.write_text(json.dumps(corrupt(json.loads(bundle.read_text()))))
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.3}}, ["w"])
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        assert code == EXIT_NUMERIC
        assert "malformed bundle" in capsys.readouterr().err

    def test_version_mismatch_fails_loudly(self, tmp_path):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        doc = json.loads(bundle.read_text())
        doc["format_version"] = 99
        bundle.write_text(json.dumps(doc))
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.3}}, ["w"])
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("version,message", [
        (True, "malformed bundle: 'format_version' must be a JSON number, got true"),
        (2, "bundle format version 2 not supported (this build reads version 1)"),
    ], ids=["boolean", "other-integer"])
    def test_version_must_be_the_integer_one(self, tmp_path, capsys, version,
                                             message):
        bundle, *_ = self._calibrated_bundle(tmp_path)
        doc = json.loads(bundle.read_text())
        doc["format_version"] = version
        bundle.write_text(json.dumps(doc))
        write_scalar_csv(tmp_path / "new.csv", {"new": {"w": 0.3}}, ["w"])
        capsys.readouterr()
        code = main(["band", str(bundle), str(tmp_path / "new.csv"),
                     "-o", str(tmp_path / "band.csv")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "band.csv").exists()


class TestFunctionalCovariates:
    def test_calibrate_and_band_with_functional_covariate(self, tmp_path):
        rng = np.random.default_rng(23)
        points = np.linspace(0, 1, 7)
        n = 9
        temps = {f"c{i}": [np.sin(3 * points + rng.uniform(0, 6))] for i in range(n)}
        curves = {
            cid: [0.5 + 2.0 * tmp[0] + 0.05 * rng.normal(size=7)]
            for cid, tmp in temps.items()
        }
        write_curves_csv(tmp_path / "curves.csv", points, curves)
        write_functional_csv(tmp_path / "temp.csv", "temp", points, temps)
        write_config(
            tmp_path / "config.json",
            alpha=0.5,
            modulation="s0",
            regressor={"kind": "concurrent_fof", "terms": [["temp"]]},
            split={"strategy": "random", "l": 3, "seed": 2},
            functional_covariates=[str(tmp_path / "temp.csv")],
        )
        bundle = tmp_path / "bundle.json"
        assert main(
            ["calibrate", str(tmp_path / "curves.csv"), str(tmp_path / "config.json"),
             "-o", str(bundle)]
        ) == EXIT_OK

        write_scalar_csv(tmp_path / "new.csv", {"new": {}}, [])
        write_functional_csv(
            tmp_path / "temp_new.csv", "temp", points, {"new": [np.cos(points)]}
        )
        out = tmp_path / "band.csv"
        assert main(
            ["band", str(bundle), str(tmp_path / "new.csv"),
             "--functional", str(tmp_path / "temp_new.csv"), "-o", str(out)]
        ) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        mid = [(float(r["lower"]) + float(r["upper"])) / 2 for r in rows]
        # the fitted response should roughly track 0.5 + 2 cos(t)
        assert np.allclose(mid, 0.5 + 2.0 * np.cos(points), atol=0.2)


class TestStudyCommand:
    def test_smoke_report_fields(self, tmp_path):
        write_config(
            tmp_path / "study.json",
            configs=[
                {"study": 1, "scenario": 1, "n": 20, "covariate_set": 2,
                 "l": 9, "alpha": 0.10, "modulation": "sigma", "n_reps": 10,
                 "master_seed": 1, "coeff_seed": 7, "grid_points": 50}
            ],
        )
        report = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        code = main(["study", str(tmp_path / "study.json"),
                     "--report", str(report), "--table", str(table)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        (entry,) = doc["reports"]
        assert entry["theoretical_coverage"] == 0.9
        assert 0.0 <= entry["coverage"] <= 1.0
        assert entry["config"]["n"] == 20
        with open(table) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["l"] == "9"

    def test_report_and_table_bytes_independent_of_workers(self, tmp_path):
        # Each worker process builds its own per-cell constants; the files
        # must not show how the replications were spread.
        cells = [
            {"study": 1, "scenario": 1, "n": 20, "l": 9, "n_reps": 12,
             "modulation": "sigma", "method": "mpb", "master_seed": 5,
             "coeff_seed": 7, "grid_points": 30},
            {"study": 2, "scenario": 3, "n": 20, "l": 9, "n_reps": 12,
             "modulation": "sigma", "method": "cub", "master_seed": 5,
             "coeff_seed": 7, "grid_points": 30},
        ]
        outputs = []
        for workers in (1, 2):
            write_config(tmp_path / "study.json", workers=workers, configs=cells)
            report, table = tmp_path / f"r{workers}.json", tmp_path / f"t{workers}.csv"
            code = main(["study", str(tmp_path / "study.json"),
                         "--report", str(report), "--table", str(table)])
            assert code == EXIT_OK
            outputs.append((report.read_bytes(), table.read_bytes()))
        assert outputs[0] == outputs[1]
        methods = [r["config"]["method"] for r in json.loads(outputs[0][0])["reports"]]
        assert methods == ["mpb", "cub"]

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # Only a study with workers > 1 imports the process pool, so every
        # command run in one process starts without its import.
        probe = ("import sys, mfconformal.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_golden_report_frozen_and_reproducible(self, tmp_path):
        write_config(
            tmp_path / "study.json",
            configs=[
                {"study": 1, "scenario": 1, "n": 20, "covariate_set": 2,
                 "l": 9, "alpha": 0.10, "modulation": "sigma", "n_reps": 50,
                 "master_seed": 2024, "coeff_seed": 7, "grid_points": 50}
            ],
        )
        outputs = []
        for tag in ("1", "2"):
            report = tmp_path / f"report{tag}.json"
            code = main(["study", str(tmp_path / "study.json"),
                         "--report", str(report),
                         "--table", str(tmp_path / f"table{tag}.csv")])
            assert code == EXIT_OK
            outputs.append(report.read_bytes())
        assert outputs[0] == outputs[1]
        (entry,) = json.loads(outputs[0])["reports"]
        # golden values established once by this implementation
        assert entry["hits"] == 48
        assert entry["coverage"] == 0.96
        assert entry["size_median"] == 10.95265461885055

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        # Parse only: a key that nothing reads fails here, not hours into a
        # paper-grid run.
        doc = json.loads(path.read_text())
        assert set(doc) <= {"configs", "workers"}
        for entry in doc["configs"]:
            cli._study_config_from_doc(entry, workers=1)

    def test_absent_entry_keys_take_the_dataclass_defaults(self, tmp_path):
        required = {"study": 1, "scenario": 1, "n": 8, "l": 4, "n_reps": 3}
        defaults = {"covariate_set": 2, "coeff_seed": 0, "grid_points": 100,
                    "error_scale": 1.0, "alpha": 0.1, "modulation": "sigma",
                    "mode": "split", "method": "mpb", "master_seed": 0}
        outputs = []
        for entry in (required, {**required, **defaults, "skip_failures": False}):
            write_config(tmp_path / "study.json", workers=1, configs=[entry])
            code = main(["study", str(tmp_path / "study.json"),
                         "--report", str(tmp_path / "r.json"),
                         "--table", str(tmp_path / "t.csv")])
            assert code == EXIT_OK
            outputs.append(((tmp_path / "r.json").read_bytes(),
                            (tmp_path / "t.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        (report,) = json.loads(outputs[0][0])["reports"]
        assert report["config"] == {**required, **defaults}

    def test_missing_configs_key(self, tmp_path):
        write_config(tmp_path / "study.json", workers=1)
        code = main(["study", str(tmp_path / "study.json"),
                     "--report", str(tmp_path / "r.json"),
                     "--table", str(tmp_path / "t.csv")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("text,message", [
        (None, "No such file or directory"),
        ("{", "study.json is not valid JSON"),
        ("[]", "study.json: the top level must be a JSON object"),
    ])
    def test_config_document_faults_exit_3(self, tmp_path, capsys, text, message):
        if text is not None:
            (tmp_path / "study.json").write_text(text)
        code = main(["study", str(tmp_path / "study.json"),
                     "--report", str(tmp_path / "r.json"),
                     "--table", str(tmp_path / "t.csv")])
        assert code == EXIT_NUMERIC and message in capsys.readouterr().err

    def test_a_floating_point_fault_exits_3_with_the_check_that_refuses_it(
            self, tmp_path, capsys):
        write_config(tmp_path / "study.json", workers=1, configs=[
            {"study": 1, "scenario": 1, "n": 20, "l": 9, "n_reps": 3,
             "error_scale": 1e308}])
        with pytest.warns(RuntimeWarning):
            code = main(["study", str(tmp_path / "study.json"),
                         "--report", str(tmp_path / "r.json"),
                         "--table", str(tmp_path / "t.csv")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: replication 0 failed: responses component 0 contains "
            "non-finite entries\n")

    @pytest.mark.parametrize("option", ["--report", "--table"])
    def test_unwritable_output_exits_3_before_any_cell_runs(self, tmp_path, capsys,
                                                           monkeypatch, option):
        write_config(tmp_path / "study.json", workers=1, configs=[
            {"study": 1, "scenario": 1, "n": 8, "l": 4, "n_reps": 3}])
        ran = []
        monkeypatch.setattr(cli.harness, "run_study", ran.append)
        paths = {"--report": str(tmp_path / "r.json"), "--table": str(tmp_path / "t.csv"),
                 option: str(tmp_path / "missing" / "out")}
        code = main(["study", str(tmp_path / "study.json"),
                     "--report", paths["--report"], "--table", paths["--table"]])
        assert code == EXIT_NUMERIC and ran == []
        assert capsys.readouterr().err == (
            f"error: cannot write {option} {tmp_path / 'missing' / 'out'}: "
            f"{tmp_path / 'missing'} is not an existing directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study.json"]


class TestCachedParser:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["study", str(tmp_path / "absent.json")]) == EXIT_NUMERIC
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_the_cached_parser_carries_nothing_between_calls(self, capsys):
        parse = cli._parser().parse_args
        first = parse(["band", "b.json", "new.csv", "--functional", "f.csv",
                       "--truncate-at-zero"])
        assert first.functional == ["f.csv"] and first.truncate_at_zero
        with pytest.raises(SystemExit) as usage:
            parse(["band", "b.json", "--no-such-flag"])
        assert usage.value.code == 2
        for argv in (["band", "b.json", "new.csv"], ["study", "s.json"]):
            assert vars(parse(argv)) == vars(cli.build_parser().parse_args(argv))


def test_band_csv_writes_each_float_as_its_repr(tmp_path):
    values = np.array([-1.5e-7, -0.0, 5e-324, 0.1 + 0.2, 1e16])
    grid = Grid((ComponentGrid.from_points(values),
                 ComponentGrid.from_points(np.arange(5.0))))
    lower = (values, -np.abs(values))
    upper = (np.abs(values), np.abs(values))
    csvio.write_band_csv(tmp_path / "band.csv", grid,
                         Band(lower, upper, closure="open"))
    rows = [f"{j + 1},{t!r},{lo!r},{hi!r},open\r\n"
            for j, comp in enumerate(grid.components)
            for t, lo, hi in zip(comp.points.tolist(), lower[j].tolist(),
                                 upper[j].tolist())]
    assert rows[1] == "1,-0.0,-0.0,0.0,open\r\n"
    assert (tmp_path / "band.csv").read_bytes().decode() == (
        "component,t,lower,upper,closure\r\n" + "".join(rows))
