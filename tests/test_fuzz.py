"""Mutation fuzzing of the command-line readers.

Every command is driven through ``cli.main`` with a mutated input: a model
bundle, a curves or covariates CSV, a calibrate config or a study config.
Whatever the mutation, the command must return 0, 2 or 3 without raising; a
nonzero exit must come with an ``error:`` line on stderr, and a band written
with exit 0 must be finite (a mutation may leave the input valid). Each known
fault is pinned twice: as an ``@example`` of its fuzz test and as a case of a
test that requires exit 3 with a message naming the fault.
"""

import copy
import csv
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfconformal import harness
from mfconformal.cli import EXIT_NUMERIC, EXIT_OK, EXIT_SCHEMA, main
from mfconformal.simgen import ScenarioSpec

DELETE = "<delete>"
# A value whose JSON text runs to thousands of characters, which no refusal
# may quote whole.
LONG_LIST = [0.125] * 500

# Replacement values for a JSON node. The study set has no large integers:
# a mutated "n", "n_reps" or "workers" must not allocate or spawn much.
STUDY_VALUES = [DELETE, None, True, False, -1, 0, 1, 0.5, math.inf, -math.inf,
                math.nan, 1e-320, "", "x", [], [1], {}, {"a": 1}]
VALUES = STUDY_VALUES + [2, 5, 10**30, "w", [[["w"]], ["w"]], [["w"], ["w"]]]

# A path step is a dict key (str) or, for drawn paths, an integer that picks
# the i-th key or element of the node modulo its size.
PATHS = st.lists(st.integers(0, 15), max_size=5)


def mutations(values):
    return st.lists(st.tuples(PATHS, st.sampled_from(values)), min_size=1, max_size=3)


def mutate(doc, path, value):
    """Copy of ``doc`` with the node at ``path`` replaced by ``value``
    (removed for DELETE). Descent stops at a scalar or an empty container; a
    string step may name a new key."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for step in path:
        if not isinstance(node, (dict, list)) or not (node or isinstance(step, str)):
            break
        if isinstance(step, str):
            key = step
        elif isinstance(node, dict):
            key = sorted(node)[step % len(node)]
        else:
            key = step % len(node)
        parent, node = node, node.get(key) if isinstance(node, dict) else node[key]
    if parent is None:
        return None if value == DELETE else value
    if value == DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def mutate_all(doc, edits):
    for path, value in edits:
        doc = mutate(doc, path, value)
    return doc


def edit_csv(data: bytes, edits) -> bytes:
    """Apply line edits: drop, duplicate or halve a line, or set one of its
    comma-separated fields."""
    lines = data.split(b"\n")
    for line, action, col, field in edits:
        if not lines:
            break
        i = line % len(lines)
        if action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = lines[i][: len(lines[i]) // 2]
        else:
            cells = lines[i].split(b",")
            cells[col % len(cells)] = field
            lines[i] = b",".join(cells)
    return b"\n".join(lines)


CSV_FIELDS = [b"", b"nan", b"inf", b"1e999", b"-1", b"0", b"2", b"3", b"1e-320",
              b"x", b'"', b"\xff", b"a,b", b"curve_id", b"c0", b"value"]
CSV_EDITS = st.lists(
    st.tuples(st.integers(0, 100), st.sampled_from(["drop", "dup", "cut", "set"]),
              st.integers(0, 5), st.sampled_from(CSV_FIELDS)),
    min_size=1, max_size=3,
)

CALIBRATE_CONFIG = {
    "alpha": 0.4,
    "mode": "split",
    "tau": None,
    "seed": 0,
    "modulation": "sigma",
    "regressor": {"kind": "concurrent_fos", "terms": [["w"], ["w"]], "intercept": True},
    "split": {"strategy": "random", "l": 4, "seed": 1},
    "functional_covariates": [],
}

STUDY_CONFIG = {
    "workers": 1,
    "configs": [
        {"study": 1, "scenario": 1, "n": 8, "l": 4, "n_reps": 2, "alpha": 0.25,
         "modulation": "sigma", "mode": "split", "method": "mpb", "grid_points": 5,
         "covariate_set": 2, "coeff_seed": 0, "master_seed": 0, "error_scale": 1.0,
         "skip_failures": False}
    ],
}

# Inputs that crashed or were accepted before, with a fragment of the error
# each must now report.
BUNDLE_REPROS = [
    ([(["regressor", "terms"], [[["w"]], ["w"]])], "terms must name covariates"),
    ([(["radius"], 1e999)], "radius must be finite"),
    ([(["alpha"], 5)], "alpha must lie in (0, 1)"),
    ([(["alpha"], -1)], "alpha must lie in (0, 1)"),
    ([(["grid", "components", 0], DELETE)], "one coefficient block per component"),
    ([(["regressor", "coefficients", 0, 0, 0], math.inf)],
     "coefficient component 0 contains non-finite entries"),
    ([(["mode"], "smoothed"), (["tau"], 0.5), (["closure"], "ajar")],
     "unknown closure 'ajar'"),
    ([(["infinite"], "false")], "'infinite' must be a JSON boolean, got \"false\""),
    ([(["regressor", "intercept"], "false")],
     "'intercept' must be a JSON boolean, got \"false\""),
    ([(["modulation", "unit_integral"], "false")],
     "'unit_integral' must be a JSON boolean, got \"false\""),
    ([(["infinite"], 0)], "'infinite' must be a JSON boolean, got 0"),
    ([(["alpha"], "0.4")], "'alpha' must be a JSON number, got \"0.4\""),
    ([(["radius"], "1.5")], "'radius' must be a JSON number, got \"1.5\""),
    ([(["mode"], "smoothed"), (["tau"], "0.5")],
     "'tau' must be a JSON number, got \"0.5\""),
    ([(["grid", "components", 0, "points"], ["0", "0.25", "0.5", "0.75", "1"])],
     "points is ragged or not numeric"),
    ([(["alpha"], 10**400)], "'alpha' is beyond the float range"),
    ([(["regressor", "terms"], "ww")], "'terms' must be a JSON list of lists, got \"ww\""),
    ([(["modulation", "label"], 5)], "'label' must be a JSON string, got 5"),
    ([(["regressor", "kind"], 5)], "'kind' must be a JSON string, got 5"),
    ([(["closure"], 5)], "'closure' must be a JSON string, got 5"),
    ([(["mode"], 5)], "'mode' must be a JSON string, got 5"),
    ([(["tau"], 0.3)], "tau applies to smoothed mode; split mode uses tau = 1, got 0.3"),
    # Coefficient blocks that do not fit the regressor's design.
    ([(["regressor", "coefficients", 0, g], [0.5, 1.0, 2.0]) for g in range(5)],
     "coefficient block 0 has shape (5, 3), expected (5, 2)"),
    ([(["regressor", "terms"], [[], []])],
     "coefficient block 0 has shape (5, 2), expected (5, 1)"),
    ([(["regressor", "terms"], [["w"]])], "spec lists terms for 1 components, data has 2"),
    # Fields that were read by raw indexing.
    ([(["regressor", "coefficients"], DELETE)], "'coefficients' is missing"),
    ([(["modulation", "fns"], DELETE)], "'fns' is missing"),
    ([(["grid", "components", 0, "weights"], DELETE)], "'weights' is missing"),
    ([(["grid", "components"], 5)], "'components' must be a JSON list of objects, got 5"),
    ([(["grid", "components"], [[0, 1]])],
     "'components' entry 0 must be a JSON object, got [0, 1]"),
    # Fields named with the object that holds them.
    ([(["grid", "components", 1, "points"], DELETE)],
     "malformed bundle: grid.components[1]: 'points' is missing"),
    ([(["regressor", "kind"], DELETE)], "malformed bundle: regressor: 'kind' is missing"),
    ([(["modulation", "label"], DELETE)], "malformed bundle: modulation: 'label' is missing"),
    ([(["grid", "components"], DELETE)], "malformed bundle: grid: 'components' is missing"),
    ([(["grid", "components", 1, "points"], ["a"] * 5)],
     "malformed bundle: grid.components[1]: points is ragged or not numeric"),
    ([(["grid", "components", 0, "weights"], [0.5, 0.5])],
     "malformed bundle: grid.components[0]: weights must have the same length as points"),
    # Before, numpy's overflow warning came before the refusal.
    ([(["grid", "components", 1, "points"], [-1e308, -5e307, 0.0, 5e307, 1e308])],
     "malformed bundle: grid.components[1]: grid points span -1e+308 to 1e+308, "
     "a length beyond the float range"),
]
CALIBRATE_REPROS = [
    ([(["functional_covariates"], [1])], "'functional_covariates'"),
    ([(["split"], "random")], "config key 'split'"),
    ([(["regressor"], [])], "config key 'regressor'"),
    ([(["alpha"], [0.4])], "config key 'alpha'"),
    ([(["tau"], [0.5])], "config key 'tau'"),
    ([(["split", "l"], [4])], "config key 'l'"),
    ([(["split", "seed"], "x")],
     "config key 'split.seed' must be an integer seed, got \"x\""),
    ([(["split"], {"strategy": "explicit", "train": 5, "calib": [1]})], "'train'"),
    ([(["regressor", "terms"], 5)], "'terms'"),
    ([(["regressor", "terms"], [[["w"]], ["w"]])], "terms must name covariates"),
    ([(["split"], {"strategy": "explicit", "train": list(range(8)), "calib": [8]})],
     "explicit split indexes 9 curves, the data has 8"),
    ([(["split"], {"strategy": "explicit", "train": [0, 1, 2], "calib": [3, 4]})],
     "explicit split indexes 5 curves, the data has 8"),
    ([(["seed"], None)], "config key 'seed' must be an integer seed, got null"),
    ([(["mode"], "smoothed"), (["seed"], None)], "config key 'seed'"),
    ([(["split", "seed"], None)], "config key 'split.seed'"),
    ([(["seed"], True)], "config key 'seed' must be an integer seed, got true"),
    ([(["split", "seed"], [True, 1])], "config key 'split.seed' must be an integer"),
    ([(["split", "l"], True)], "config key 'l' must be a JSON number, got true"),
    ([(["mode"], "smoothed"), (["tau"], True)], "config key 'tau' must be a JSON"),
    ([(["regressor", "intercept"], "false")],
     "config key 'intercept' must be a JSON boolean, got \"false\""),
    ([(["split", "l"], 4.7)], "config key 'l' must be an integer, got 4.7"),
    ([(["split"], {"strategy": "explicit", "train": [0.5, 1.9, 2, 3],
                   "calib": [4, 5, 6, 7.7]})],
     "explicit split: split index must be an integer, got 0.5"),
    ([(["split"], {"strategy": "explicit", "train": [0, True, 2, 3],
                   "calib": [4, 5, 6, 7]})],
     "explicit split: split index must be an integer, got True"),
    ([(["tau"], 0.3)], "tau applies to smoothed mode; split mode uses tau = 1, got 0.3"),
    ([(["alpah"], 0.3)], "calibrate config has unknown keys ['alpah']"),
    ([(["split", "sede"], 3)], "split config has unknown keys ['sede']"),
    ([(["regressor", "intercep"], False)],
     "regressor config has unknown keys ['intercep']"),
    ([(["alpha"], "0.4")], "config key 'alpha' must be a JSON number, got \"0.4\""),
    ([(["split", "l"], "4")], "config key 'l' must be a JSON number, got \"4\""),
    ([(["seed"], "abc")], "config key 'seed' must be an integer seed, got \"abc\""),
    ([(["seed"], 1.5)], "config key 'seed' must be an integer seed, got 1.5"),
    ([(["seed"], -1)], "config key 'seed' must be an integer seed, got -1"),
    ([(["mode"], 5)], "config key 'mode' must be a JSON string, got 5"),
    # A regressor that does not fit the data, as from a bundle.
    ([(["regressor", "terms"], [["w"]])], "spec lists terms for 1 components, data has 2"),
    ([(["regressor", "terms"], [["z"], ["w"]])], "covariate 'z' missing from the observation"),
    ([(["split", "l"], DELETE)], "split config: config key 'l' is missing"),
]
STUDY_REPROS = [
    ([(["configs", 0, "n"], 2), (["configs", 0, "l"], 1)], "replication 0 failed"),
    ([(["configs", 0, "grid_points"], 1)], "grid_points 1 is below 2"),
    ([(["configs", 0, "master_seed"], -1)], "master_seed -1 is below 0"),
    ([(["configs", 0, "n"], 1e999)], "config key 'n'"),
    ([(["workers"], [])], "config key 'workers'"),
    ([(["configs", 0, "n_reps"], True)], "config key 'n_reps' must be a JSON number"),
    ([(["configs", 0, "l"], True)], "config key 'l' must be a JSON number, got true"),
    ([(["configs", 0, "master_seed"], True)], "config key 'master_seed' must be"),
    ([(["configs", 0, "skip_failures"], "false")],
     "config key 'skip_failures' must be a JSON boolean, got \"false\""),
    ([(["configs", 0, "n"], 2), (["configs", 0, "l"], 1), (["configs", 0, "n_reps"], 3),
      (["configs", 0, "skip_failures"], True)], "all 3 replications failed"),
    ([(["configs", 0, "l"], 4.7)], "config key 'l' must be an integer, got 4.7"),
    ([(["configs", 0, "n_reps"], 2.9)], "config key 'n_reps' must be an integer, got 2.9"),
    ([(["workers"], 1.5)], "config key 'workers' must be an integer, got 1.5"),
    ([(["workers"], 0)], "workers 0 is below 1"),
    ([(["workers"], -2)], "workers -2 is below 1"),
    ([(["configs", 0, "error_scale"], math.nan)],
     "error_scale must be finite and >= 0, got nan"),
    ([(["configs", 0, "error_scale"], math.inf)],
     "error_scale must be finite and >= 0, got inf"),
    ([(["configs", 0, "error_scale"], -1)], "error_scale must be finite and >= 0"),
    ([(["configs", 0, "modulation"], 5)],
     "config key 'modulation' must be a JSON string, got 5"),
    ([(["configs", 0, "mode"], True)], "config key 'mode' must be a JSON string, got true"),
    ([(["worker"], 2)], "study config has unknown keys ['worker']"),
    ([(["configs", 0, "alpah"], 0.3), (["configs", 0, "modulaton"], "sbar")],
     "study config entry 0 has unknown keys ['alpah', 'modulaton']"),
    ([(["configs", 0, "n"], "12")], "config key 'n' must be a JSON number, got \"12\""),
    ([(["configs", 0, "coeff_seed"], -1)],
     "study config entry 0: coeff_seed must be an integer seed, got -1"),
    ([(["configs", 0, "study"], 3), (["configs", 0, "scenario"], 3),
      (["configs", 0, "n"], 30)],
     "study config entry 0: study 3, scenario 3: the contamination pattern is "
     "defined for n = 20 or n divisible by 40, got n=30"),
    ([(["configs", 0, "l"], DELETE)], "study config entry 0: config key 'l' is missing"),
    ([(["configs", 0, "coeff_seed"], True)],
     "study config entry 0: coeff_seed must be an integer seed, got true"),
    ([(["configs", 0, "coeff_seed"], [1, True])],
     "study config entry 0: coeff_seed must be an integer seed, got [1, true]"),
    ([(["configs", 0, "coeff_seed"], 4.0)],
     "study config entry 0: coeff_seed must be an integer seed, got 4.0"),
    ([(["configs", 0, "n_reps"], 0)], "study config entry 0: n_reps 0 is below 1"),
]


def with_examples(cases):
    def decorate(test):
        for edits, _ in cases:
            test = example(edits=edits)(test)
        return test
    return decorate


def write_inputs(d, n, n_points):
    """Valid inputs for every command in ``d``: n curves with 2 components on
    ``n_points`` points, a scalar covariate, a calibrate config and its
    bundle."""
    rng = np.random.default_rng(11)
    points = np.linspace(0.0, 1.0, n_points).tolist()
    w = [(i + 1) / (n + 1) for i in range(n)]
    rows = ["curve_id,component,t,value"]
    for i in range(n):
        for j in (1, 2):
            rows += [f"c{i},{j},{t!r},{1.5 * w[i] + 0.3 * float(rng.normal())!r}"
                     for t in points]
    paths = {
        "curves": d / "curves.csv",
        "covariates": d / "cov.csv",
        "new": d / "new.csv",
        "config": d / "config.json",
        "bundle": d / "bundle.json",
    }
    paths["curves"].write_text("\n".join(rows) + "\n")
    paths["covariates"].write_text(
        "curve_id,w\n" + "".join(f"c{i},{w[i]!r}\n" for i in range(n))
    )
    paths["new"].write_text("curve_id,w\nnew,0.5\n")
    paths["config"].write_text(json.dumps(CALIBRATE_CONFIG))
    code, err = run(["calibrate", str(paths["curves"]), str(paths["covariates"]),
                     str(paths["config"]), "-o", str(paths["bundle"])])
    assert code == EXIT_OK, err
    return paths


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Inputs for 8 curves on 5 points."""
    d = tmp_path_factory.mktemp("fuzz")
    return d, write_inputs(d, 8, 5)


def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def check(code, err):
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERIC)
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.strip() != "error:"
    return code, err


def band(d, paths, bundle, new=None):
    out = d / "fuzz_band.csv"
    argv = ["band", str(bundle), str(new or paths["new"]), "-o", str(out)]
    code, err = check(*run(argv))
    if code == EXIT_OK:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(
            math.isfinite(float(r["lower"])) and math.isfinite(float(r["upper"]))
            for r in rows
        )
    return code, err


def calibrate(d, paths, config=None, curves=None, covariates=None):
    return check(*run(["calibrate", str(curves or paths["curves"]),
                       str(covariates or paths["covariates"]),
                       str(config or paths["config"]), "-o", str(d / "out.json")]))


def study(d, doc):
    (d / "study.json").write_text(json.dumps(doc))
    return check(*run(["study", str(d / "study.json"), "--report", str(d / "report.json"),
                       "--table", str(d / "table.csv")]))


def mutated_bundle(d, paths, edits):
    doc = mutate_all(json.loads(paths["bundle"].read_text()), edits)
    bundle = d / "fuzz_bundle_in.json"
    bundle.write_text(json.dumps(doc))
    return bundle


def mutated_config(d, edits):
    config = d / "fuzz_config.json"
    config.write_text(json.dumps(mutate_all(CALIBRATE_CONFIG, edits)))
    return config


@settings(max_examples=40, deadline=None)
@given(edits=mutations(VALUES))
@with_examples(BUNDLE_REPROS)
def test_band_survives_mutated_bundles(inputs, edits):
    d, paths = inputs
    band(d, paths, mutated_bundle(d, paths, edits))


@settings(max_examples=40, deadline=None)
@given(edits=mutations(VALUES))
@with_examples(CALIBRATE_REPROS)
def test_calibrate_survives_mutated_configs(inputs, edits):
    d, paths = inputs
    calibrate(d, paths, config=mutated_config(d, edits))


@settings(max_examples=30, deadline=None)
@given(edits=mutations(STUDY_VALUES))
@with_examples(STUDY_REPROS)
def test_study_survives_mutated_configs(inputs, edits):
    d, _ = inputs
    study(d, mutate_all(STUDY_CONFIG, edits))


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(["curves", "covariates", "new"]), edits=CSV_EDITS)
def test_commands_survive_mutated_csvs(inputs, target, edits):
    d, paths = inputs
    mutated = d / f"fuzz_{target}.csv"
    mutated.write_bytes(edit_csv(paths[target].read_bytes(), edits))
    if target == "new":
        band(d, paths, paths["bundle"], new=mutated)
    else:
        calibrate(d, paths, **{target: mutated})


@pytest.mark.parametrize("edits,message", BUNDLE_REPROS)
def test_corrupt_bundle_values_fail_at_load(inputs, edits, message):
    d, paths = inputs
    code, err = band(d, paths, mutated_bundle(d, paths, edits))
    assert code == EXIT_NUMERIC
    assert err.startswith("error: malformed bundle") and message in err


@pytest.mark.parametrize("edits,message", CALIBRATE_REPROS)
def test_malformed_calibrate_config_is_config_error(inputs, edits, message):
    d, paths = inputs
    code, err = calibrate(d, paths, config=mutated_config(d, edits))
    assert code == EXIT_NUMERIC and message in err


def test_calibrate_checks_its_config_before_the_csvs(inputs):
    d, paths = inputs
    curves = d / "short_row.csv"
    curves.write_text("curve_id,component,t,value\nc0,1,0.0\n")
    config = mutated_config(d, [(["split", "l"], "4")])
    code, err = calibrate(d, paths, config=config, curves=curves)
    assert code == EXIT_NUMERIC and "config key 'l'" in err
    config = mutated_config(d, [(["modulation"], "sigm")])
    code, err = calibrate(d, paths, config=config, curves=curves)
    assert code == EXIT_NUMERIC and "unknown modulation label 'sigm'" in err


@pytest.mark.parametrize("edits,message", STUDY_REPROS)
def test_malformed_study_exits_3(inputs, edits, message):
    d, _ = inputs
    code, err = study(d, mutate_all(STUDY_CONFIG, edits))
    assert code == EXIT_NUMERIC and message in err


@pytest.mark.parametrize("command,edits,start", [
    ("study", [(["configs", 1, "alpha"], LONG_LIST)],
     "study config entry 1: config key 'alpha' must be a JSON number, got [0.125, "),
    ("calibrate", [(["seed"], LONG_LIST)],
     "config key 'seed' must be an integer seed, got [0.125, "),
    ("calibrate", [(["split", "seed"], LONG_LIST)],
     "config key 'split.seed' must be an integer seed, got [0.125, "),
    ("calibrate", [(["functional_covariates"], [LONG_LIST])],
     "config key 'functional_covariates' entry 0 must be a JSON string, got [0.125, "),
    ("calibrate", [(["split", "l"], LONG_LIST)],
     "split config: config key 'l' must be a JSON number, got [0.125, "),
], ids=["study alpha", "seed", "split seed", "functional_covariates", "split l"])
def test_config_refusals_name_their_object_and_stay_short(inputs, command, edits, start):
    # Before, a refusal quoted the whole value (2 463 characters for the
    # study entry's alpha) and named neither the study entry nor the split.
    d, paths = inputs
    if command == "study":
        entries = [dict(entry) for entry in STUDY_CONFIG["configs"] * 2]
        code, err = study(d, mutate_all({**STUDY_CONFIG, "configs": entries}, edits))
    else:
        code, err = calibrate(d, paths, config=mutated_config(d, edits))
    message = err.strip().removeprefix("error: ")
    assert code == EXIT_NUMERIC and message.startswith(start) and len(message) <= 180


@pytest.mark.parametrize("value", ["two", "0", "-2", "1.5", ""])
def test_bad_workers_variable_is_config_error(inputs, monkeypatch, value):
    d, _ = inputs
    monkeypatch.setenv("MFCONFORMAL_WORKERS", value)
    doc = mutate_all(STUDY_CONFIG, [(["workers"], DELETE)])
    code, err = study(d, doc)
    assert code == EXIT_NUMERIC
    assert f"MFCONFORMAL_WORKERS must be an integer >= 1, got {value!r}" in err
    # The variable is read only when the config has no "workers" key.
    code, err = study(d, STUDY_CONFIG)
    assert code == EXIT_OK, err


def test_a_study_entry_takes_a_list_coeff_seed(inputs):
    # Before, "coeff_seed": [1, 2] was refused "config key 'coeff_seed' must be
    # a JSON number, got [1, 2]", although ScenarioSpec takes the list.
    d, _ = inputs
    edits = [(["configs", 0, "coeff_seed"], [1, 2]), (["configs", 0, "n_reps"], 12)]
    code, err = study(d, mutate_all(STUDY_CONFIG, edits))
    assert code == EXIT_OK, err
    (report,) = json.loads((d / "report.json").read_text())["reports"]
    assert report["config"]["coeff_seed"] == [1, 2]
    entry = STUDY_CONFIG["configs"][0]
    spec = {k: entry[k] for k in ("study", "scenario", "n", "covariate_set",
                                  "grid_points", "error_scale")}
    cell = {k: entry[k] for k in ("l", "alpha", "modulation", "mode", "method",
                                  "master_seed")}
    direct = harness.run_study(harness.StudyConfig(
        scenario=ScenarioSpec(**spec, coeff_seed=(1, 2)), n_reps=12, **cell))
    assert (report["hits"], report["size_q1"], report["size_median"], report["size_q3"]) == (
        direct.hits, direct.size_q1, direct.size_median, direct.size_q3)


def test_integral_floats_still_set_integer_keys(inputs):
    d, paths = inputs
    code, err = calibrate(d, paths, config=mutated_config(d, [(["split", "l"], 4.0)]))
    assert code == EXIT_OK, err
    edits = [(["configs", 0, "l"], 4.0), (["configs", 0, "n_reps"], 2.0)]
    code, err = study(d, mutate_all(STUDY_CONFIG, edits))
    assert code == EXIT_OK, err


def functional_covariate(d, name, tag):
    """A functional covariate file named ``name`` on the curves' points for
    c0..c7 and the new observation."""
    rows = [f"curve_id,component,t,{name}"]
    for cid in [*(f"c{i}" for i in range(8)), "new"]:
        for j in (1, 2):
            rows += [f"{cid},{j},{t!r},{t + j!r}" for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    path = d / f"functional_{tag}.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("names,message", [
    (["w"], "error: covariate 'w' is defined twice: as a scalar covariate and by "
            "a functional covariate file"),
    (["v", "v"], "error: covariate 'v' is defined twice: by two functional "
                 "covariate files"),
], ids=["scalar-and-functional", "two-functional"])
def test_covariate_defined_twice_is_schema_error(inputs, names, message):
    # Before, the scalar 'w' silently shadowed the functional one, and the
    # second of two functional 'v' files silently replaced the first.
    d, paths = inputs
    files = [functional_covariate(d, name, k) for k, name in enumerate(names)]
    config = d / "twice_config.json"
    config.write_text(json.dumps({**CALIBRATE_CONFIG, "functional_covariates": files}))
    code, err = calibrate(d, paths, config=config)
    assert code == EXIT_SCHEMA and message in err
    code, err = check(*run(["band", str(paths["bundle"]), str(paths["new"]),
                            *[arg for f in files for arg in ("--functional", f)],
                            "-o", str(d / "twice_band.csv")]))
    assert code == EXIT_SCHEMA and message in err


def test_component_with_one_point_names_file_and_component(inputs):
    d, paths = inputs
    curves = d / "one_point.csv"
    curves.write_text("curve_id,component,t,value\n" + "".join(
        f"c{i},{j},0.5,{i + j}\n" for i in range(8) for j in (1, 2)))
    code, err = calibrate(d, paths, curves=curves)
    assert code == EXIT_SCHEMA
    assert err == (f"error: {curves}: component 1: need at least two ascending "
                   "points\n")


def test_curves_whose_span_overflows_are_a_schema_error(inputs):
    # Before, numpy's overflow warning in the trapezoid weights came before
    # the refusal, and under filterwarnings = error it was the failure.
    d, paths = inputs
    curves = d / "huge_span.csv"
    curves.write_text("curve_id,component,t,value\n" + "".join(
        f"c{i},{j},{t!r},{i + j}\n" for i in range(8) for j in (1, 2)
        for t in (-1e308, 1e308)))
    code, err = calibrate(d, paths, curves=curves)
    assert code == EXIT_SCHEMA
    assert err == (f"error: {curves}: component 1: grid points span -1e+308 to "
                   "1e+308, a length beyond the float range\n")


def test_concurrent_fos_refuses_a_functional_covariate(inputs):
    # Before, calibrate fitted the functional 'v' pointwise, and band
    # predicted from such a bundle. A regressor that does not fit the data is
    # not a CSV schema fault, so it exits 3.
    d, paths = inputs
    message = "covariate 'v' is functional; concurrent_fos takes scalar covariates only"
    files = [functional_covariate(d, "v", "fos")]
    config = d / "fos_config.json"
    config.write_text(json.dumps({**CALIBRATE_CONFIG, "functional_covariates": files,
                                  "regressor": {"kind": "concurrent_fos",
                                                "terms": [["v"], ["v"]]}}))
    code, err = calibrate(d, paths, config=config)
    assert code == EXIT_NUMERIC and message in err
    bundle = mutated_bundle(d, paths, [(["regressor", "terms"], [["v"], ["v"]])])
    code, err = check(*run(["band", str(bundle), str(paths["new"]), "--functional",
                            files[0], "-o", str(d / "fos_band.csv")]))
    assert code == EXIT_NUMERIC and message in err


# Replacement values of the bundle walk; a JSON 1e999 reads as math.inf.
PROBE_VALUES = [DELETE, None, 5, -1, 0.5, "x", True, [], {}, [1], [[1]], [None], ["a"],
                {"a": 1}, [[]], [{}], math.inf, [[1, 2], [3]]]
# Python's and numpy's own words for a wrong type or shape, which no
# refusal of a bundle may show, and a refusal that names a key alone.
RAW_ERROR = re.compile(r"'\w+' object|indices must be|not iterable|not subscriptable|"
                       r"unhashable|argument of type|inhomogeneous")
BARE_KEY = re.compile(r"^malformed bundle: '[^']*'$")


def node_paths(node, prefix=()):
    """The path of every node below ``node``; a list's first entry stands
    for all of its entries."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node[:1]):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, prefix + (key,))


def test_every_field_of_a_bundle_is_refused_precisely(tmp_path):
    # 12 curves on 100 points: quoting a whole list of grid components would
    # run to thousands of characters, and so would quoting LONG_LIST.
    paths = write_inputs(tmp_path, 12, 100)
    doc = {**json.loads(paths["bundle"].read_text()), "metadata": {}}
    walked = list(node_paths(doc))
    assert ("regressor", "coefficients", 0, 0, 0) in walked
    faults = []
    for path in walked:
        node = doc
        for key in path:
            node = node[key]
        # Each object and each number is also replaced by LONG_LIST.
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        long = [LONG_LIST] if number or isinstance(node, dict) else []
        for value in PROBE_VALUES + long:
            bundle = tmp_path / "probe.json"
            bundle.write_text(json.dumps(mutate(doc, list(path), value)))
            code, err = band(tmp_path, paths, bundle)
            message = err.strip().removeprefix("error: ")
            if code != EXIT_OK and (code != EXIT_NUMERIC or RAW_ERROR.search(message)
                                    or BARE_KEY.match(message) or len(message) > 180):
                faults.append((path, value, code, message))
    assert faults == []
