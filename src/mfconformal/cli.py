"""Command-line surface.

Three subcommands:

- ``calibrate``: fit and calibrate on CSV data, write a model bundle;
- ``band``: load a bundle and emit the band for new covariates as CSV;
- ``study``: run Monte Carlo studies from a JSON config, write a JSON
  report and a CSV summary table.

Exit codes: 0 success, 2 schema error (malformed input files), 3 numeric or
configuration error. Every command is deterministic given the seeds in its
config. The environment variable ``MFCONFORMAL_WORKERS`` sets the default
worker count for studies.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import __version__, conformal, csvio, harness, modulate, regress, simgen
from .bundle import BundleFormatError, load_bundle, save_bundle
from .core import (
    Dataset,
    MFConformalError,
    ShapeError,
    Split,
    order_stat_index,
    random_split,
    theoretical_coverage,
)
from .csvio import SchemaError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3


class ConfigError(MFConformalError, ValueError):
    """A JSON config file is malformed or inconsistent."""


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return doc


def _typed(doc: dict, key: str, kind: type, what: str, item: type = object):
    """``doc[key]``, an empty ``kind`` when absent; a ConfigError unless it is
    a ``kind`` of ``item`` entries, described to the user as ``what``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind) or not all(isinstance(v, item) for v in value):
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def _convert(doc: dict, key: str, convert, *default):
    """``convert(doc[key])`` for ``convert`` one of bool, int and float. An
    absent key gives the default, and is a ConfigError without one; so is a
    value that does not convert, a JSON boolean for a number or the reverse
    (``bool("false")`` is true and ``int(True)`` is 1), and a fraction for an
    integer (``int(4.7)`` is 4)."""
    if key not in doc:
        if default:
            return default[0]
        raise ConfigError(f"config needs {key!r}")
    if isinstance(doc[key], bool) != (convert is bool):
        raise ConfigError(
            f"config key {key!r} must be a JSON "
            f"{'boolean' if convert is bool else 'number'}, got {json.dumps(doc[key])}"
        )
    if convert is int and isinstance(doc[key], float) and not doc[key].is_integer():
        raise ConfigError(
            f"config key {key!r} must be an integer, got {json.dumps(doc[key])}"
        )
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _seed(doc: dict, key: str, name: str):
    """``doc[key]``, 0 when absent; a null, which would draw from fresh
    entropy, or a boolean is a ConfigError naming the key as ``name``."""
    seed = doc.get(key, 0)
    entries = seed if isinstance(seed, list) else [seed]
    if seed is None or any(isinstance(v, bool) for v in entries):
        raise ConfigError(
            f"config key {name!r} must be an integer seed, got {json.dumps(seed)}"
        )
    return seed


def _regressor_from_config(doc: dict) -> regress.RegressorSpec:
    terms = _typed(doc, "terms", list, "a list of lists of covariate names", list)
    try:
        return regress.RegressorSpec(
            kind=doc.get("kind", "intercept_only"),
            terms=tuple(tuple(t) for t in terms),
            intercept=_convert(doc, "intercept", bool, True),
        )
    except ValueError as exc:
        raise ConfigError(f"regressor config: {exc}") from exc


def _split_from_config(doc: dict, n: int) -> Split:
    strategy = doc.get("strategy", "random")
    if strategy == "explicit":
        train, calib = (
            _typed(doc, key, list, "a list of indices") for key in ("train", "calib")
        )
        try:
            split = Split(tuple(train), tuple(calib))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"explicit split: {exc}") from None
        if split.m + split.l != n:
            raise ConfigError(
                f"explicit split indexes {split.m + split.l} curves, the data has {n}"
            )
        return split
    l = _convert(doc, "l", int)
    seed = _seed(doc, "seed", "split.seed")
    try:
        if strategy == "random":
            return random_split(n, l, seed=seed)
        if strategy == "parity":
            return random_split(n, l, strategy="parity")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split config (l={l}, seed={seed!r}): {exc}") from None
    raise ConfigError(f"unknown split strategy {strategy!r}")


def _cmd_calibrate(args) -> int:
    config = _load_json(args.config)
    grid, curve_ids, curves = csvio.read_curves(args.curves)
    scalar = None
    if args.covariates is not None:
        _, scalar = csvio.read_scalar_covariates(args.covariates)
    paths = _typed(config, "functional_covariates", list, "a list of file paths", str)
    functional = [csvio.read_functional_covariate(path, grid) for path in paths]
    covs = csvio.merge_covariates(curve_ids, scalar, functional)
    dataset = Dataset(grid=grid, pairs=tuple(zip(covs, curves)))

    alpha = _convert(config, "alpha", float)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    mode = config.get("mode", "split")
    split = _split_from_config(
        _typed(config, "split", dict, "a JSON object"), dataset.n
    )

    seed = _seed(config, "seed", "seed")
    tau = None if config.get("tau") is None else _convert(config, "tau", float)
    if mode == "smoothed" and tau is None:
        try:
            tau = float(np.random.default_rng(seed).uniform())
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key 'seed': {exc}") from None

    if mode == "split" and order_stat_index(split.l, alpha) > split.l:
        raise ConfigError(
            f"alpha={alpha} is below the feasibility bound 1/(l+1) = "
            f"{1.0 / (split.l + 1):.6g}; the band would be the whole space"
        )

    rspec = _regressor_from_config(
        _typed(config, "regressor", dict, "a JSON object")
    )
    model = regress.fit(dataset, split.train_idx, rspec)
    label = config.get("modulation", "s0")
    trim = modulate.TrimConfig(alpha=alpha, mode=mode, tau=tau)
    train_res = regress.residuals(model, dataset, split.train_idx)
    s = modulate.make_modulation(label, train_res, grid, trim)
    pred = conformal.calibrate(dataset, split, model, s, alpha, mode=mode, tau=tau)

    theo = 1.0 - alpha if mode == "smoothed" else theoretical_coverage(split.l, alpha)
    metadata = {
        "tool_version": __version__,
        "seed": seed,
        "n": dataset.n,
        "m": split.m,
        "l": split.l,
        "theoretical_coverage": theo,
    }
    save_bundle(args.output, pred, metadata)
    if pred.infinite:
        print("note: the calibrated band is infinite (alpha below the "
              "smoothed feasibility bound)")
    print(f"k = {pred.radius!r}")
    print(f"l = {split.l}")
    print(f"theoretical coverage = {theo!r}")
    print(f"bundle written to {args.output}")
    return EXIT_OK


def _cmd_band(args) -> int:
    pred, _ = load_bundle(args.bundle)
    grid = pred.model.grid
    order, scalar = csvio.read_scalar_covariates(args.covariates)
    functional = [
        csvio.read_functional_covariate(path, grid) for path in args.functional
    ]
    if args.curve_id is not None:
        if args.curve_id not in order:
            raise ConfigError(f"curve id {args.curve_id!r} not in {args.covariates}")
        order = [args.curve_id]
    elif len(order) != 1:
        raise ConfigError(
            f"{args.covariates} lists {len(order)} rows; pick one with --curve-id"
        )
    covs = csvio.merge_covariates(order, scalar, functional)
    if pred.infinite:
        raise ConfigError(
            "the bundle encodes an infinite band (alpha below 1/(l+1)); "
            "there is nothing to write"
        )
    band = conformal.make_band(pred, covs[0], truncate_at_zero=args.truncate_at_zero)
    csvio.write_band_csv(args.output, grid, band)
    print(f"band written to {args.output}")
    return EXIT_OK


def _study_config_from_doc(doc: dict, workers: int) -> harness.StudyConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"study config entry must be a JSON object, got {doc!r}")
    try:
        scenario = simgen.ScenarioSpec(
            study=_convert(doc, "study", int),
            scenario=_convert(doc, "scenario", int),
            n=_convert(doc, "n", int),
            covariate_set=_convert(doc, "covariate_set", int, 2),
            coeff_seed=_convert(doc, "coeff_seed", int, 0),
            grid_points=_convert(doc, "grid_points", int, 100),
            error_scale=_convert(doc, "error_scale", float, 1.0),
        )
        return harness.StudyConfig(
            scenario=scenario,
            l=_convert(doc, "l", int),
            n_reps=_convert(doc, "n_reps", int),
            alpha=_convert(doc, "alpha", float, 0.10),
            modulation=doc.get("modulation", "sigma"),
            mode=doc.get("mode", "split"),
            method=doc.get("method", "mpb"),
            master_seed=_convert(doc, "master_seed", int, 0),
            workers=workers,
            skip_failures=_convert(doc, "skip_failures", bool, False),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"study config entry: {exc}") from exc


def _report_to_doc(report: harness.StudyReport) -> dict:
    cfg = report.config
    doc = dataclasses.asdict(report)
    del doc["config"]
    del doc["sizes"]
    del doc["records"]
    for key in ("size_q1", "size_median", "size_q3"):
        if isinstance(doc[key], float) and doc[key] != doc[key]:
            doc[key] = None
    doc["config"] = {
        "study": cfg.scenario.study,
        "scenario": cfg.scenario.scenario,
        "n": cfg.scenario.n,
        "covariate_set": cfg.scenario.covariate_set,
        "coeff_seed": cfg.scenario.coeff_seed,
        "grid_points": cfg.scenario.grid_points,
        "error_scale": cfg.scenario.error_scale,
        "l": cfg.l,
        "n_reps": cfg.n_reps,
        "alpha": cfg.alpha,
        "modulation": cfg.modulation,
        "mode": cfg.mode,
        "method": cfg.method,
        "master_seed": cfg.master_seed,
    }
    return doc


_TABLE_COLUMNS = [
    "study",
    "scenario",
    "n",
    "covariate_set",
    "modulation",
    "mode",
    "method",
    "alpha",
    "l",
    "n_reps",
    "coverage",
    "ci_lower",
    "ci_upper",
    "theoretical_coverage",
    "size_q1",
    "size_median",
    "size_q3",
    "n_infinite",
    "n_failed",
]


def _cmd_study(args) -> int:
    doc = _load_json(args.config)
    entries = doc.get("configs")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("study config needs a non-empty 'configs' list")
    workers = _convert(doc, "workers", int, harness.default_workers())
    reports = [
        harness.run_study(_study_config_from_doc(entry, workers)) for entry in entries
    ]

    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"reports": [_report_to_doc(r) for r in reports]}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    with open(args.table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TABLE_COLUMNS)
        for r in reports:
            d = _report_to_doc(r)
            row = {**d["config"], **{k: v for k, v in d.items() if k != "config"}}
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in _TABLE_COLUMNS])
    for r in reports:
        c = r.config
        print(
            f"study {c.scenario.study} scenario {c.scenario.scenario} "
            f"n={c.scenario.n} {c.modulation}/{c.mode}/{c.method}: "
            f"coverage {r.coverage:.4f} [{r.ci_lower:.4f}, {r.ci_upper:.4f}] "
            f"(theoretical {r.theoretical_coverage:.4f}), "
            f"median size {r.size_median:.4g}"
        )
    print(f"report written to {args.report}")
    print(f"table written to {args.table}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfconformal",
        description="Simultaneous conformal prediction bands for multivariate "
        "functional responses",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser(
        "calibrate", help="fit and calibrate on CSV data, write a model bundle"
    )
    cal.add_argument("curves", help="long-format curves CSV (curve_id,component,t,value)")
    cal.add_argument(
        "covariates",
        nargs="?",
        default=None,
        help="wide scalar-covariate CSV (curve_id,<name>,...); optional",
    )
    cal.add_argument("config", help="calibration config JSON")
    cal.add_argument("-o", "--output", default="bundle.json", help="bundle path")
    cal.set_defaults(func=_cmd_calibrate)

    band = sub.add_parser("band", help="emit the band for new covariates as CSV")
    band.add_argument("bundle", help="model bundle JSON")
    band.add_argument("covariates", help="scalar covariates CSV for the new observation")
    band.add_argument(
        "--functional",
        action="append",
        default=[],
        metavar="FILE",
        help="functional covariate CSV (repeatable)",
    )
    band.add_argument("--curve-id", default=None, help="row to use when several")
    band.add_argument(
        "--truncate-at-zero",
        action="store_true",
        help="clamp the band at 0 from below (nonnegative responses)",
    )
    band.add_argument("-o", "--output", default="band.csv", help="band CSV path")
    band.set_defaults(func=_cmd_band)

    study = sub.add_parser("study", help="run Monte Carlo studies from a JSON config")
    study.add_argument("config", help="study config JSON")
    study.add_argument("--report", default="report.json", help="report JSON path")
    study.add_argument("--table", default="table.csv", help="summary table CSV path")
    study.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ConfigError, BundleFormatError, MFConformalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
