"""Command-line surface.

Three subcommands:

- ``calibrate``: fit and calibrate on CSV data, write a model bundle;
- ``band``: load a bundle and emit the band for new covariates as CSV;
- ``study``: run Monte Carlo studies from a JSON config, write a JSON
  report and a CSV summary table.

Exit codes: 0 success, 2 schema error (malformed input files), 3 numeric or
configuration error. Every command is deterministic given the seeds in its
config. The environment variable ``MFCONFORMAL_WORKERS`` sets the worker
count of a study config without a ``workers`` key.

:func:`main` runs one command in-process. It builds its parser once per
process, so repeated in-process calls do not pay for it again;
:func:`build_parser` returns a fresh parser on every call. Every command
checks that its output paths can be written before it reads a CSV or a
bundle or runs a study cell.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__, conformal, csvio, harness, modulate, regress, simgen
from .bundle import load_bundle, save_bundle
from .core import (
    Dataset,
    MFConformalError,
    ShapeError,
    Split,
    _feasible_rank,
    _guaranteed_coverage,
    _json_object,
    _json_value,
    _level,
    _seed,
    random_split,
)
from .csvio import SchemaError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3


class ConfigError(MFConformalError, ValueError):
    """A JSON config file is malformed or inconsistent."""


def _known(doc: dict, keys, where: str) -> None:
    """A ConfigError naming the keys of ``doc`` that nothing reads."""
    if unknown := sorted(set(doc) - set(keys)):
        raise ConfigError(f"{where} has unknown keys {unknown}")


_convert = functools.partial(_json_value, error=ConfigError, label="config key ")


def _check_output(path: str, option: str) -> None:
    """A ConfigError naming ``path`` unless a file can be written there, so a
    command fails before its work and not after. Nothing is created or
    truncated."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        problem = f"{folder} is not an existing directory"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "it is not writable"
    else:
        return
    raise ConfigError(f"cannot write {option} {path}: {problem}")


def _regressor_from_config(doc: dict) -> regress.RegressorSpec:
    _known(doc, ("kind", "terms", "intercept"), "regressor config")
    try:
        return regress.RegressorSpec(
            kind=_convert(doc, "kind", str, "intercept_only"),
            terms=tuple(map(tuple, _convert(doc, "terms", list, [], item=list))),
            intercept=_convert(doc, "intercept", bool, True),
        )
    except ValueError as exc:
        raise ConfigError(f"regressor config: {exc}") from exc


def _split_from_config(doc: dict):
    """Check a split config; returns the function that splits n curves, which
    checks what needs n: an explicit split's coverage and ``l <= n - 1``."""
    _known(doc, ("strategy", "train", "calib", "l", "seed"), "split config")
    strategy = _convert(doc, "strategy", str, "random")
    if strategy == "explicit":
        train, calib = (_convert(doc, key, list, []) for key in ("train", "calib"))
        try:
            split = Split(tuple(train), tuple(calib))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"explicit split: {exc}") from None

        def explicit(n: int) -> Split:
            if split.m + split.l != n:
                raise ConfigError(
                    f"explicit split indexes {split.m + split.l} curves, the data has {n}"
                )
            return split

        return explicit
    if strategy not in ("random", "parity"):
        raise ConfigError(f"unknown split strategy {strategy!r}")
    l = _convert(doc, "l", int)
    seed = _seed(doc.get("seed", 0), "config key 'split.seed'", ConfigError)

    def drawn(n: int) -> Split:
        try:
            return random_split(n, l, seed=seed, strategy="uniform"
                                if strategy == "random" else "parity")
        except ValueError as exc:
            raise ConfigError(f"split config (l={l}, seed={seed!r}): {exc}") from None

    return drawn


def _cmd_calibrate(args) -> int:
    config = _json_object(args.config, ConfigError, args.config)
    _known(config, ("alpha", "mode", "tau", "seed", "modulation", "regressor",
                    "split", "functional_covariates"), "calibrate config")
    # The whole config is checked before any CSV is read; only the checks
    # that need the curve count wait for the data.
    alpha = _convert(config, "alpha", float)
    mode = _convert(config, "mode", str, "split")
    label = modulate._modulation_label(_convert(config, "modulation", str, "s0"))
    paths = _convert(config, "functional_covariates", list, [], item=str)
    make_split = _split_from_config(_convert(config, "split", dict, {}))
    rspec = _regressor_from_config(_convert(config, "regressor", dict, {}))
    seed = _seed(config.get("seed", 0), "config key 'seed'", ConfigError)
    tau = None if config.get("tau") is None else _convert(config, "tau", float)
    if mode == "split" and tau is not None:
        raise ConfigError(
            f"config key 'tau' applies to smoothed mode; split mode uses tau = 1, "
            f"got {tau!r}"
        )
    if mode == "smoothed" and tau is None:
        tau = float(np.random.default_rng(seed).uniform())
    trim = modulate.TrimConfig(alpha=alpha, mode=mode, tau=tau)
    _check_output(args.output, "-o")

    grid, curve_ids, curves = csvio.read_curves(args.curves)
    scalar = None
    if args.covariates is not None:
        _, scalar = csvio.read_scalar_covariates(args.covariates)
    functional = [csvio.read_functional_covariate(path, grid) for path in paths]
    covs = csvio.merge_covariates(curve_ids, scalar, functional)
    dataset = Dataset(grid=grid, pairs=tuple(zip(covs, curves)))

    split = make_split(dataset.n)
    if mode == "split" and (crossed := _feasible_rank(split.l, alpha)[1]):
        raise ConfigError(f"{crossed}; the band would be the whole space")

    model = regress.fit(dataset, split.train_idx, rspec)
    train_res = regress.residuals(model, dataset, split.train_idx)
    s = modulate.make_modulation(label, train_res, grid, trim)
    pred = conformal.calibrate(dataset, split, model, s, alpha, mode=mode, tau=tau)

    theo = _guaranteed_coverage(split.l, alpha, mode)
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
    _check_output(args.output, "-o")
    pred, _ = load_bundle(args.bundle)
    if pred.infinite:
        tau = _level(pred.alpha, pred.mode, pred.tau)
        raise ConfigError(f"the bundle encodes an infinite band (alpha below "
                          f"{tau:g}/(l+1)); there is nothing to write")
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
    band = conformal.make_band(pred, covs[0], truncate_at_zero=args.truncate_at_zero)
    csvio.write_band_csv(args.output, grid, band)
    print(f"band written to {args.output}")
    return EXIT_OK


# A study entry's keys are the fields of these dataclasses, less the replication
# seed, the worker count and what a report keeps.
_SPEC = [f for f in dataclasses.fields(simgen.ScenarioSpec) if f.name != "seed"]
_CELL = [f for f in dataclasses.fields(harness.StudyConfig)
         if f.name not in ("scenario", "workers", "keep_sizes", "keep_records")]
_ENTRY_KEYS = [f.name for f in _SPEC + _CELL]


def _read_fields(doc: dict, fields) -> dict:
    """Each of ``fields`` that ``doc`` sets, converted by the type of its
    default, and each without a default, which is a required integer."""
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    return {
        f.name: _convert(doc, f.name, int if f.name in required else type(f.default))
        for f in fields if f.name in doc or f.name in required
    }


def _study_config_from_doc(doc: dict, workers: int) -> harness.StudyConfig:
    _known(doc, _ENTRY_KEYS, "study config entry")
    try:
        scenario = simgen.ScenarioSpec(**_read_fields(doc, _SPEC))
        return harness.StudyConfig(
            scenario=scenario, workers=workers, **_read_fields(doc, _CELL)
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"study config entry: {exc}") from exc


def _report_to_doc(report: harness.StudyReport) -> dict:
    doc = dataclasses.asdict(report)
    cfg = doc.pop("config")
    cfg.update(cfg.pop("scenario"))
    del doc["sizes"]
    del doc["records"]
    for key in ("size_q1", "size_median", "size_q3"):
        if isinstance(doc[key], float) and doc[key] != doc[key]:
            doc[key] = None
    doc["config"] = {k: cfg[k] for k in _ENTRY_KEYS if k != "skip_failures"}
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
    doc = _json_object(args.config, ConfigError, args.config)
    _known(doc, ("configs", "workers"), "study config")
    entries = _convert(doc, "configs", list, [], item=dict)
    if not entries:
        raise ConfigError("study config needs a non-empty 'configs' list")
    if "workers" in doc:
        workers = _convert(doc, "workers", int)
    else:
        try:
            workers = harness.default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    configs = [_study_config_from_doc(entry, workers) for entry in entries]
    _check_output(args.report, "--report")
    _check_output(args.table, "--table")
    reports = [harness.run_study(cfg) for cfg in configs]
    docs = [_report_to_doc(r) for r in reports]

    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"reports": docs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(args.table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TABLE_COLUMNS)
        for d in docs:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: ``parse_args``
    only reads it, and an ``append`` action copies its default list."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MFConformalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
