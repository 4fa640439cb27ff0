"""Timed loops, traced mirrors and output checks for the three workloads.

Load model: closed loop, one client. Every timed operation is one in-process
call of ``mfconformal.cli.main`` issued after the previous one returned.
``timed(0)`` runs one round: the outputs the goldens are pinned on.

- ``mc-n20`` / ``mc-n2000``: repeated ``study`` calls over three paper
  cells. Every call runs the same config, so every report must be identical.
- ``cli-csv``: rounds of one ``calibrate`` on the 400k-row CSV followed by a
  ``band`` call for each of the new observations.

Each timed call is followed by one pass of the reference kernel
(reference.py), and its time is also reported normalized by the slowdown the
kernel measured just before and just after it; the traced run normalizes
each operation's span times the same way.

The traced run does not go through ``cli.main``: it mirrors
``harness._replication`` and the ``calibrate``/``band`` commands through the
layers' public functions, with a span around each call, and checks that the
mirror reproduces the program's outputs exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time

import numpy as np

import inputs
from reference import Clock
from spans import Tracer, stage_ms


def cli_call(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns (exit code, seconds, stderr)."""
    from mfconformal import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bundle_digest(path: str) -> str:
    """Digest of a bundle without ``metadata.created``, a wall-clock stamp."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.get("metadata", {}).pop("created", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# Monte Carlo workloads


class Study:
    """``mc-n20`` and ``mc-n2000``."""

    def __init__(self, workload: str, workdir: str, paths: dict):
        self.workdir = workdir
        self.paths = paths
        self.report = os.path.join(workdir, "report.json")
        self.table = os.path.join(workdir, "table.csv")
        self.reps_per_call = inputs.MC_SIZES[workload][2] * len(inputs.MC_CELLS)

    def _study(self, config: str) -> tuple[int, float, str]:
        return cli_call(["study", config, "--report", self.report,
                         "--table", self.table])

    def warm_up(self) -> None:
        rc, _, err = self._study(self.paths["warm"])
        if rc != 0:
            raise RuntimeError(f"warm-up study exited {rc}: {err.strip()}")

    def timed(self, seconds: float) -> dict:
        calls, norm, reports, errors = [], [], [], []
        failed = 0
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while not calls or time.perf_counter() < deadline:
            rc, dt, err = self._study(self.paths["study"])
            calls.append(dt)
            norm.append(clock.normalize(dt))
            if rc != 0:
                failed += self.reps_per_call
                errors.append(f"study exited {rc}: {err.strip()}")
                continue
            with open(self.report, "rb") as fh:
                raw = fh.read()
            reports.append(raw)
            failed += sum(r["n_failed"] for r in json.loads(raw)["reports"])
        attempted = self.reps_per_call * len(calls)
        return {
            "calls_s": calls,
            "calls_norm_s": norm,
            "attempted": attempted,
            "failed": failed,
            "reports": reports,
            "errors": errors,
        }

    @staticmethod
    def golden_fields(outputs: dict) -> dict:
        """The report's statistical fields per cell, floats as ``repr``."""
        cells = {}
        for (label, *_), r in zip(inputs.MC_CELLS,
                                  json.loads(outputs["reports"][0])["reports"]):
            cells[label] = {
                k: (repr(r[k]) if isinstance(r[k], float) else r[k])
                for k in ("hits", "n_infinite", "n_failed", "coverage",
                          "size_q1", "size_median", "size_q3")
            }
        return cells

    @staticmethod
    def self_check(outputs: dict) -> list[str]:
        problems = list(outputs["errors"])
        reports = outputs["reports"]
        if not reports:
            return problems + ["no study call succeeded"]
        if any(r != reports[0] for r in reports[1:]):
            problems.append("repeated study calls with one config wrote "
                            "different reports")
        for r in json.loads(reports[0])["reports"]:
            cfg = r["config"]
            where = f"study {cfg['study']} scenario {cfg['scenario']}"
            if r["n_failed"]:
                problems.append(f"{where}: {r['n_failed']} failed replications")
            if not 0 <= r["hits"] <= r["n_reps"]:
                problems.append(f"{where}: hits {r['hits']} outside 0..n_reps")
            if r["coverage"] != r["hits"] / r["n_reps"]:
                problems.append(f"{where}: coverage is not hits / n_reps")
            finite = r["n_reps"] - r["n_infinite"]
            if finite and not r["size_q1"] <= r["size_median"] <= r["size_q3"]:
                problems.append(f"{where}: size quartiles out of order")
        return problems

    # ---- traced run

    def _study_configs(self):
        from mfconformal import harness, simgen

        with open(self.paths["study"], encoding="utf-8") as fh:
            doc = json.load(fh)
        cfgs = []
        for entry in doc["configs"]:
            spec = simgen.ScenarioSpec(
                study=entry["study"], scenario=entry["scenario"], n=entry["n"],
                coeff_seed=entry["coeff_seed"], grid_points=entry["grid_points"])
            cfgs.append(harness.StudyConfig(
                scenario=spec, l=entry["l"], n_reps=entry["n_reps"],
                alpha=entry["alpha"], modulation=entry["modulation"],
                mode=entry["mode"], method=entry["method"],
                master_seed=entry["master_seed"], workers=1,
                skip_failures=True))
        return cfgs

    @staticmethod
    def mirror_replication(tr: Tracer, cfg, rep: int):
        """``harness._replication`` through public calls, one span each."""
        from mfconformal import conformal, modulate, regress, simgen
        from mfconformal.core import random_split

        base = cfg.master_seed
        spec = dataclasses.replace(cfg.scenario, seed=(base, rep, 0))
        dataset, (x_new, y_new) = tr.call("simgen.generate", simgen.generate, spec)
        split = tr.call("core.random_split", random_split, spec.n, cfg.l,
                        seed=(base, rep, 1))
        tau = None
        if cfg.mode == "smoothed":
            tau = float(np.random.default_rng((base, rep, 2)).uniform())
        model = tr.call("regress.fit", regress.fit, dataset, split.train_idx,
                        simgen.regressor_for(spec))
        train_res = tr.call("regress.residuals", regress.residuals, model,
                            dataset, split.train_idx)
        trim = modulate.TrimConfig(alpha=cfg.alpha, mode=cfg.mode, tau=tau)
        s = tr.call("modulate.make_modulation", modulate.make_modulation,
                    cfg.modulation, train_res, dataset.grid, trim)
        if cfg.method == "cub":
            band = tr.call("conformal.cub_band", conformal.cub_band, dataset,
                           split, model, s, cfg.alpha, x_new)
            if band.infinite:
                return True, None, True
            radii = tr.call("conformal.cub_radii", conformal.cub_radii, dataset,
                            split, model, s, cfg.alpha)
            size = 2.0 * sum(
                float(k) * float(np.dot(c.weights, f))
                for k, c, f in zip(radii, dataset.grid.components, s.fns)
            )
            return tr.call("conformal.contains", conformal.contains, band,
                           y_new), size, False
        pred = tr.call("conformal.calibrate", conformal.calibrate, dataset,
                       split, model, s, cfg.alpha, mode=cfg.mode, tau=tau)
        if pred.infinite:
            return True, None, True
        band = tr.call("conformal.make_band", conformal.make_band, pred, x_new)
        hit = tr.call("conformal.contains", conformal.contains, band, y_new)
        return hit, tr.call("conformal.band_size", conformal.band_size, pred), False

    def traced(self, seconds: float) -> dict:
        from mfconformal import harness

        cfgs = self._study_configs()
        tr = Tracer()
        traced_per_rep, plain_per_rep, problems = [], [], []
        failed = 0
        mirrored: dict = {}
        clock = Clock()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            ops = []
            t0 = time.perf_counter()
            for (label, *_), cfg in zip(inputs.MC_CELLS, cfgs):
                for rep in range(cfg.n_reps):
                    tr.op = (label, rounds, rep)
                    ops.append(tr.op)
                    out = self.mirror_replication(tr, cfg, rep)
                    mirrored.setdefault((label, rep), out)
            dt = time.perf_counter() - t0
            slowdown = clock.factor()
            tr.slowdown.update(dict.fromkeys(ops, slowdown))
            traced_per_rep.append(dt / slowdown / self.reps_per_call)
            rc, dt, err = self._study(self.paths["study"])
            if rc != 0:
                failed += self.reps_per_call
                problems.append(f"study exited {rc}: {err.strip()}")
            plain_per_rep.append(clock.normalize(dt) / self.reps_per_call)
            rounds += 1

        # Mirror faithfulness: every mirrored replication must match the
        # harness's record of it, and each cell's mirrored hits the hits in
        # the report the last cli.main call wrote.
        for (label, *_), cfg in zip(inputs.MC_CELLS, cfgs):
            report = harness.run_study(dataclasses.replace(cfg, keep_records=True))
            for rec in report.records:
                got = mirrored[(label, rec.rep)]
                if got != (rec.hit, rec.size, rec.infinite):
                    problems.append(f"{label} rep {rec.rep}: mirror gives {got}, "
                                    f"harness {(rec.hit, rec.size, rec.infinite)}")
        if rc == 0:
            with open(self.report, encoding="utf-8") as fh:
                cli_hits = [r["hits"] for r in json.load(fh)["reports"]]
            hits = [sum(1 for rep in range(cfg.n_reps) if mirrored[(label, rep)][0])
                    for (label, *_), cfg in zip(inputs.MC_CELLS, cfgs)]
            if hits != cli_hits:
                problems.append(f"mirrored hits per cell {hits}, "
                                f"cli.main report {cli_hits}")

        return {
            "stages": stage_ms(tr, MC_STAGES),
            "detail": stage_ms(tr, MC_DETAIL),
            "overhead_share": overhead(traced_per_rep, plain_per_rep),
            "attempted": 2 * rounds * self.reps_per_call,
            "failed": failed,
            "problems": problems,
        }


# --------------------------------------------------------------------------
# CSV workload


class CsvCli:
    """``cli-csv``: ``calibrate`` on 400k long-format rows, then ``band``."""

    def __init__(self, workload: str, workdir: str, paths: dict):
        self.workdir = workdir
        self.paths = paths
        self.bundle = os.path.join(workdir, "bundle.json")
        self.band_out = os.path.join(workdir, "band.csv")

    def _calibrate(self, p: dict, bundle: str) -> tuple[int, float, str]:
        return cli_call(["calibrate", p["curves"], p["covariates"], p["config"],
                         "-o", bundle])

    def _band(self, p: dict, bundle: str, cid: str, out: str):
        return cli_call(["band", bundle, p["queries"], "--curve-id", cid,
                         "-o", out])

    def warm_up(self) -> None:
        warm = self.paths["warm"]
        bundle = os.path.join(self.workdir, "warm-bundle.json")
        rc, _, err = self._calibrate(warm, bundle)
        if rc == 0:
            rc, _, err = self._band(warm, bundle, warm["query_ids"][0],
                                    os.path.join(self.workdir, "warm-band.csv"))
        if rc != 0:
            raise RuntimeError(f"warm-up exited {rc}: {err.strip()}")

    def timed(self, seconds: float) -> dict:
        p = self.paths
        calib, band, calib_norm, band_norm, errors = [], [], [], [], []
        bundles: list[str] = []
        bands: dict[str, set] = {cid: set() for cid in p["query_ids"]}
        first_bands: dict[str, bytes] = {}
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while not calib or time.perf_counter() < deadline:
            rc, dt, err = self._calibrate(p, self.bundle)
            calib.append(dt)
            calib_norm.append(clock.normalize(dt))
            if rc != 0:
                errors.append(f"calibrate exited {rc}: {err.strip()}")
                continue
            bundles.append(bundle_digest(self.bundle))
            for cid in p["query_ids"]:
                rc, dt, err = self._band(p, self.bundle, cid, self.band_out)
                band.append(dt)
                band_norm.append(clock.normalize(dt))
                if rc != 0:
                    errors.append(f"band {cid} exited {rc}: {err.strip()}")
                    continue
                with open(self.band_out, "rb") as fh:
                    raw = fh.read()
                bands[cid].add(hashlib.sha256(raw).hexdigest())
                first_bands.setdefault(cid, raw)
        return {
            "calibrate_s": calib,
            "band_s": band,
            "calibrate_norm_s": calib_norm,
            "band_norm_s": band_norm,
            "attempted": len(calib) + len(band),
            "failed": len(errors),
            "errors": errors,
            "bundles": bundles,
            "bands": bands,
            "first_bands": first_bands,
        }

    def golden_fields(self, outputs: dict) -> dict:
        joined = b"".join(outputs["first_bands"][cid]
                          for cid in self.paths["query_ids"])
        return {"bundle_sha256": outputs["bundles"][0],
                "bands_sha256": hashlib.sha256(joined).hexdigest()}

    def self_check(self, outputs: dict) -> list[str]:
        problems = list(outputs["errors"])
        if not outputs["bundles"]:
            return problems + ["no calibrate call succeeded"]
        if len(set(outputs["bundles"])) != 1:
            problems.append("repeated calibrate calls wrote different bundles")
        for cid, digests in outputs["bands"].items():
            if len(digests) > 1:
                problems.append(f"band {cid}: repeated calls wrote different CSVs")
        for cid, raw in outputs["first_bands"].items():
            problems.extend(check_band_csv(cid, raw))
        return problems

    # ---- traced run

    def mirror_calibrate(self, tr: Tracer, bundle: str) -> None:
        """``cli._cmd_calibrate`` through public calls, one span each."""
        from mfconformal import __version__, conformal, csvio, modulate, regress
        from mfconformal.bundle import save_bundle
        from mfconformal.core import Dataset, random_split, theoretical_coverage

        p = self.paths
        with open(p["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        grid, curve_ids, curves = tr.call("csvio.read_curves", csvio.read_curves,
                                          p["curves"])
        _, scalar = tr.call("csvio.read_scalar_covariates",
                            csvio.read_scalar_covariates, p["covariates"])
        covs = tr.call("csvio.merge_covariates", csvio.merge_covariates,
                       curve_ids, scalar, [])
        dataset = tr.call("core.Dataset", Dataset, grid=grid,
                          pairs=tuple(zip(covs, curves)))
        alpha = float(config["alpha"])
        split = tr.call("core.random_split", random_split, dataset.n,
                        int(config["split"]["l"]), seed=config["split"]["seed"])
        reg = config["regressor"]
        rspec = regress.RegressorSpec(kind=reg["kind"],
                                      terms=tuple(tuple(t) for t in reg["terms"]))
        model = tr.call("regress.fit", regress.fit, dataset, split.train_idx, rspec)
        trim = modulate.TrimConfig(alpha=alpha, mode="split", tau=None)
        train_res = tr.call("regress.residuals", regress.residuals, model,
                            dataset, split.train_idx)
        s = tr.call("modulate.make_modulation", modulate.make_modulation,
                    config["modulation"], train_res, grid, trim)
        pred = tr.call("conformal.calibrate", conformal.calibrate, dataset, split,
                       model, s, alpha, mode="split", tau=None)
        metadata = {
            "tool_version": __version__,
            "seed": config["seed"],
            "n": dataset.n,
            "m": split.m,
            "l": split.l,
            "theoretical_coverage": theoretical_coverage(split.l, alpha),
        }
        tr.call("bundle.save", save_bundle, bundle, pred, metadata)

    def mirror_band(self, tr: Tracer, bundle: str, cid: str, out: str) -> None:
        """``cli._cmd_band`` through public calls, one span each."""
        from mfconformal import conformal, csvio
        from mfconformal.bundle import load_bundle

        pred, _ = tr.call("bundle.load", load_bundle, bundle)
        _, scalar = tr.call("csvio.read_scalar_covariates",
                            csvio.read_scalar_covariates, self.paths["queries"])
        covs = tr.call("csvio.merge_covariates", csvio.merge_covariates,
                       [cid], scalar, [])
        band = tr.call("conformal.make_band", conformal.make_band, pred, covs[0],
                       truncate_at_zero=False)
        tr.call("csvio.write_band_csv", csvio.write_band_csv, out,
                pred.model.grid, band)

    @staticmethod
    def _scaled(tr: Tracer, clock: Clock, wall_s: float) -> float:
        """Record the slowdown around the current traced operation and
        return its normalized time."""
        tr.slowdown[tr.op] = clock.factor()
        return wall_s / tr.slowdown[tr.op]

    def traced(self, seconds: float) -> dict:
        p = self.paths
        tr = Tracer()
        mirror_bundle = os.path.join(self.workdir, "mirror-bundle.json")
        mirror_out = os.path.join(self.workdir, "mirror-band.csv")
        traced_s, plain_s, problems = [], [], []
        failed = rounds = 0
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            tr.op = ("calibrate", rounds)
            t0 = time.perf_counter()
            self.mirror_calibrate(tr, mirror_bundle)
            traced_s.append(self._scaled(tr, clock, time.perf_counter() - t0))
            rc, dt, err = self._calibrate(p, self.bundle)
            plain_s.append(clock.normalize(dt))
            if rc != 0:
                failed += 1
                problems.append(f"calibrate exited {rc}: {err.strip()}")
                break
            if bundle_digest(mirror_bundle) != bundle_digest(self.bundle):
                problems.append("mirrored calibrate wrote a different bundle")
            for cid in p["query_ids"]:
                tr.op = ("band", rounds, cid)
                t0 = time.perf_counter()
                self.mirror_band(tr, mirror_bundle, cid, mirror_out)
                traced_s.append(self._scaled(tr, clock, time.perf_counter() - t0))
                rc, dt, err = self._band(p, self.bundle, cid, self.band_out)
                plain_s.append(clock.normalize(dt))
                if rc != 0:
                    failed += 1
                    problems.append(f"band {cid} exited {rc}: {err.strip()}")
                elif sha256_file(mirror_out) != sha256_file(self.band_out):
                    problems.append(f"band {cid}: mirrored CSV differs from "
                                    f"the one cli.main wrote")
            rounds += 1

        detail_ms = stage_ms(tr, CSV_DETAIL)
        read_ms, read_n = detail_ms["csvio.read_curves_ms"]
        detail_ms["csvio.rows_per_s"] = (p["rows"] / (read_ms / 1000.0), read_n)
        detail_ms["bundle.bytes"] = (os.path.getsize(mirror_bundle), rounds)
        return {
            "stages": stage_ms(tr, CSV_STAGES),
            "detail": detail_ms,
            "overhead_share": overhead(traced_s, plain_s),
            "attempted": 2 * rounds * (1 + len(p["query_ids"])),
            "failed": failed,
            "problems": problems,
        }


# Span names summed into each reported stage: (operation groups, names).
# The stages are reported as metrics; the detail splits out figures the
# stages sum together.
CAL, BAND = ("calibrate",), ("band",)

MC_STAGES = {
    "data_ms": (None, ("simgen.generate",)),
    "split_ms": (None, ("core.random_split",)),
    "fit_ms": (None, ("regress.fit",)),
    "residuals_ms": (None, ("regress.residuals",)),
    "modulation_ms": (None, ("modulate.make_modulation",)),
    "calibrate_ms": (None, ("conformal.calibrate", "conformal.cub_band",
                            "conformal.cub_radii")),
    "band_ms": (None, ("conformal.make_band", "conformal.contains",
                       "conformal.band_size")),
}
MC_DETAIL = {
    "conformal.calibrate_ms": (None, ("conformal.calibrate",)),
    "conformal.cub_ms": (None, ("conformal.cub_band", "conformal.cub_radii")),
}
CSV_STAGES = {
    "data_ms": (CAL, ("csvio.read_curves", "csvio.read_scalar_covariates",
                      "csvio.merge_covariates", "core.Dataset")),
    "split_ms": (CAL, ("core.random_split",)),
    "fit_ms": (CAL, ("regress.fit",)),
    "residuals_ms": (CAL, ("regress.residuals",)),
    "modulation_ms": (CAL, ("modulate.make_modulation",)),
    "calibrate_ms": (CAL, ("conformal.calibrate", "bundle.save")),
    "band_ms": (BAND, ("bundle.load", "csvio.read_scalar_covariates",
                       "csvio.merge_covariates", "conformal.make_band",
                       "csvio.write_band_csv")),
}
CSV_DETAIL = {
    "csvio.read_curves_ms": (CAL, ("csvio.read_curves",)),
    "csvio.read_scalar_covariates_ms": (CAL, ("csvio.read_scalar_covariates",)),
    "csvio.read_scalar_covariates_band_ms": (BAND, ("csvio.read_scalar_covariates",)),
    "core.dataset_ms": (CAL, ("csvio.merge_covariates", "core.Dataset")),
    "core.random_split_ms": (CAL, ("core.random_split",)),
    "regress.fit_ms": (CAL, ("regress.fit",)),
    "regress.residuals_ms": (CAL, ("regress.residuals",)),
    "modulate.make_modulation_ms": (CAL, ("modulate.make_modulation",)),
    "conformal.calibrate_ms": (CAL, ("conformal.calibrate",)),
    "bundle.save_ms": (CAL, ("bundle.save",)),
    "bundle.load_ms": (BAND, ("bundle.load",)),
    "conformal.make_band_ms": (BAND, ("conformal.make_band",)),
    "csvio.write_band_csv_ms": (BAND, ("csvio.write_band_csv",)),
}


def check_band_csv(cid: str, raw: bytes) -> list[str]:
    """Shape and order of one band CSV: a header and lower <= upper rows."""
    lines = raw.decode().splitlines()
    expected = 1 + inputs.CSV_COMPONENTS * inputs.CSV_POINTS
    if len(lines) != expected or lines[0] != "component,t,lower,upper,closure":
        return [f"band {cid}: expected a header and {expected - 1} rows"]
    for line in lines[1:]:
        _, _, lo, hi, _ = line.split(",")
        if not float(lo) <= float(hi):
            return [f"band {cid}: lower bound above upper bound"]
    return []


def overhead(traced: list[float], plain: list[float]) -> float:
    """Tracing overhead: (traced - untraced) / untraced summed op time."""
    return (sum(traced) - sum(plain)) / sum(plain)


WORKLOADS = {"mc-n20": Study, "mc-n2000": Study, "cli-csv": CsvCli}


def make(workload: str, workdir: str, seed: int):
    """Write the workload's inputs from ``seed`` into ``workdir``."""
    if workload == "cli-csv":
        paths = inputs.write_csv_inputs(workdir, seed)
    else:
        paths = inputs.write_study_inputs(workdir, workload, seed)
    inputs.write_json(os.path.join(workdir, "inputs.json"), paths)
    return WORKLOADS[workload](workload, workdir, paths)


def attach(workload: str, workdir: str):
    """The workload whose inputs :func:`make` already wrote to ``workdir``."""
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        paths = json.load(fh)
    return WORKLOADS[workload](workload, workdir, paths)
