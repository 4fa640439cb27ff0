"""Workload inputs, made from the workload seed.

Nothing here imports the package: the program under test sees only the
files written below. Monte Carlo workloads get a ``study`` config; the CSV
workload gets long-format curves, a scalar covariate table, a table of new
observations for ``band`` and a calibration config.
"""

from __future__ import annotations

import json
import os

import numpy as np

# (label, study, scenario, modulation, mode, method) of the three paper cells.
MC_CELLS = (
    ("s1.1", 1, 1, "sigma", "split", "mpb"),
    ("s2.3", 2, 3, "sigma", "split", "cub"),
    ("s3.3", 3, 3, "sbar", "smoothed", "mpb"),
)

# workload -> (n, l, replications per cell in one ``study`` call)
MC_SIZES = {"mc-n20": (20, 9, 20), "mc-n2000": (2000, 999, 1)}

CSV_CURVES = 2000
CSV_POINTS = 100
CSV_COMPONENTS = 2
CSV_L = 1000
CSV_QUERIES = 64
WARM_CURVES = 40
WARM_L = 20


def study_doc(workload: str, seed: int, reps: int | None = None) -> dict:
    n, l, per_cell = MC_SIZES[workload]
    return {
        "workers": 1,
        "configs": [
            {
                "study": study,
                "scenario": scenario,
                "n": n,
                "l": l,
                "alpha": 0.1,
                "n_reps": per_cell if reps is None else reps,
                "coeff_seed": 7,
                "grid_points": 100,
                "master_seed": seed,
                "modulation": modulation,
                "mode": mode,
                "method": method,
                "skip_failures": True,
            }
            for _, study, scenario, modulation, mode, method in MC_CELLS
        ],
    }


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def write_study_inputs(workdir: str, workload: str, seed: int) -> dict:
    return {
        "study": write_json(os.path.join(workdir, "study.json"),
                            study_doc(workload, seed)),
        "warm": write_json(os.path.join(workdir, "warm.json"),
                           study_doc(workload, seed, reps=1)),
    }


def _curve_values(rng, w: np.ndarray, t: np.ndarray, comp: int) -> np.ndarray:
    """(len(w), len(t)) responses: smooth mean, a w-dependent slope curve and
    a smooth random error from four sine terms with decaying scale."""
    mean = np.sin(2.0 * np.pi * t + comp) + 0.5 * comp
    slope = np.cos(np.pi * t * (comp + 1))
    k = np.arange(1, 5)
    coefs = rng.standard_normal((w.size, k.size)) * (0.4 / k)
    err = coefs @ np.sin(np.pi * np.outer(k, t))
    return mean + np.outer(w, slope) + err


def _write_csv_set(workdir: str, tag: str, rng, n_curves: int, l: int,
                   seed: int) -> dict:
    t = np.linspace(0.0, 1.0, CSV_POINTS)
    w = rng.uniform(0.0, 1.0, n_curves)
    ids = [f"c{i:05d}" for i in range(n_curves)]
    t_txt = [repr(round(float(x), 6)) for x in t]
    paths = {"curves": os.path.join(workdir, f"{tag}curves.csv"),
             "covariates": os.path.join(workdir, f"{tag}covariates.csv"),
             "queries": os.path.join(workdir, f"{tag}queries.csv"),
             "config": os.path.join(workdir, f"{tag}config.json")}
    with open(paths["curves"], "w", encoding="utf-8") as fh:
        fh.write("curve_id,component,t,value\n")
        for comp in range(1, CSV_COMPONENTS + 1):
            vals = _curve_values(rng, w, t, comp)
            for cid, row in zip(ids, vals.tolist()):
                fh.writelines(f"{cid},{comp},{tt},{v:.6f}\n"
                              for tt, v in zip(t_txt, row))
    with open(paths["covariates"], "w", encoding="utf-8") as fh:
        fh.write("curve_id,w\n")
        fh.writelines(f"{cid},{x:.6f}\n" for cid, x in zip(ids, w.tolist()))
    q = rng.uniform(0.0, 1.0, CSV_QUERIES)
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        fh.write("curve_id,w\n")
        fh.writelines(f"q{i:03d},{x:.6f}\n" for i, x in enumerate(q.tolist()))
    write_json(paths["config"], {
        "alpha": 0.1,
        "mode": "split",
        "modulation": "sigma",
        "seed": seed,
        "split": {"strategy": "random", "l": l, "seed": seed},
        "regressor": {"kind": "concurrent_fos", "terms": [["w"], ["w"]]},
    })
    paths["query_ids"] = [f"q{i:03d}" for i in range(CSV_QUERIES)]
    paths["rows"] = n_curves * CSV_COMPONENTS * CSV_POINTS
    return paths


def write_csv_inputs(workdir: str, seed: int) -> dict:
    """The timed 400k-row set plus a small warm-up set, both from ``seed``."""
    rng = np.random.default_rng(seed)
    main = _write_csv_set(workdir, "", rng, CSV_CURVES, CSV_L, seed)
    main["warm"] = _write_csv_set(workdir, "warm-", rng, WARM_CURVES, WARM_L, seed)
    return main
