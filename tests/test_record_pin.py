"""A pin on the records of a fixed matrix of study cells.

Every kind of cell the harness runs is in the matrix: the eight
study/scenario cells, n = 20, 40, 200 and 2000, covariate sets 1 to 3, and
the variants ``sigma``/split/``mpb``, ``sbar``/smoothed/``mpb`` and
``s0``/split/``cub``. A few cells fault, so the rerun of a faulted stack is
pinned too. The digests hash what a report means, not how Python prints it:
per record its ``rep``, ``hit``, ``infinite`` and ``float.hex(size)``, per
cell the report's numeric fields. One digest per n names the sample size
that moved. A refactor that claims bit-identity must leave every digest as
it is; re-pin only for a deliberate, documented change of outputs.

The n = 2000 bytes depend on the BLAS kernels, and study 1, scenario 2
calls ``exp``, whose bits depend on numpy's SIMD kernels, so the matrix runs
in a subprocess under ``conftest.pinned_env``: ``OPENBLAS_CORETYPE=Haswell``,
one BLAS thread and ``NPY_ENABLE_CPU_FEATURES=X86_V3``.
"""

import json
import subprocess
import sys

from conftest import PINNED_KERNELS, pinned_env

PROBE = r'''
import hashlib, json
from mfconformal import ScenarioSpec, StudyConfig, run_study
from mfconformal.harness import ReplicationError

CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
VARIANTS = [("sigma", "split", "mpb"), ("sbar", "smoothed", "mpb"),
            ("s0", "split", "cub")]
REPS = {20: 40, 40: 30, 200: 6, 2000: 2}
FIELDS = ("n_reps", "hits", "coverage", "ci_lower", "ci_upper",
          "theoretical_coverage", "size_q1", "size_median", "size_q3",
          "n_infinite", "n_failed")


def value(v):
    if v is None or isinstance(v, (bool, int)):
        return repr(v)
    return float.hex(v)


def meaning(report):
    fields = [value(getattr(report, f)) for f in FIELDS]
    records = [f"{r.rep},{r.hit},{r.infinite},{value(r.size)}"
               for r in report.records]
    return ";".join(fields) + "|" + ";".join(records)


digests = {}
for n, reps in REPS.items():
    h = hashlib.sha256()
    for study, scenario in CELLS:
        for covariate_set in (1, 2, 3):
            for modulation, mode, method in VARIANTS:
                spec = ScenarioSpec(study=study, scenario=scenario, n=n,
                                    covariate_set=covariate_set, coeff_seed=3)
                cfg = StudyConfig(scenario=spec, l=n // 2 - 1, n_reps=reps,
                                  modulation=modulation, mode=mode,
                                  method=method, master_seed=n + study,
                                  keep_records=True)
                h.update(meaning(run_study(cfg)).encode() + b"\n")
    digests[str(n)] = h.hexdigest()

faults = {}
# Overflow faults some or all replications of the last three.
for name, covariate_set, l, modulation, error_scale in [
        ("two training curves, three columns", 3, 18, "s0", 1.0),
        ("one training curve, three columns", 3, 19, "sbar", 1.0),
        ("sigma from one training curve", 1, 19, "sigma", 1.0),
        ("sigma overflows in some replications", 2, 9, "sigma", 3e153),
        ("sbar band size overflows in some", 2, 9, "sbar", 1e307),
        ("responses overflow", 2, 9, "s0", 1e308)]:
    for skip in (False, True):
        spec = ScenarioSpec(study=1, scenario=1, n=20, coeff_seed=5,
                            covariate_set=covariate_set,
                            error_scale=error_scale)
        cfg = StudyConfig(scenario=spec, l=l, n_reps=20, modulation=modulation,
                          master_seed=12, keep_records=True,
                          skip_failures=skip)
        try:
            report = run_study(cfg)
            outcome = {"n_failed": report.n_failed,
                       "digest": hashlib.sha256(meaning(report).encode()).hexdigest()}
        except ReplicationError as exc:
            outcome = {"error": str(exc)}
        faults[f"{name}, skip_failures={skip}"] = outcome
print(json.dumps({"digests": digests, "faults": faults}))
'''

# Under the kernels above. A changed digest is a changed output: re-pin it
# only with a documented reason.
DIGESTS = {
    "20": "f74956be95bca85888f808a2347f276fbda1d194d0539cc1535f260661162966",
    "40": "84c5cbbf87cf7d6194553ae5f51d6b7ef451b99059747ae812b45403419bfaf9",
    "200": "334bb09de997bef9dc032921c800319457110293249acda153b58f781a02255b",
    "2000": "d800d99cfc462b06408c9efe7725ac27c6569be7dd7a3f1ca602f6e806ebab2f",
}

FAULTS = {
    "two training curves, three columns, skip_failures=False":
        {"error": "replication 0 failed: "
                  "component 0: 2 training curves for 3 design columns"},
    "two training curves, three columns, skip_failures=True":
        {"error": "all 20 replications failed"},
    "one training curve, three columns, skip_failures=False":
        {"error": "replication 0 failed: "
                  "component 0: 1 training curves for 3 design columns"},
    "one training curve, three columns, skip_failures=True":
        {"error": "all 20 replications failed"},
    "sigma from one training curve, skip_failures=False":
        {"error": "replication 0 failed: s_sigma needs at least 2 residual curves"},
    "sigma from one training curve, skip_failures=True":
        {"error": "all 20 replications failed"},
    "sigma overflows in some replications, skip_failures=False":
        {"error": "replication 0 failed: "
                  "modulation component 1 contains non-finite entries"},
    "sigma overflows in some replications, skip_failures=True":
        {"n_failed": 1,
         "digest": "359dc6044fec65768886badeeb4a292c3898c781daa5432791846aaef2c616e4"},
    "sbar band size overflows in some, skip_failures=False":
        {"error": "replication 1 failed: "
                  "band size overflows: quadrature gives inf"},
    "sbar band size overflows in some, skip_failures=True":
        {"n_failed": 3,
         "digest": "6aa90029552c6a7b6f7f316e732c150c9513413ae69114180c647bb751ac4559"},
    "responses overflow, skip_failures=False":
        {"error": "replication 0 failed: "
                  "responses component 0 contains non-finite entries"},
    "responses overflow, skip_failures=True":
        {"error": "all 20 replications failed"},
}


def test_records_of_the_pinned_matrix():
    done = subprocess.run([sys.executable, "-c", PROBE], env=pinned_env(), timeout=300,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["faults"] == FAULTS
    assert got["digests"] == DIGESTS


# What numpy's dispatch and OpenBLAS chose in a pinned subprocess.
KERNELS = r'''
import ctypes, glob, json, os
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
openblas, = glob.glob(os.path.join(libs, "libscipy_openblas*"))
corename = ctypes.CDLL(openblas).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(json.dumps({"X86_V4": __cpu_features__["X86_V4"],
                  "X86_V3": __cpu_features__["X86_V3"], "blas": corename().decode()}))
'''


def test_a_pinned_subprocess_runs_the_kernels_it_pins():
    # A numpy or OpenBLAS that ignored its variable would pin other bytes.
    # NPY_ENABLE_CPU_FEATURES=X86_V3 leaves X86_V3 on and turns X86_V4 off.
    done = subprocess.run([sys.executable, "-c", KERNELS], env=pinned_env(), timeout=60,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {
        "X86_V4": False, "X86_V3": True, "blas": PINNED_KERNELS["OPENBLAS_CORETYPE"]}
