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

The n = 2000 bytes depend on the BLAS kernels, so the matrix runs in a
subprocess with ``OPENBLAS_CORETYPE=Haswell`` and one BLAS thread.
"""

import json
import os
import pathlib
import subprocess
import sys

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
    "20": "61a009c7b4bab93b421fa14695c32343169aae40763d2be0fecdfd1621805db3",
    "40": "07f0b5c34798084055fe9e716f499b100accc43339d4373839cfe90dc7c57588",
    "200": "e4956ea81e10299d9ecc2d5e9ec119d1a421f1135888fafd5e08a4ea81844f43",
    "2000": "141347ff20d85569bebfb6425eddc5737a4856d405b251e3bea93b0e5c40aa03",
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
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, timeout=300,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["faults"] == FAULTS
    assert got["digests"] == DIGESTS
