"""mfconformal benchmark: Monte Carlo ``study`` throughput and the
``calibrate``/``band`` commands on a 400k-row CSV.

Run from the repository root:

    python3 perfbench/run.py --workload mc-n20 --seed 1 --seconds 20 --trace 0

Workloads: ``mc-n20``, ``mc-n2000``, ``cli-csv`` (see perfbench/README.md).
``--trace 0`` times the commands through ``mfconformal.cli.main`` and reports
the end-to-end metrics; ``--trace 1`` runs the traced mirror of the same
work and reports per-layer self times. Times are reported normalized to a
reference core speed: a fixed kernel (reference.py) runs between the timed
calls, and each call's wall time is divided by the slowdown the kernel
measured around it, so that the speed changes of a shared host cancel. The
wall-clock figures are printed beside them. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
output check passed, 1 when one failed and 2 when the package source is
missing. A run that a failing call cuts short still prints the result line,
with ``correct`` false and NaN for the metrics it could not measure.

Every run checks outputs: repeated calls must agree, band CSVs must be well
formed, and the pinned goldens in perfbench/goldens.json (workload seed 0)
must match bit for bit. For another seed the timed outputs have no goldens,
so the seed-0 case is run once more outside the timed loop and compared.
"""

from __future__ import annotations

import os

# Set before numpy loads. One BLAS thread gives the single-threaded
# baseline. OpenBLAS picks its kernels from the CPU it finds, and kernels for
# different CPUs round differently in the last bit; one fixed AVX2 kernel set
# keeps the bit-exact goldens valid on any x86-64 host with AVX2.
BLAS_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
}
os.environ.update(BLAS_SETTINGS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
GOLDENS = os.path.join(HERE, "goldens.json")
GOLDEN_SEED = 0
SETUP_PROBES = 15

# The p90 call time is printed but not reported as a metric: on a shared
# two-core VM its run-to-run spread exceeds any bound the benchmark may set.
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "call_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "data_ms": "ms",
    "split_ms": "ms",
    "fit_ms": "ms",
    "residuals_ms": "ms",
    "modulation_ms": "ms",
    "calibrate_ms": "ms",
    "band_ms": "ms",
    "trace.overhead_share": "share",
}


class PackageMissing(RuntimeError):
    pass


def import_package() -> None:
    """Import mfconformal from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "mfconformal", "__init__.py")
    if not os.path.isfile(init):
        raise PackageMissing(f"package source not found at {init}")
    sys.path.insert(0, SRC)
    import mfconformal

    if os.path.realpath(mfconformal.__file__) != os.path.realpath(init):
        raise PackageMissing(f"imported mfconformal from {mfconformal.__file__}")


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_settings": BLAS_SETTINGS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "steal_s_start": steal_seconds(),
    }


def quantile(values: list[float], q: float) -> float:
    """NaN when there are no values, as when every call before them failed."""
    if not values:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def setup_seconds(args, workdir: str) -> tuple[float, float]:
    """Wall time from spawning a fresh process until it has imported the
    package and finished the warm-up call, and that time divided by the mean
    of the slowdown measured before the spawn and, in the probe, after the
    warm-up; one probe at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--workdir", workdir]
    before = reference.slowdown()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        last = err.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {last[0]}")
    after = float(out.split()[0])
    return elapsed, elapsed / ((before + after) / 2.0)


def setup_probe(args) -> int:
    workloads.attach(args.workload, args.workdir).warm_up()
    print("ready", flush=True)
    print(statistics.median(reference.slowdown() for _ in range(3)), flush=True)
    return 0


def flatten(doc, prefix: str = "") -> dict:
    if not isinstance(doc, dict):
        return {prefix: doc}
    out = {}
    for k, v in doc.items():
        out.update(flatten(v, f"{prefix}.{k}" if prefix else k))
    return out


def golden_check(args, wl, timed_outputs, workdir: str) -> tuple[list[str], str]:
    """Compare the pinned goldens; returns (problems, note)."""
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    if args.seed == goldens["seed"]:
        note = f"goldens compared on seed {args.seed}"
        outputs = timed_outputs or wl.timed(0)
    else:
        note = (f"seed {args.seed} has no goldens, skipped for the timed "
                f"outputs; golden case (seed {goldens['seed']}) run and compared")
        gdir = os.path.join(workdir, "golden")
        os.mkdir(gdir)
        outputs = workloads.make(args.workload, gdir, goldens["seed"]).timed(0)
    if outputs["errors"]:
        return outputs["errors"], note
    exp = flatten(goldens["workloads"][args.workload])
    obs = flatten(wl.golden_fields(outputs))
    problems = [f"golden {k}: expected {exp.get(k)!r}, got {obs.get(k)!r}"
                for k in sorted(set(exp) | set(obs)) if exp.get(k) != obs.get(k)]
    return problems, note


def end_to_end(args, wl, out: dict, setup: list[tuple[float, float]]
               ) -> tuple[dict, list[str]]:
    """Metric values, plus human-readable lines naming each figure by what
    it times (reps_per_s, calibrate_s, band_ms_p50, ...). The metrics use the
    call times normalized to the reference core speed (see reference.py);
    the lines give the wall-clock figures beside them."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    share = out["failed"] / out["attempted"]
    if args.workload == "cli-csv":
        cal, cal_norm = out["calibrate_s"], out["calibrate_norm_s"]
        band = [1000.0 * s for s in out["band_s"]]
        band_norm = [1000.0 * s for s in out["band_norm_s"]]
        values = {
            "throughput_per_s": wl.paths["rows"] / quantile(cal_norm, 0.5),
            "call_ms_p50": quantile(band_norm, 0.5),
        }
        lines = [
            f"calibrate_s {quantile(cal_norm, 0.5):.4f} s normalized, "
            f"{quantile(cal, 0.5):.4f} s wall (median of {len(cal)})",
            f"band_ms_p50 {values['call_ms_p50']:.4f} ms normalized, "
            f"{quantile(band, 0.5):.4f} ms wall ({len(band)} calls)",
            f"band_ms_p90 {quantile(band_norm, 0.9):.4f} ms normalized, "
            f"{quantile(band, 0.9):.4f} ms wall ({len(band)} calls)",
        ]
    else:
        calls = [1000.0 * s for s in out["calls_s"]]
        calls_norm = [1000.0 * s for s in out["calls_norm_s"]]
        values = {
            "throughput_per_s": wl.reps_per_call / (quantile(calls_norm, 0.5) / 1000.0),
            "call_ms_p50": quantile(calls_norm, 0.5),
        }
        lines = [
            f"reps_per_s {values['throughput_per_s']:.4f} replications/s "
            f"normalized, {wl.reps_per_call / (quantile(calls, 0.5) / 1000.0):.4f} "
            f"wall ({wl.reps_per_call} per study call, {len(calls)} calls)",
            f"study_ms_p50 {values['call_ms_p50']:.4f} ms normalized, "
            f"{quantile(calls, 0.5):.4f} ms wall",
            f"study_ms_p90 {quantile(calls_norm, 0.9):.4f} ms normalized, "
            f"{quantile(calls, 0.9):.4f} ms wall",
        ]
    values["setup_s"] = statistics.median(norm for _, norm in setup)
    values["peak_rss_mb"] = rss_mb
    lines += [
        f"setup_s {values['setup_s']:.4f} s normalized, "
        f"{statistics.median(wall for wall, _ in setup):.4f} s wall "
        f"(median of {len(setup)} fresh processes)",
        f"peak_rss_mb {rss_mb:.1f} MiB",
        f"failed_share {share:.4f} ({out['failed']} of {out['attempted']})",
    ]
    return values, lines


def per_layer(out: dict) -> tuple[dict, list[str]]:
    values = {k: v for k, (v, _) in out["stages"].items()}
    values["trace.overhead_share"] = out["overhead_share"]
    lines = [f"{k} {v:.4f} ms (n={n})" for k, (v, n) in out["stages"].items()]
    lines += [f"  {k} {v:.6g} (n={n})" for k, (v, n) in out["detail"].items()]
    lines.append(f"trace.overhead_share {out['overhead_share']:.4f}")
    return values, lines


def run(args, workdir: str) -> dict:
    record = run_record()
    t0 = time.perf_counter()
    wl = workloads.make(args.workload, workdir, args.seed)
    record["synthesis_s"] = time.perf_counter() - t0

    setup = [] if args.trace else [setup_seconds(args, workdir)
                                   for _ in range(SETUP_PROBES)]
    wl.warm_up()
    if args.trace:
        out = wl.traced(args.seconds)
        problems = list(out["problems"])
        values, lines = per_layer(out)
        units = PER_LAYER_UNITS
        timed_outputs = None
    else:
        out = wl.timed(args.seconds)
        problems = wl.self_check(out)
        values, lines = end_to_end(args, wl, out, setup)
        units = END_TO_END_UNITS
        timed_outputs = out
    golden_problems, note = golden_check(args, wl, timed_outputs, workdir)
    problems += golden_problems
    record["loadavg_end"] = loadavg()
    record["steal_s_during_run"] = steal_seconds() - record.pop("steal_s_start")
    record["gate"] = note

    for line in [f"record {json.dumps(record, sort_keys=True)}",
                 f"workload {args.workload} seed {args.seed} trace {args.trace} "
                 f"seconds {args.seconds}",
                 f"synthesis_s {record['synthesis_s']:.4f} s (excluded from setup_s)",
                 *lines, f"gate: {note}",
                 *(f"FAILED CHECK: {p}" for p in problems)]:
        print(line)
    return {
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


@contextlib.contextmanager
def temp_workdir(prefix: str):
    """A fresh directory under the checkout, removed with its parent when
    empty."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)


def write_goldens() -> int:
    goldens = {"seed": GOLDEN_SEED, "workloads": {}}
    with temp_workdir("goldens-") as workdir:
        for name in workloads.WORKLOADS:
            wdir = os.path.join(workdir, name)
            os.mkdir(wdir)
            wl = workloads.make(name, wdir, GOLDEN_SEED)
            outputs = wl.timed(0)
            if outputs["errors"]:
                raise RuntimeError("; ".join(outputs["errors"]))
            goldens["workloads"][name] = wl.golden_fields(outputs)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"goldens written to {GOLDENS}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="pin the goldens of every workload and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is None and not args.write_goldens:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.write_goldens:
        return write_goldens()

    with temp_workdir(f"{args.workload}-") as workdir:
        try:
            result = run(args, workdir)
        except Exception as exc:  # a failure no output check caught
            traceback.print_exc()
            print(f"FAILED CHECK: run aborted: {type(exc).__name__}: {exc}")
            units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
            result = {
                "correct": False,
                "attempted": 1,
                "failed": 1,
                "metrics": {k: {"value": float("nan"), "unit": u}
                            for k, u in units.items()},
            }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
