"""Self-test of the benchmark at a tiny run length.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit in
both modes, that the last output line has exactly the agreed keys, that the
correctness gate fails when one pinned golden is perturbed, and that the
benchmark refuses to run without the package source. Exit code 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: str = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def check_metrics(result: dict | None, specs: list[dict], where: str) -> list[str]:
    if result is None or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not a result with keys {sorted(RESULT_KEYS)}"]
    problems = []
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']!r}")
    if not result["attempted"] >= 1 or result["failed"] != 0:
        problems.append(f"{where}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in specs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units {got} != {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def copy_checkout(dest: str, with_source: bool) -> str:
    """A copy of the checkout's layout: BENCHMARK.json, perfbench and,
    with ``with_source``, the package source."""
    os.mkdir(dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=skip)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=skip)
    return dest


def perturbed_gate(workdir: str, workload: str, key: tuple, seed: str) -> list[str]:
    """Run a copy with one golden changed; the gate must report it and fail."""
    copy = copy_checkout(os.path.join(workdir, f"gate-{workload}"), True)
    path = os.path.join(copy, "perfbench", "goldens.json")
    with open(path, encoding="utf-8") as fh:
        goldens = json.load(fh)
    node = goldens["workloads"][workload]
    for k in key[:-1]:
        node = node[k]
    value = node[key[-1]]
    node[key[-1]] = value + 1 if isinstance(value, int) else "0" + value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh)
    rc, out, result = bench("--workload", workload, "--seed", seed,
                            "--seconds", "1", cwd=copy)
    where = f"{workload} with golden {'.'.join(key)} perturbed"
    if rc == 0 or result is None or result["correct"] is not False:
        return [f"{where}: gate did not fire (exit {rc})"]
    if f"golden {'.'.join(key)}" not in out:
        return [f"{where}: the failure does not name the perturbed golden"]
    return []


def missing_package(workdir: str) -> list[str]:
    """A directory holding only BENCHMARK.json and perfbench must refuse."""
    bare = copy_checkout(os.path.join(workdir, "bare"), False)
    rc, _, result = bench("--workload", "mc-n20", "--seed", "1", "--seconds", "1",
                          cwd=bare)
    if rc == 0 or result is not None:
        return [f"without the package source: exit {rc}, result {result}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for i, w in enumerate(m["name"] for m in spec["workloads"]):
        for trace, specs in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            rc, out, result = bench("--workload", w, "--seed", str(i),
                                    "--seconds", "1", "--trace", trace)
            where = f"{w} --trace {trace}"
            if rc != 0:
                problems.append(f"{where}: exit {rc}\n{out}")
            problems += check_metrics(result, specs, where)
            print(f"{where}: checked", flush=True)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
    try:
        problems += perturbed_gate(workdir, "mc-n20", ("s1.1", "hits"), "0")
        problems += perturbed_gate(workdir, "cli-csv", ("bands_sha256",), "1")
        problems += missing_package(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
