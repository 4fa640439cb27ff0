"""A pin on the committed paper-grid reports under ``results/``.

``results/study1_coverage.json`` and ``results/study1_coverage.csv`` are the
report and the table of ``configs/study1_coverage.json``, run with the
kernels of ``conftest.pinned_env`` (README). The whole config takes minutes,
so this test reruns two of its n = 20 cells: entry 0, and entry 10, study 1,
scenario 2, whose ``exp`` has bits that depend on numpy's SIMD kernels.
"""

import json
import pathlib
import subprocess
import sys

from conftest import pinned_env

ROOT = pathlib.Path(__file__).parents[1]
ENTRIES = (0, 10)


def test_two_cells_of_study1_coverage_rerun_to_the_committed_bytes(tmp_path):
    config = json.loads((ROOT / "configs" / "study1_coverage.json").read_text())
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"configs": [config["configs"][i] for i in ENTRIES]}))
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    subprocess.run([sys.executable, "-m", "mfconformal.cli", "study", str(cells),
                    "--report", str(report), "--table", str(table)],
                   env=pinned_env(), capture_output=True, check=True, timeout=120)

    committed = json.loads((ROOT / "results" / "study1_coverage.json").read_text())
    entries = {"reports": [committed["reports"][i] for i in ENTRIES]}
    # The report writer's format: sorted keys, indent 2, final newline.
    assert report.read_text() == json.dumps(entries, indent=2, sort_keys=True) + "\n"
    header, *rows = (ROOT / "results" / "study1_coverage.csv").read_bytes().splitlines(True)
    assert table.read_bytes() == header + b"".join(rows[i] for i in ENTRIES)
