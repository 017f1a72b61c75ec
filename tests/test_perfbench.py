import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ("branch", "cli_tile", "smooth_scan", "genericity"))
def test_branch_bench_smoke_with_trace(workload):
    # one short traced run of each workload passes the harness' own
    # self-check (traced against untraced, predicted layer work) and its
    # accuracy gates; the harness writes only under perfbench/results/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    docs = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert docs and docs[-1]["correct"] is True
    assert docs[-1]["failed"] == 0
