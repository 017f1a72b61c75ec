import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_branch_bench_smoke_with_trace():
    # one short traced run of the branch workload passes the harness' own
    # self-check (traced against untraced, predicted layer work) and its
    # accuracy gates; the harness writes only under perfbench/results/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branch", "--seed", "0",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    docs = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert docs and docs[-1]["correct"] is True
    assert docs[-1]["failed"] == 0
