"""The benchmark harness runs every workload at toy size and checks out.

Each workload runs ``perfbench/run.py``'s ``run()`` once at the self-test's
toy sizes for exactly its minimum number of rounds (``--seconds 0``), in its
own interpreter: the harness pins the BLAS thread count before numpy loads
and puts its own directories on ``sys.path``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

RUN_TOY = """
import sys
sys.path.insert(0, sys.argv[1])
import run, selftest
run._import_package()
from workloads import Sizes
argv = ["--workload", sys.argv[2], "--seed", "3", "--seconds", "0", "--trace", "0"]
sys.exit(run.run(argv, sizes=Sizes(**selftest.TOY)))
"""


@pytest.mark.parametrize("workload", ["fig5", "multi-control", "pulse-pipeline"])
def test_workload_runs_at_toy_size(workload):
    done = subprocess.run(
        [sys.executable, "-c", RUN_TOY, str(PERFBENCH), workload],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
