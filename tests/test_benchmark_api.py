"""The library calls the benchmark makes, run the way the benchmark runs them.

perfbench/worker.py drives each workload through gnpmod and checks its
outputs; with --seconds 0 --trace 1 it runs one untraced and one traced
round.  It runs here in a child process with the environment
perfbench/run.py gives it (PYTHONPATH src and perfbench, one BLAS thread,
no bytecode written), so a change that would make the benchmark count a
failed operation or a wrong output fails this test first.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def child_env() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run._child_env(ROOT)


@pytest.mark.parametrize("workload", ["corridor-d25", "corridor-d400", "desk-oracles"])
def test_traced_round_is_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
    assert report["problems"] == []
