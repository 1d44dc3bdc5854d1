"""Benchmark of gnpmod: the n=4000 sweep corridors and the desk oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corridor-d25 --seed 1 --seconds 12 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced run; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The workload runs in a child process, so its peak
memory is its own; set-up is timed in that process and in SETUP_PROBES
more, and the median is reported.  A result file (and, when traced, a
span file) is written under perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("corridor-d25", "corridor-d400", "desk-oracles")
SETUP_PROBES = 4
DEADLINE_S = 170.0       # a run must end within 180 s
BLAS_THREADS = "1"       # one BLAS thread: steady timings on a small shared box


def _child_env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    path = [str(root / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # every set-up compiles gnpmod afresh, whatever the caller's setting,
    # and nothing is written next to the sources
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: argparse.Namespace, root: pathlib.Path, deadline: float,
            setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # run() kills the child and waits for it if the deadline passes
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev(root: pathlib.Path) -> str:
    """HEAD of the checkout, read from .git without running git (a
    checkout that is not a git repository gives "unknown")."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    deadline = time.monotonic() + DEADLINE_S

    root = pathlib.Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "gnpmod" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: run from the root of a gnpmod checkout "
              "(src/gnpmod and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        report = _worker(args, root, deadline, setup_only=False)
        setups = [report["setup_s"]]
        if not args.trace:
            setups += [_worker(args, root, deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    values = dict(report["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload reported no {missing}", file=sys.stderr)
        return 1

    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "numpy": report["numpy"],
               "blas_threads": BLAS_THREADS, "git_rev": _git_rev(root),
               "platform": platform.platform()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine, "result": result, "rounds": report["rounds"],
              "setup_samples_s": setups, "all_metrics": values,
              "problems": report["problems"]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        trace = dict(report["trace"], machine=machine, workload=args.workload,
                     seed=args.seed)
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace) + "\n")

    for m in wanted:
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
