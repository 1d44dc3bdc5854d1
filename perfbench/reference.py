"""A fixed reference kernel that measures how fast the machine runs
while a round runs.

On a small shared host the same round of gnpmod calls can take a quarter
longer at one time than at another: the speed the process gets drifts
over seconds and over minutes.  So, during every timed round of an
untraced run, a `Probe` interrupts the round every PROBE_INTERVAL_S of
wall time (SIGALRM) and times one call of the kernel.  The benchmark reports the round's wall time, less the probe
calls, in units of the mean probe call (`wall_per_ref`).  A change to
gnpmod moves the round and not the kernel; a change in the machine's
speed moves both.

The kernel is the benchmark's own code and never calls gnpmod.  It mixes
the three kinds of work the workloads do: a loop of small numpy calls and
scalar reads on n=4000 arrays (as in the bisection swap search), a Python
loop over dicts (as in Louvain's local moves), and a bulk numpy pass (as
in sample_gnp).  Its inputs are fixed and do not depend on --seed.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

N = 4000
PROBE_INTERVAL_S = 0.1


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20250422)
        self.D = rng.integers(-30, 30, N)
        self.side = rng.random(N) < 0.5
        self.adj = [dict.fromkeys(rng.integers(0, N, 12).tolist(), 1.0) for _ in range(N)]
        self.comm = rng.integers(0, 50, N).tolist()
        self.bulk = rng.random(100_000)

    def run_once(self) -> int:
        """One call: about 2.5 ms on a 2-vCPU x86_64 VM."""
        D, side, adj, comm = self.D, self.side, self.adj, self.comm
        DS = np.where(side, D, -999)
        DT = np.where(side, -999, D)
        cand_a = np.nonzero(DS >= DS.max() - 3)[0][:30]
        cand_b = np.nonzero(DT >= DT.max() - 3)[0][:30]
        best = 0
        for a in cand_a:
            da = int(D[a])
            row = adj[int(a)]
            for b in cand_b:
                gain = da + int(D[b]) - (2 if int(b) in row else 0)
                if gain > best:
                    best = gain
        for v in range(0, N, 8):
            links: dict[int, float] = {}
            for w, wt in adj[v].items():
                c = comm[w]
                links[c] = links.get(c, 0.0) + wt
            best += len(links)
        return best + int((self.bulk < 0.5).sum())


class Probe:
    """While active, runs the kernel once every PROBE_INTERVAL_S of wall
    time from a SIGALRM handler, and records (start, duration) of each
    call.  The handler runs between two bytecodes of whatever Python
    code is running, so a long call into C defers it a little; the
    garbage collector is off during a probe call, so the size of the
    workload's heap does not enter the probe's time."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.calls: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        collect = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.kernel.run_once()
        self.calls.append((t0, time.perf_counter() - t0))
        if collect:
            gc.enable()

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, start: float, end: float) -> list[float]:
        """Durations of the probe calls that started in [start, end)."""
        return [d for t, d in self.calls if start <= t < end]
