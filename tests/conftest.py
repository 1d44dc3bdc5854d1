import contextlib
import itertools

import numpy as np
import pytest

from gnpmod import trace
from gnpmod.graph import Graph, component_roots, sample_gnp


@pytest.fixture
def k2():
    return Graph(2, [(1, 2)])


@pytest.fixture
def k3():
    return Graph(3, [(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def k4():
    return Graph(4, list(itertools.combinations(range(1, 5), 2)))


@pytest.fixture
def path4():
    return Graph(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def two_edges():
    return Graph(4, [(1, 2), (3, 4)])


@pytest.fixture
def cycle6():
    return Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])


# Verdict lines from the acceptance suite; printed after the test
# summary so they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    """First connected G(n,p) sample at seed, seed+1000, seed+2000, ..."""
    for off in itertools.count(0, 1000):
        G = sample_gnp(n, p, seed + off)
        if not component_roots(G).any():
            return G
    raise AssertionError("unreachable")


def subset(members, n: int) -> np.ndarray:
    """The boolean subset array of the 1-indexed `members` in [n]."""
    S = np.zeros(n, dtype=bool)
    S[np.fromiter(members, dtype=np.int64) - 1] = True
    return S


class Recorder:
    """A gnpmod.trace sink keeping each stage's (name, details), in the
    order the stages end."""

    def __init__(self):
        self.records: list[tuple[str, dict]] = []

    def begin(self, name):
        pass

    def end(self, name, wall_s, details):
        self.records.append((name, details))

    def of(self, name: str) -> list[dict]:
        """The details of each stage called `name`."""
        return [details for stage, details in self.records if stage == name]


@contextlib.contextmanager
def recorded():
    """A Recorder of the stages run in the block."""
    sink = Recorder()
    with trace.recording(sink):
        yield sink
