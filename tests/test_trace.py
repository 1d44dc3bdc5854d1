"""The stage records of gnpmod.trace, against independent references.

A recording sink changes no output, and `recording` unsets it however
its block ends.  On one sweep trial, each restart's record must hold
the cut that _single_local_search returns, the gain-matrix builds a
_swap_gains spy counts and the swaps oracles.local_search_matrix makes,
and the annealing record the schedule and the quench rounds read from
the permutations and noise uniforms each run draws.
"""

import numpy as np
import pytest

from gnpmod import bisection, cli, modularity, trace
from gnpmod.bisection import local_search_bisection
from gnpmod.graph import sample_gnp
from gnpmod.modularity import heuristic_modularity
from gnpmod.rng import generator, trial_seed

import oracles
from conftest import Recorder, recorded

N, D, SEED, RESTARTS = 200, 8.0, 1, 3


class CountingRng:
    """A generator whose draws are logged: annealing draws one
    permutation per sweep and per quench round, and one (n, k) block of
    uniforms per sweep, which it turns into Gumbel noise itself.  It has
    no gumbel method, so a return to rng.gumbel fails here."""

    def __init__(self, rng):
        self.rng, self.permutations, self.noise = rng, 0, []

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def permutation(self, n):
        self.permutations += 1
        return self.rng.permutation(n)

    def random(self, size):
        self.noise.append(size)
        return self.rng.random(size)


def sweep_stdout(capsys, sink=None) -> str:
    argv = ["sweep", "--n", "200", "--d", "8,12", "--trials", "2", "--seed", "3",
            "--restarts", "2"]
    if sink is None:
        assert cli.main(argv) == 0
    else:
        with trace.recording(sink):
            assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_sink_changes_no_output(capsys):
    sink = Recorder()
    assert sweep_stdout(capsys, sink) == sweep_stdout(capsys)
    # 2 densities x 2 trials, each with 2 restarts
    assert len(sink.of("sample")) == 4 and len(sink.of("restart")) == 8


def test_recording_unsets_the_sink_when_its_block_raises():
    outer, inner = Recorder(), Recorder()
    with trace.recording(outer):
        with pytest.raises(ZeroDivisionError):
            with trace.recording(inner):
                with trace.stage("sample") as details:
                    details["m"] = 1
                    1 / 0
        sample_gnp(10, 0.5, 1)
    sample_gnp(10, 0.5, 1)
    assert inner.records == [("sample", {"m": 1})]  # ended, although it raised
    assert outer.of("sample") == [{"m": sample_gnp(10, 0.5, 1).m}]


@pytest.fixture(scope="module")
def trial():
    """The records of the trial `gnpmod sweep --n 200 --d 8 --seed 1
    --restarts 3 --exact-seed` runs, and its graph."""
    with recorded() as sink:
        assert cli.main(["sweep", "--n", str(N), "--d", repr(D), "--seed", str(SEED),
                         "--restarts", str(RESTARTS), "--exact-seed"]) == 0
    return sink, sample_gnp(N, D / N, SEED)


def test_stages_in_trial_order(trial):
    sink, G = trial
    outer = [name for name, _ in sink.records]
    assert outer == ["sample", "components", "score_definition", "anneal",
                     "score_definition", "heuristic", "restart", "restart", "restart",
                     "bisection", "score_edge_form"]
    assert sink.of("sample") == [{"m": G.m}]


def test_restarts_match_the_search_and_a_gain_matrix_spy(trial, monkeypatch):
    sink, G = trial
    builds, gains = [], bisection._swap_gains
    monkeypatch.setattr(bisection, "_swap_gains", lambda *a: builds.append(1) or gains(*a))
    want, sides = [], []
    for r in range(RESTARTS):
        builds.clear()
        side, cut = bisection._single_local_search(G, generator(trial_seed(SEED, r)))
        _, _, swaps = oracles.local_search_matrix(G, generator(trial_seed(SEED, r)))
        want.append({"cut": cut, "fallbacks": len(builds), "swaps": swaps})
        sides.append(bisection._canonical_side(side, G.n))
    assert sink.of("restart") == want
    assert any(w["fallbacks"] for w in want)  # the spy's count is put to the test
    assert all(w["swaps"] for w in want)
    (won,) = sink.of("bisection")
    assert np.array_equal(sides[won["restart"]],
                          local_search_bisection(G, seed=SEED, restarts=RESTARTS).S)


@pytest.mark.parametrize("runs", [1, 3])
def test_anneal_record_matches_the_draws(trial, runs):
    sink, G = trial
    rngs = [CountingRng(generator(trial_seed(SEED, r))) for r in range(runs)]
    record = {}
    modularity._anneal_labels(G, rngs, record)
    if runs == 1:
        assert sink.of("anneal") == [record]  # the trial's heuristic ran budget 1
    k = min(modularity.ANNEAL_K, G.n)
    sweeps = modularity.ANNEAL_SWEEPS_PER_BIT * G.n.bit_length()
    assert (record["k"], record["sweeps"]) == (k, sweeps)
    assert G.n > modularity.ANNEAL_BATCH_MIN
    assert record["batch"] == min(round(modularity.ANNEAL_BATCH_ENTRIES * G.n * G.n / (2 * G.m)),
                                  (G.n + 1) // 2)
    for rng, rounds, hot, fallbacks in zip(rngs, record["quench_rounds"],
                                          record["hot_moves"], record["fallbacks"]):
        assert rng.permutations == sweeps + rounds
        assert rng.noise == [(G.n, k)] * sweeps  # one block of uniforms a sweep
        assert 0 <= hot <= G.n and 0 <= fallbacks
    assert len(record["quench_rounds"]) == len(record["hot_moves"]) == runs


def test_heuristic_winner(trial):
    sink, G = trial
    best = heuristic_modularity(G, seed=SEED, budget=1)
    (won,) = sink.of("heuristic")
    assert won == {"method": best.method, "run": 0 if best.method == "heuristic" else None}
