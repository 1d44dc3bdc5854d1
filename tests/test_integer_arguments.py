"""Integer arguments and seeds have one rule, errors.require_ints: Python
and numpy integers pass, as int, and anything else, or a count below its
minimum, raises ValidationError naming the argument.  A numpy integer
gives the result of the equal Python int."""

import io

import numpy as np
import pytest

from gnpmod.bisection import bisection_modularity_certificate, local_search_bisection
from gnpmod.bounds import bound_report
from gnpmod.concentration import check_lemma32_events_sampled
from gnpmod.errors import ValidationError, require_ints
from gnpmod.graph import Graph, degree, read_edge_list, sample_gnp
from gnpmod.modularity import Partition, heuristic_modularity, read_partition
from gnpmod.rng import generator, trial_seed

G = sample_gnp(30, 0.2, 1)

# Each of these but degree(G, 0) once reached numpy or range() and failed
# there with some other error (TypeError, a bare ValueError, IndexError),
# or, for bound_report, returned a report for a fractional n.
PROBES = {
    "heuristic budget float": lambda: heuristic_modularity(G, budget=2.5),
    "local search restarts float": lambda: local_search_bisection(G, restarts=2.5),
    "certificate restarts float": lambda: bisection_modularity_certificate(G, restarts=2.5),
    "events trials float": lambda: check_lemma32_events_sampled(G, 1.999, 6.0, 2.5, 1),
    "sample_gnp n float": lambda: sample_gnp(30.0, 0.2, 1),
    "Graph n float": lambda: Graph(4.0, []),
    "sample_gnp seed float": lambda: sample_gnp(20, 0.3, 3.0),
    "generator seed float": lambda: generator(1.5),
    "trial_seed base float": lambda: trial_seed(3.0, 0),
    "trial_seed trial float": lambda: trial_seed(3, 0.5),
    "heuristic seed float": lambda: heuristic_modularity(G, seed=1.0),
    "events seed string": lambda: check_lemma32_events_sampled(G, 1.999, 6.0, 10, "1"),
    "Partition.of n negative": lambda: Partition.of([[1]], -1),
    "Partition.of n float": lambda: Partition.of([[1]], 1.0),
    "read_partition n float": lambda: read_partition(io.StringIO("1 2\n"), 2.0),
    "degree vertex float": lambda: degree(G, 1.5),
    "degree vertex zero": lambda: degree(G, 0),
    "bound_report n float": lambda: bound_report(30.5, 5.0),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_probe_refused(probe):
    with pytest.raises(ValidationError):
        probe()


@pytest.mark.parametrize("value, message", [
    (2.5, r"^budget=2\.5 must be an integer >= 1$"),
    (0, r"^budget=0 must be an integer >= 1$"),
    (np.int64(-1), r"^budget=np\.int64\(-1\) must be an integer >= 1$"),
])
def test_message_names_the_argument(value, message):
    with pytest.raises(ValidationError, match=message):
        require_ints(1, budget=value)


def test_owner_returns_ints():
    out = require_ints(0, a=np.int64(3), b=np.uint8(0), c=7)
    assert out == [3, 0, 7] and all(type(i) is int for i in out)
    assert require_ints(seed=-(1 << 70)) == [-(1 << 70)]
    with pytest.raises(ValidationError, match=r"^seed=1\.0 must be an integer$"):
        require_ints(seed=1.0)


@pytest.mark.parametrize("to_int", [np.int64, np.int32, np.uint16], ids=lambda t: t.__name__)
def test_numpy_integers_match_python_ints(to_int):
    H = sample_gnp(to_int(20), 0.3, to_int(3))
    assert H == sample_gnp(20, 0.3, 3) and type(H.n) is int
    assert trial_seed(to_int(3), to_int(2)) == trial_seed(3, 2)
    assert (generator(to_int(5)).random(4) == generator(5).random(4)).all()
    assert (heuristic_modularity(H, seed=to_int(3), budget=to_int(2))
            == heuristic_modularity(H, seed=3, budget=2))
    assert (bisection_modularity_certificate(H, seed=to_int(3), restarts=to_int(2))
            == bisection_modularity_certificate(H, seed=3, restarts=2))
    assert (check_lemma32_events_sampled(H, 1.999, 6.0, to_int(40), to_int(1))
            == check_lemma32_events_sampled(H, 1.999, 6.0, 40, 1))
    assert degree(H, to_int(4)) == degree(H, 4)
    assert Partition.of([[1], [2, 3]], to_int(3)) == Partition.of([[1], [2, 3]], 3)
    assert bound_report(to_int(30), 5.0) == bound_report(30, 5.0)
    assert Graph(to_int(4), [(1, 2)]) == read_edge_list(io.StringIO("4 1\n1 2\n"))
