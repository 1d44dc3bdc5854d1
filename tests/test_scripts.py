"""Smoke runs of the instrumentation scripts under scripts/.

They patch private library names (the stay table rule, the swap search,
one local-search restart, one Louvain run), so a refactor that renames
or reshapes one of those breaks them; each runs here on a small graph.
scripts/freeze_exact_corpus.py is left out: it rewrites the golden
corpus.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, extra, header", [
    ("louvain_sweeps", [], "# n=200 d=8.0 seed=1 m="),
    ("bisection_restarts", [], "# n=200 d=8.0 seed=1 m="),
    ("corridor_sweep", ["--trials", "1"], "d,mean_heuristic_x_sqrtd,"),
], ids=["louvain_sweeps", "bisection_restarts", "corridor_sweep"])
def test_script_runs(capsys, name, extra, header):
    code = load(name).main(["--n", "200", "--d", "8", *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(header)
