"""Smoke runs of the instrumentation scripts under scripts/.

They patch private library names (the stay table rule, the swap search,
one local-search restart, one Louvain run, the stages of a sweep trial),
so a refactor that renames or reshapes one of those breaks them; each
runs here on a small graph.
scripts/freeze_exact_corpus.py is left out: it rewrites the golden
corpus.  scripts/appendix_sharpness.py reads the appendix report's
thresholds and certified lower bounds.
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
    ("trial_memory", [], "# n=200 d=8.0 seed=1 m="),
], ids=["louvain_sweeps", "bisection_restarts", "corridor_sweep", "trial_memory"])
def test_script_runs(capsys, name, extra, header):
    code = load(name).main(["--n", "200", "--d", "8", *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(header)


def test_appendix_sharpness(capsys):
    """The certificate passes down to z = 2.0 and fails from z = 1.95 on,
    as the script's docstring says."""
    load("appendix_sharpness").main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "z,min_f,f_lower,f_ok,min_g,g_ok,passed"
    passed = {float(z): p for z, *_, p in (row.split(",") for row in rows)}
    assert min(passed) < 1.95 and max(passed) > 2.0
    assert all(p == ("1" if z >= 2.0 else "0") for z, p in passed.items())


def test_trial_memory_stages(capsys):
    """One line per stage call of a sweep trial, in the trial's order."""
    assert load("trial_memory").main(["--n", "200", "--d", "8", "--restarts", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("stage,call,traced_peak_mib,maxrss_mib")
    rows = [line.split(",") for line in lines[at + 1:]]
    assert [(stage, int(call)) for stage, call, *_ in rows] == [
        ("sample", 1), ("components", 1), ("score_definition", 1), ("louvain", 1),
        ("score_definition", 2), ("restart", 1), ("restart", 2), ("score_edge_form", 1)]
    assert all(float(peak) >= 0 and float(rss) > 0 for *_, peak, rss in rows)
