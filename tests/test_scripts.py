"""Smoke runs of the instrumentation scripts under scripts/.

scripts/trial_profile.py wraps private library names (the stages of a
sweep trial, the swap search and the stay table rule),
so a refactor that renames or reshapes one of those breaks it; it runs
here on a small graph.
scripts/freeze_exact_corpus.py is left out: it rewrites the golden
corpus.  scripts/appendix_sharpness.py reads the appendix report's
thresholds and certified lower bounds.
"""

import importlib.util
import pathlib
import re

import pytest

from gnpmod import bisection, modularity
from gnpmod.graph import sample_gnp
from gnpmod.rng import generator, trial_seed

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, extra, header", [
    ("corridor_sweep", ["--trials", "1"], "d,mean_heuristic_x_sqrtd,"),
    ("trial_profile", [], "# n=200 d=8.0 seed=1 m="),
], ids=["corridor_sweep", "trial_profile"])
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


def test_trial_profile_tables(capsys, monkeypatch):
    """One stage row per stage call of a sweep trial, in the trial's order,
    each restart with its cut and gain-matrix fallbacks; one level row per
    level of its Louvain run."""
    script = load("trial_profile")
    assert script.main(["--n", "200", "--d", "8", "--restarts", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("stage,call,wall_s,traced_peak_mib,maxrss_mib,detail")
    to = lines.index("level,nodes,sweeps,total_ms,table,before_sweep,sweep_ms")
    stages = [line.split(",") for line in lines[at + 1:to]]
    levels = [line.split(",") for line in lines[to + 1:]]
    assert [(stage, int(call)) for stage, call, *_ in stages] == [
        ("sample", 1), ("components", 1), ("score_definition", 1), ("louvain", 1),
        ("score_definition", 2), ("restart", 1), ("restart", 2), ("score_edge_form", 1)]
    assert all(float(wall) >= 0 and float(peak) >= 0 and float(rss) > 0
               for _, _, wall, peak, rss, _ in stages)

    G = sample_gnp(200, 8 / 200, 1)
    builds = []
    gains = bisection._swap_gains
    monkeypatch.setattr(bisection, "_swap_gains", lambda *a: builds.append(1) or gains(*a))
    for r, row in enumerate(stages[5:7]):
        builds.clear()
        _, cut = bisection._single_local_search(G, generator(trial_seed(1, r)))
        assert row[5] == f"cut={cut} fallbacks={len(builds)}"

    rng = script.TimedRng(generator(trial_seed(1, 0)))
    modularity._louvain_labels(G, rng)
    sizes = [n for n, _ in rng.calls]
    assert stages[3][5] == f"levels={len(levels)}"
    assert [(int(nodes), int(sweeps)) for _, nodes, sweeps, *_ in levels] == [
        (n, sizes.count(n)) for n in dict.fromkeys(sizes)]
    for _, _, sweeps, _, table, sweep, ms in levels:
        assert len(ms.split("/")) == int(sweeps)
        assert (table, sweep) == ("-", "-") or (
            re.fullmatch(r"(dense|slots):\d+", table) and 1 <= int(sweep) <= int(sweeps))
