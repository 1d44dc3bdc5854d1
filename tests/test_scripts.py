"""Smoke runs of the scripts under scripts/, and a guard that keeps them
on gnpmod's public names.

scripts/trial_profile.py reads the stage records of gnpmod.trace for one
sweep trial, so its tables must be those records; it runs here on a
small graph.  The per-d means of a sweep are `gnpmod sweep`'s own
`# aggregate` lines (tests/test_cli.py), so no script averages its rows.
No script may name a private gnpmod attribute or call setattr, so that
a refactor of the library's internals needs no script change.
scripts/freeze_exact_corpus.py is not run: it rewrites the golden
corpus.  scripts/appendix_sharpness.py reads the appendix report's
thresholds and certified lower bounds.
"""

import ast
import importlib.util
import pathlib

import pytest

from gnpmod import cli

from conftest import recorded

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, header", [
    ("trial_profile", "# n=200 d=8.0 seed=1 m="),
], ids=["trial_profile"])
def test_script_runs(capsys, name, header):
    code = load(name).main(["--n", "200", "--d", "8"])
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


def test_trial_profile_tables(capsys):
    """One stage row per stage call of a sweep trial, in the trial's order,
    and one run row per annealing run of its heuristic, each with the
    details of the trial's records."""
    script = load("trial_profile")
    assert script.main(["--n", "200", "--d", "8", "--restarts", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("stage,call,wall_s,traced_peak_mib,maxrss_mib,detail")
    to = lines.index("run,hot_moves,quench_rounds,fallbacks")
    stages = [line.split(",") for line in lines[at + 1:to]]
    runs = [line.split(",") for line in lines[to + 1:]]
    assert [(stage, int(call)) for stage, call, *_ in stages] == [
        ("sample", 1), ("components", 1), ("score_definition", 1), ("anneal", 1),
        ("score_definition", 2), ("restart", 1), ("restart", 2), ("score_edge_form", 1)]
    assert all(float(wall) >= 0 and float(peak) >= 0 and float(rss) > 0
               for _, _, wall, peak, rss, _ in stages)

    with recorded() as sink:
        assert cli.main(["sweep", "--n", "200", "--d", "8.0", "--seed", "1",
                         "--restarts", "2", "--exact-seed"]) == 0
    capsys.readouterr()
    (heuristic,), (won,) = sink.of("heuristic"), sink.of("bisection")
    assert lines[1].endswith(
        f" method={heuristic['method']} run={heuristic['run']} restart={won['restart']}")
    assert [row[5] for row in stages[5:7]] == [
        f"cut={r['cut']} fallbacks={r['fallbacks']} swaps={r['swaps']}"
        for r in sink.of("restart")]
    (anneal,) = sink.of("anneal")
    assert stages[3][5] == " ".join(
        f"{key}={value[0] if isinstance(value, list) else value}"
        for key, value in anneal.items())
    assert runs == [["0", *(str(anneal[key][0]) for key in script.RUN_COUNTS)]]


def private_uses(source: str) -> list[str]:
    """The private gnpmod names (`<module>._name`, or `_name` imported from
    gnpmod) that `source` reaches, and its setattr calls."""
    tree = ast.parse(source)
    bound = {"gnpmod"}  # names the script binds to gnpmod or its members
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gnpmod"):
            bound |= {alias.asname or alias.name for alias in node.names}
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.startswith("gnpmod")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and "setattr" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(ast.unparse(node.func))
    return found


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_script_reaches_no_private_name(path):
    assert private_uses(path.read_text()) == []


def test_private_name_guard():
    assert sorted(private_uses("from gnpmod import cli, modularity as m\nimport gnpmod.graph\n"
                        "cli._sweep_trial; m._neighbours.KIND; gnpmod.graph._row_slices\n"
                        "from gnpmod.bisection import _swap_gains\n"
                        "setattr(cli, 'x', 1); monkeypatch.setattr(cli, 'y', 2)\n"
                        "cli.main; other._private; cli.__doc__\n")) == [
        "cli._sweep_trial", "gnpmod.bisection._swap_gains", "gnpmod.graph._row_slices",
        "m._neighbours", "monkeypatch.setattr", "setattr"]
