import concurrent.futures
import csv
import itertools
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

import pytest

from gnpmod import bisection, bounds, cli, concentration, modularity
from gnpmod.cli import main
from gnpmod.graph import read_edge_list, sample_gnp
from gnpmod.spectral import normalized_laplacian

from oracles import jacobi_eigenvalues


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def data_rows(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class TestSample:
    def test_stdout_matches_library(self, capsys):
        code, out = run(capsys, "sample", "--n", "20", "--p", "0.3", "--seed", "5")
        assert code == 0
        G = sample_gnp(20, 0.3, 5)
        assert out.splitlines()[0] == f"20 {G.m}"

    def test_to_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _ = run(capsys, "sample", "--n", "15", "--d", "4", "--seed", "1",
                      "--out", str(path))
        assert code == 0
        with open(path) as fh:
            assert read_edge_list(fh) == sample_gnp(15, 4 / 15, 1)

    def test_p_and_d_are_exclusive(self, capsys):
        code, _ = run(capsys, "sample", "--n", "10", "--p", "0.5", "--d", "5")
        assert code == 2
        code, _ = run(capsys, "sample", "--n", "10")
        assert code == 2

    def test_oversized_graph_exits_3(self, capsys):
        code, out = run(capsys, "sample", "--n", "10000001", "--d", "5")
        assert code == 3
        assert out == ""

    def test_large_sparse_graph_is_drawn(self, capsys, tmp_path):
        # 5 * 10^9 pairs: the draw's time follows the 1.25 * 10^6 edges
        path = tmp_path / "g.txt"
        code, _ = run(capsys, "sample", "--n", "100000", "--d", "25", "--seed", "1",
                      "--out", str(path))
        assert code == 0
        with open(path) as fh:
            assert fh.readline() == f"100000 {sample_gnp(100_000, 25 / 100_000, 1).m}\n"

    def test_dense_graph_exits_3(self, capsys):
        code, out = run(capsys, "sample", "--n", "10000", "--p", "0.9")
        assert code == 3
        assert out == ""


class TestScoring:
    def test_mod_exact(self, capsys):
        for n in (8, 14):  # only the ceiling, n = 20, limits mod-exact
            code, out = run(capsys, "mod-exact", "--n", str(n), "--p", "0.4", "--seed", "3")
            assert code == 0
            rows = data_rows(out)
            assert rows[0] == "score,method,partition"
            score = float(rows[1].split(",")[0])
            assert score == modularity.exact_modularity(sample_gnp(n, 0.4, 3)).score

    def test_mod_heuristic_deterministic(self, capsys):
        args = ("mod-heuristic", "--n", "100", "--d", "8", "--seed", "2")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b

    def test_score_files(self, capsys, tmp_path):
        gpath, ppath = tmp_path / "g.txt", tmp_path / "p.txt"
        run(capsys, "sample", "--n", "12", "--p", "0.4", "--seed", "7",
            "--out", str(gpath))
        r = modularity.exact_modularity(sample_gnp(12, 0.4, 7))
        with open(ppath, "w") as fh:
            modularity.write_partition(r.partition, fh)
        code, out = run(capsys, "score", "--graph", str(gpath),
                        "--partition", str(ppath))
        assert code == 0
        a, b = data_rows(out)[1].split(",")
        assert float(a) == float(b) == r.score

    @pytest.mark.parametrize("cmd, method", [("certificate", "bisection"),
                                             ("mod-heuristic", "trivial")])
    def test_graph_without_edges_scores_zero(self, capsys, cmd, method):
        assert sample_gnp(10, 0.01, 2).m == 0
        code, out = run(capsys, cmd, "--n", "10", "--p", "0.01", "--seed", "2")
        assert code == 0
        assert data_rows(out)[1].split(",")[:2] == ["0.0", method]

    def test_table_format(self, capsys):
        code, out = run(capsys, "mod-exact", "--n", "6", "--p", "0.5",
                        "--seed", "1", "--format", "table")
        assert code == 0
        assert "score = " in out


class TestAnalysis:
    def test_spectral_methods_agree(self, capsys):
        # the CLI's LAPACK gap against the Jacobi reference on the same graph
        _, out = run(capsys, "spectral", "--n", "30", "--p", "0.3", "--seed", "4")
        eig = jacobi_eigenvalues(normalized_laplacian(sample_gnp(30, 0.3, 4)))
        gap = max(abs(1.0 - eig[1]), abs(1.0 - eig[-1]))
        assert abs(float(data_rows(out)[1].split(",")[-1]) - gap) < 1e-8

    def test_spectral_row_is_plain_numbers(self, capsys):
        code, out = run(capsys, "spectral", "--n", "50", "--d", "5")
        assert code == 0
        row = data_rows(out)[1].split(",")
        assert len(row) == 6
        for field in row:
            float(field)

    def test_bounds(self, capsys):
        code, out = run(capsys, "bounds", "--n", "2000", "--d", "25")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == bounds.BoundReport.CSV_COLUMNS
        assert rows[1] == bounds.bound_report(2000, 25.0, 1.999).csv_row()

    def test_chernoff(self, capsys):
        code, out = run(capsys, "chernoff", "--mu", "100", "--t", "20")
        assert code == 0
        assert data_rows(out)[0] == "mu,t,upper_phi,upper_quad,lower"
        vals = [float(x) for x in data_rows(out)[1].split(",")]
        assert vals[2] <= vals[3]

    def test_verify_appendix(self, capsys):
        """One field per column, each coordinate of the two minimizers in
        its own, with the digits the library reports."""
        code, out = run(capsys, "verify-appendix")
        assert code == 0
        header, row = data_rows(out)
        assert header == concentration.AppendixReport.CSV_COLUMNS
        assert len(row.split(",")) == len(header.split(",")) == 11
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["min_f"] == "0.0012115002718458001"
        assert (fields["x_f"], fields["y_f"], fields["z_f"]) == (
            "1.3166666666666667", "3.95", "1.999")
        assert fields["min_g"] == "0.7031735982631963"
        assert (fields["x_g"], fields["z_g"]) == ("1.34", "1.999")
        assert float(fields["f_lower"]) > 0.001
        assert fields["monotonicity_violations"] == "0" and fields["passed"] == "1"

    def test_verify_appendix_failing_check_exits_1(self, capsys, monkeypatch):
        """A certificate that fails still prints its row, with passed 0."""
        def failing():
            return concentration.AppendixReport(
                min_f=-1.0, argmin_f=(1.0, 2.0, 3.0), f_lower=-1.5,
                min_g=1.0, argmin_g=(1.0, 2.0), g_lower=1.0, monotonicity_violations=0)
        monkeypatch.setattr(concentration, "verify_appendix", failing)
        code, out = run(capsys, "verify-appendix")
        assert code == 1
        header, row = data_rows(out)
        assert row.endswith(",0") and len(row.split(",")) == len(header.split(","))

    def test_events_exhaustive(self, capsys):
        code, out = run(capsys, "events", "--n", "12", "--d", "6", "--seed", "3",
                        "--mode", "exhaustive")
        assert code == 0
        rows = data_rows(out)
        assert rows[0].startswith("regime,k,trials")

    def test_events_sampled(self, capsys):
        code, out = run(capsys, "events", "--n", "200", "--d", "10", "--seed", "3",
                        "--mode", "sampled", "--trials", "500")
        assert code == 0
        assert sum(int(r.split(",")[2]) for r in data_rows(out)[1:]) == 500

    def test_bisect_and_certificate(self, capsys):
        code, out = run(capsys, "bisect", "--n", "14", "--p", "0.4", "--seed", "6",
                        "--exact")
        assert code == 0
        cut_exact = int(data_rows(out)[1].split(",")[2])
        code, out = run(capsys, "bisect", "--n", "14", "--p", "0.4", "--seed", "6")
        cut_ls = int(data_rows(out)[1].split(",")[2])
        assert cut_ls >= cut_exact
        code, out = run(capsys, "certificate", "--n", "100", "--d", "16",
                        "--seed", "6")
        assert code == 0
        assert float(data_rows(out)[1].split(",")[0]) >= 0.0


class TestSweep:
    def test_columns_and_aggregates(self, capsys):
        code, out = run(capsys, "sweep", "--n", "60", "--d", "4,8",
                        "--trials", "2", "--seed", "1", "--restarts", "2")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == ("n,d,seed,heuristic_mod,certificate,"
                           "upper_main,lower_Pstar,spectral_upper")
        assert len(rows) == 5
        assert out.count("aggregate d=") == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("trials", [1, 2, 4])
    def test_aggregates_match_rows(self, capsys, trials, jobs):
        """Each d's aggregate line gives the mean and standard error of
        that d's heuristic and certificate columns."""
        code, out = run(capsys, "sweep", "--n", "60", "--d", "4,8", "--trials", str(trials),
                        "--seed", "1", "--restarts", "2", "--jobs", str(jobs))
        assert code == 0
        rows = list(csv.DictReader(data_rows(out)))
        aggregates = [line.split() for line in out.splitlines()
                      if line.startswith("# aggregate ")]
        assert [a[2] for a in aggregates] == ["d=4.0", "d=8.0"]
        for d, (_, _, _, *tokens) in zip((4.0, 8.0), aggregates):
            got = dict(token.split("=") for token in tokens)
            assert list(got) == ["mean_heuristic", "se", "mean_certificate", "se_certificate"]
            for column, mean_key, se_key in (("heuristic_mod", "mean_heuristic", "se"),
                                             ("certificate", "mean_certificate",
                                              "se_certificate")):
                xs = [float(r[column]) for r in rows if float(r["d"]) == d]
                assert len(xs) == trials
                se = statistics.stdev(xs) / math.sqrt(trials) if trials > 1 else 0.0
                assert float(got[mean_key]) == pytest.approx(statistics.fmean(xs), rel=1e-12)
                assert float(got[se_key]) == pytest.approx(se, rel=1e-12)

    def test_replay_is_byte_identical(self, capsys):
        args = ("sweep", "--n", "60", "--d", "4", "--trials", "2", "--seed", "1",
                "--restarts", "2")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b

    def test_exact_seed_reproduces_row(self, capsys):
        _, full = run(capsys, "sweep", "--n", "60", "--d", "4", "--trials", "3",
                      "--seed", "1", "--restarts", "2")
        target = data_rows(full)[2]
        row_seed = target.split(",")[2]
        _, single = run(capsys, "sweep", "--n", "60", "--d", "4", "--trials", "1",
                        "--seed", row_seed, "--restarts", "2", "--exact-seed")
        assert data_rows(single)[1] == target

    def test_jobs_match_serial(self, capsys):
        args = ("sweep", "--n", "60", "--d", "4", "--trials", "2", "--seed", "1",
                "--restarts", "2")
        _, serial = run(capsys, *args)
        _, parallel = run(capsys, *args, "--jobs", "2")
        assert data_rows(serial) == data_rows(parallel)

    def test_jobs_below_one_rejected(self, capsys):
        code, _ = run(capsys, "sweep", "--n", "60", "--d", "4", "--trials", "1",
                      "--jobs", "0")
        assert code == 2

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        pools = []

        class SerialPool:
            """Stands in for the process pool; runs the trials in process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = ("sweep", "--n", "60", "--d", "4", "--trials", "2", "--seed", "1",
                "--restarts", "2")
        code, clamped = run(capsys, *args, "--jobs", "1000")
        assert code == 0
        assert pools == [2]
        _, serial = run(capsys, *args)
        assert data_rows(clamped) == data_rows(serial)

    def test_needs_d(self, capsys):
        code, _ = run(capsys, "sweep", "--n", "60", "--trials", "1", "--p", "0.1")
        assert code == 2

    def test_trial_without_edges_scores_zero(self, capsys):
        """At n = 3, d = 1 and seed 47 the second trial draws no edges.  Its
        row scores 0 on both, the library's own scores of a graph without
        edges, and the first trial's row keeps the library's scores."""
        code, out = run(capsys, "sweep", "--n", "3", "--d", "1", "--trials", "2",
                        "--seed", "47")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        graphs = [(sample_gnp(3, 1 / 3, int(r[2])), int(r[2])) for r in rows]
        assert [G.m for G, _ in graphs] == [3, 0]
        G, seed = graphs[0]
        assert rows[0][3:5] == [
            repr(modularity.heuristic_modularity(G, seed=seed, budget=1).score),
            repr(bisection.bisection_modularity_certificate(G, seed=seed, restarts=10).score)]
        assert rows[1][3:5] == ["0.0", "0.0"]
        assert out.splitlines()[-1] == ("# aggregate d=1.0 mean_heuristic=0.0 se=0.0 "
                                        "mean_certificate=0.0 se_certificate=0.0")
        G, seed = graphs[1]
        assert modularity.heuristic_modularity(G, seed=seed, budget=1).score == 0.0
        assert bisection.bisection_modularity_certificate(G, seed=seed, restarts=10).score == 0.0


class TestConfigFile:
    def test_json_config_with_flag_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 8, "p": 0.4, "seed": 3}))
        _, from_cfg = run(capsys, "mod-exact", "--config", str(cfgfile))
        _, from_flags = run(capsys, "mod-exact", "--n", "8", "--p", "0.4",
                            "--seed", "3")
        assert data_rows(from_cfg)[1:] == data_rows(from_flags)[1:]
        _, overridden = run(capsys, "mod-exact", "--config", str(cfgfile),
                            "--seed", "4")
        assert data_rows(overridden)[1:] != data_rows(from_cfg)[1:]

    def test_string_value_parses_like_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 8, "p": "0.4", "seed": 3}))
        _, from_cfg = run(capsys, "mod-exact", "--config", str(cfgfile))
        _, from_flags = run(capsys, "mod-exact", "--n", "8", "--p", "0.4",
                            "--seed", "3")
        assert from_cfg == from_flags

    @pytest.mark.parametrize("cfg, argv", [
        ({"n": 12, "d": 6, "seed": 3, "mode": "exhaustive"},
         ["events", "--n", "12", "--d", "6", "--seed", "3", "--mode", "exhaustive"]),
        ({"n": 200, "d": 10, "seed": 3, "trials": 500, "strategy": "uniform"},
         ["events", "--n", "200", "--d", "10", "--seed", "3", "--trials", "500",
          "--strategy", "uniform"]),
    ], ids=["events-mode", "events-strategy"])
    def test_config_values_take_effect(self, capsys, tmp_path, cfg, argv):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        code, from_cfg = run(capsys, argv[0], "--config", str(cfgfile))
        assert code == 0
        _, from_flags = run(capsys, *argv)
        assert from_cfg == from_flags

    def test_echo_line_is_a_config_file(self, capsys, tmp_path):
        _, out = run(capsys, "bisect", "--n", "14", "--p", "0.4", "--seed", "6",
                     "--exact")
        echo = next(ln for ln in out.splitlines() if ln.startswith("# config "))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(echo.removeprefix("# config "))
        _, again = run(capsys, "bisect", "--config", str(cfgfile))
        assert again == out
        code, _ = run(capsys, "certificate", "--config", str(cfgfile))
        assert code == 2

    def test_header_echo_and_no_timestamp(self, capsys):
        _, out = run(capsys, "bounds", "--n", "100", "--d", "9")
        meta = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert any("gnpmod" in ln for ln in meta)
        assert any("config" in ln for ln in meta)
        assert not any("timestamp" in ln for ln in meta)
        _, stamped = run(capsys, "bounds", "--n", "100", "--d", "9", "--timestamp")
        assert any("timestamp" in ln for ln in stamped.splitlines())


GRAPH = "3 2\n1 2\n2 3\n"
PATH4 = "4 3\n1 2\n2 3\n3 4\n"


class TestErrorChannel:
    @pytest.mark.parametrize("files, argv, named", [
        ({"g.txt": "3 2\n1 2\n2 x\n"}, ["mod-heuristic", "--graph", "g.txt"], "'2 x'"),
        ({"g.txt": "3 x\n1 2\n"}, ["mod-heuristic", "--graph", "g.txt"], "'3 x'"),
        ({"g.txt": "3 1\n1 2\n2 3\n", "p.txt": "1 2 3\n"},
         ["score", "--graph", "g.txt", "--partition", "p.txt"], "edge lines"),
        ({}, ["mod-heuristic", "--graph", "missing.txt"], "missing.txt"),
        ({"p.txt": "1 2 3\n"}, ["score", "--graph", "missing.txt", "--partition", "p.txt"],
         "missing.txt"),
        ({"g.txt": GRAPH}, ["score", "--graph", "g.txt", "--partition", "missing.txt"],
         "missing.txt"),
        ({"g.txt": GRAPH, "p.txt": "1 2\nthree\n"},
         ["score", "--graph", "g.txt", "--partition", "p.txt"], "'three'"),
        ({}, ["mod-exact", "--config", "missing.json"], "missing.json"),
        ({"c.json": "{n: 8"}, ["mod-exact", "--config", "c.json"], "not JSON"),
        ({"c.json": '{"n": 3.5, "p": 0.5}'}, ["mod-exact", "--config", "c.json"], "--n"),
        ({"c.json": '{"n": 10, "p": 0.5, "seed": "x"}'}, ["sample", "--config", "c.json"],
         "--seed"),
        ({"c.json": '{"n": 8, "p": 0.5, "bogus": 1}'}, ["mod-exact", "--config", "c.json"],
         "'bogus'"),
        ({"c.json": '{"n": 8, "p": 0.5, "jobs": 2}'}, ["mod-exact", "--config", "c.json"],
         "'jobs'"),
        ({"c.json": '{"n": null, "p": 0.5}'}, ["mod-exact", "--config", "c.json"], "'n'"),
        ({"c.json": '{"n": 14, "p": 0.4, "exact": "yes"}'}, ["bisect", "--config", "c.json"],
         "'exact'"),
        ({}, ["mod-exact", "--n", "8", "--p", "0.4", "--cap", "5"], "--cap"),
        ({}, ["spectral", "--n", "8", "--p", "0.4", "--cap", "5"], "--cap"),
        ({}, ["bisect", "--n", "8", "--p", "0.4", "--exact", "--cap", "5"], "--cap"),
        ({"c.json": '{"n": 8, "p": 0.4, "cap": 13}'}, ["mod-exact", "--config", "c.json"],
         "'cap'"),
        ({}, ["bounds", "--n", "100", "--d", "9", "--jobs", "2"], "--jobs"),
        ({"g.txt": GRAPH}, ["mod-heuristic", "--graph", "g.txt", "--restarts", "-2"],
         "--restarts=-2"),
        ({"g.txt": "3 -1\n"}, ["mod-heuristic", "--graph", "g.txt"], "m=-1"),
        ({}, ["sweep", "--n", "50", "--d", "5,5", "--trials", "1"], "d=5.0 twice"),
        ({}, ["sweep", "--n", "50", "--d", "3,5,5.0", "--trials", "1"], "d=5.0 twice"),
        ({}, ["sweep", "--n", "50", "--d", "5", "--trials", "0"], "--trials=0 must be"),
        ({}, ["sweep", "--n", "50", "--d", "5", "--trials", "1", "--jobs", "0"],
         "--jobs=0 must be"),
        ({}, ["chernoff", "--mu", "1", "--t", "nan"], "--t"),
        ({}, ["chernoff", "--mu", "inf", "--t", "1"], "--mu"),
        ({}, ["chernoff", "--mu", "1e308", "--t", "1e308"], "mu=1e+308, t=1e+308 overflow"),
        ({}, ["chernoff", "--mu", "1e-320", "--t", "1"], "mu=1e-320, t=1.0 overflow"),
        ({}, ["verify-appendix", "--step", "0.05"], "--step"),
        ({}, ["bounds", "--n", "100", "--p", "nan"], "--p"),
        ({}, ["bounds", "--n", "100", "--d", "9", "--C", "inf"], "--C"),
        ({}, ["bounds", "--n", "100", "--d", "9", "--C", "-1"], "C="),
        ({}, ["sweep", "--n", "50", "--d", "5,nan", "--trials", "1"], "--d"),
        ({"c.json": '{"mu": 1, "t": NaN}'}, ["chernoff", "--config", "c.json"], "--t"),
        ({"c.json": '{"step": 0.05}'}, ["verify-appendix", "--config", "c.json"],
         "'step'"),
        ({"c.json": '{"n": 50, "d": [5, NaN]}'}, ["sweep", "--config", "c.json"], "--d"),
        ({"g.txt": PATH4}, ["events", "--graph", "g.txt", "--d", "0"], "d=0.0"),
        ({"g.txt": PATH4}, ["events", "--graph", "g.txt", "--d", "-5"], "d=-5.0"),
        ({"g.txt": PATH4}, ["events", "--graph", "g.txt", "--d", "2", "--C", "-1"],
         "C=-1.0"),
        ({}, ["events", "--n", "12", "--p", "0", "--seed", "3"], "d=0.0"),
        ({}, ["spectral", "--n", "30", "--p", "0.3", "--method", "jacobi"], "--method"),
        ({"g.txt": GRAPH, "p.txt": "1 1 2\n3\n"},
         ["score", "--graph", "g.txt", "--partition", "p.txt"], "repeats a vertex"),
        ({}, ["bounds", "--n", "100", "--d", "9", "--out", "missing/b.csv"],
         "cannot write missing/b.csv"),
        ({}, ["sample", "--n", "10", "--d", "3", "--out", "missing/g.txt"],
         "cannot write missing/g.txt"),
        ({}, ["sweep", "--n", "30", "--d", "4", "--restarts", "1", "--out", "missing/s.csv"],
         "cannot write missing/s.csv"),
        ({}, ["sample", "--n", "10", "--d", "3", "--out", "."], "cannot write ."),
    ], ids=["edge-token", "header-token", "trailing-edge-line", "missing-graph",
            "missing-graph-for-score", "missing-partition", "partition-token",
            "missing-config", "config-not-json", "config-n-not-int", "config-seed-not-int",
            "config-unknown-key", "config-key-not-taken", "config-null-value",
            "config-flag-not-bool", "mod-exact-cap-removed", "spectral-cap-removed",
            "bisect-cap-removed", "config-cap-removed", "flag-not-taken", "restarts-below-1",
            "negative-edge-count", "sweep-repeated-d", "sweep-repeated-d-spelled-apart",
            "sweep-trials-below-1", "sweep-jobs-below-1",
            "t-nan", "mu-inf", "chernoff-overflow", "chernoff-t-over-mu-overflow", "appendix-step-removed", "p-nan",
            "C-inf", "bounds-C-negative", "sweep-d-nan", "config-t-nan",
            "config-appendix-step-removed", "config-sweep-d-nan",
            "events-d-zero", "events-d-negative", "events-C-negative", "events-p-zero",
            "spectral-method-removed", "partition-repeated-vertex", "bounds-out-missing-dir",
            "sample-out-missing-dir", "sweep-out-missing-dir", "sample-out-is-directory"])
    def test_bad_input_exits_2(self, capsys, tmp_path, monkeypatch, files, argv, named):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--n", "60", "--d", "5", "--restarts", "0"], "--restarts=0"),
        (["certificate", "--n", "60", "--d", "5", "--restarts", "0"], "--restarts=0"),
        (["bisect", "--n", "60", "--d", "5", "--restarts", "0"], "--restarts=0"),
        (["mod-heuristic", "--n", "60", "--d", "5", "--restarts", "0"], "--restarts=0"),
        (["events", "--n", "60", "--d", "5", "--trials", "0"], "--trials=0"),
        (["events", "--n", "60", "--d", "5", "--C", "-1"], "--C=-1.0"),
    ], ids=["sweep-restarts", "certificate-restarts", "bisect-restarts",
            "mod-heuristic-restarts", "events-trials", "events-C"])
    def test_bad_count_exits_2_before_sampling(self, capsys, monkeypatch, argv, named):
        """A count below 1 or a C not > 0 is refused before the graph is
        drawn."""
        draws = []
        monkeypatch.setattr(cli, "sample_gnp", lambda *a: draws.append(a) or sample_gnp(*a))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert captured.out == ""
        assert draws == []

    @pytest.mark.parametrize("graph, argv, named", [
        ("40 1\n1 2\n", ["mod-exact"], "exact_modularity n=40 exceeds cap 20"),
        ("40 1\n1 2\n", ["bisect", "--exact"], "exact_min_bisection n=40 exceeds cap 32"),
        ("1000000 1\n1 2\n", ["spectral"], "spectral_gap n=1000000 exceeds cap 4000"),
        ("25 1\n1 2\n", ["events", "--d", "2", "--mode", "exhaustive"],
         "exhaustive event check n=25 exceeds cap 24"),
    ], ids=["mod-exact", "bisect-exact", "spectral", "events-exhaustive"])
    def test_over_ceiling_exits_3(self, capsys, tmp_path, monkeypatch, graph, argv, named):
        """A fixed ceiling exits 3."""
        (tmp_path / "g.txt").write_text(graph)
        monkeypatch.chdir(tmp_path)
        code = main([argv[0], "--graph", "g.txt", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {named}\n"
        assert captured.out == ""


class TestEntryPoint:
    @staticmethod
    def python(*argv):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_console_script(self):
        proc = self.python("-m", "gnpmod.cli", "bounds", "--n", "100", "--d", "9")
        assert proc.returncode == 0
        assert bounds.BoundReport.CSV_COLUMNS in proc.stdout

    def test_import_loads_no_process_pool(self):
        """Importing the CLI loads neither the process pool, which only
        `sweep --jobs` above 1 uses, nor importlib.metadata."""
        proc = self.python("-c", "import sys, gnpmod.cli; print(*sorted(sys.modules))")
        assert proc.returncode == 0
        loaded = set(proc.stdout.split())
        assert "gnpmod.cli" in loaded
        for name in ("concurrent.futures.process", "multiprocessing", "importlib.metadata"):
            assert name not in loaded


class TestDocs:
    def test_readme_option_table_matches_parser(self):
        """Each row of the README's `| subcommand | options |` table lists
        exactly the options that subcommand declares, in order."""
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| subcommand | options |") + 2  # skip the |---| row
        table = {}
        for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
            name, flags = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            table[name] = flags.split()
        declared = {name: [f"--{opt}" for opt in options.split()]
                    for name, (_, options, _) in cli._COMMANDS.items()}
        assert table == declared
