"""Golden CLI transcript: replays a fixed set of small commands and
compares their stdout byte for byte with `golden/cli_transcript.json`.

The replay test in test_acceptance (c12) only proves that one build
repeats itself; this file pins the output across changes to the
library.  Regenerate it, after an intended output change only, with

    PYTHONPATH=src python3 tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from gnpmod.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_transcript.json"

# Input files for `score`, written into the working directory so the
# config echo holds relative names only.
GRAPH_TXT = "8 11\n1 2\n1 3\n2 3\n2 4\n3 5\n4 5\n4 6\n5 7\n6 7\n6 8\n7 8\n"
PARTITION_TXT = "1 2 3\n4 5\n6 7 8\n"

COMMANDS = [
    ["sample", "--n", "20", "--p", "0.3", "--seed", "5"],
    ["mod-exact", "--n", "9", "--p", "0.4", "--seed", "3"],
    ["mod-heuristic", "--n", "60", "--d", "6", "--seed", "2"],
    ["mod-heuristic", "--n", "60", "--d", "6", "--seed", "2", "--format", "table"],
    ["score", "--graph", "g.txt", "--partition", "p.txt"],
    ["spectral", "--n", "30", "--p", "0.3", "--seed", "4"],
    ["spectral", "--n", "50", "--d", "5"],
    ["bisect", "--n", "14", "--p", "0.4", "--seed", "6", "--exact"],
    ["bisect", "--n", "40", "--p", "0.2", "--seed", "6"],
    ["certificate", "--n", "100", "--d", "16", "--seed", "6"],
    ["events", "--n", "14", "--d", "6", "--seed", "3", "--mode", "exhaustive"],
    ["events", "--n", "200", "--d", "10", "--seed", "3", "--mode", "sampled",
     "--trials", "500"],
    ["bounds", "--n", "2000", "--d", "25"],
    ["sweep", "--n", "200", "--d", "8,16", "--trials", "2"],
]


def replay(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def write_inputs(directory: pathlib.Path) -> None:
    (directory / "g.txt").write_text(GRAPH_TXT)
    (directory / "p.txt").write_text(PARTITION_TXT)


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_commands_match_golden_list():
    assert [e["argv"] for e in load()] == COMMANDS


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_replay_byte_identical(i, tmp_path, monkeypatch):
    entry = load()[i]
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = replay(entry["argv"])
    assert code == 0
    assert out == entry["stdout"]


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_out_file_holds_the_stdout(i, tmp_path, monkeypatch):
    """With --out, the file gets the golden stdout byte for byte and
    stdout gets nothing (the config echo leaves --out out)."""
    entry = load()[i]
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = replay([*entry["argv"], "--out", "out.txt"])
    assert code == 0
    assert out == ""
    assert (tmp_path / "out.txt").read_bytes() == entry["stdout"].encode()


@pytest.mark.parametrize("i", [i for i, argv in enumerate(COMMANDS) if argv[0] != "sample"],
                         ids=[" ".join(argv) for argv in COMMANDS if argv[0] != "sample"])
def test_config_echo_replays(i, tmp_path, monkeypatch):
    """The `# config` line, minus its subcommand, is a --config file that
    reproduces the whole output."""
    entry = load()[i]
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    echo = next(ln for ln in entry["stdout"].splitlines() if ln.startswith("# config "))
    cfg = json.loads(echo.removeprefix("# config "))
    subcommand = cfg.pop("subcommand")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, out = replay([subcommand, "--config", "cfg.json"])
    assert code == 0
    assert out == entry["stdout"]


def freeze() -> None:
    here = os.getcwd()
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                code, out = replay(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
                entries.append({"argv": argv, "stdout": out})
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    freeze()
