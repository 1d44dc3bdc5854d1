"""Freeze the golden corpus for the exact-modularity acceptance check.

Scores come from brute-force enumeration of every partition in
restricted-growth-string order (the oracle in tests/oracles.py), not
from the production solver, so the frozen file is an independent
reference. Scores are stored as exact integer fractions num/(4 m^2).

Run from the repository root:
    PYTHONPATH=src python3 scripts/freeze_exact_corpus.py
"""

import json
import pathlib
import sys

from gnpmod.graph import Graph, sample_gnp

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracles import brute_force_modularity  # noqa: E402

OUT = ROOT / "tests" / "golden" / "exact_corpus.json"


def entry(name, G):
    num, den, blocks = brute_force_modularity(G.n, G.edges.tolist())
    return {"name": name, "n": G.n, "edges": G.edges.tolist(),
            "num": num, "den": den, "blocks": blocks}


def main():
    named = {
        "two_disjoint_edges": Graph(4, [(1, 2), (3, 4)]),
        "K2": Graph(2, [(1, 2)]),
        "K3": Graph(3, [(1, 2), (1, 3), (2, 3)]),
        "P4": Graph(4, [(1, 2), (2, 3), (3, 4)]),
    }
    entries = [entry(name, G) for name, G in named.items()]
    for i in range(40):
        n = 4 + i % 7  # n in 4..10
        G = sample_gnp(n, 0.5, 20_000 + i)
        if G.m == 0:
            continue
        entries.append(entry(f"gnp_{n}_seed{20_000 + i}", G))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
