"""Command-line harness.

Every subcommand reads its parameters from flags, optionally seeded from
a JSON config file (flags override file values), validates them before
doing any work, and writes CSV or a table.  Identical configs produce
byte-identical output; timestamps are emitted only when --timestamp is
given.  Exit codes: 0 success, 2 validation error, 3 size-cap refusal,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib.metadata import PackageNotFoundError, version

from . import bisection, bounds, concentration, modularity, spectral
from .errors import CapExceeded, ValidationError
from .graph import Graph, read_edge_list, sample_gnp, write_edge_list
from .rng import trial_seed

try:
    VERSION = version("gnpmod")
except PackageNotFoundError:  # running from a source tree
    VERSION = "0.1.0"

SWEEP_COLUMNS = "n,d,seed,heuristic_mod,certificate,upper_main,lower_Pstar,spectral_upper"


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    subcommand: str
    n: int | None = None
    p: float | None = None
    d: float | None = None
    C: float = 1.999
    seed: int = 0
    trials: int = 1
    restarts: int = 10
    cap: int | None = None
    out: str | None = None
    fmt: str = "csv"
    timestamp: bool = False
    jobs: int = 1
    exact_seed: bool = False
    graph_file: str | None = None
    partition_file: str | None = None
    extra: dict = field(default_factory=dict)

    def resolve_density(self) -> tuple[float, float]:
        """(p, d) with the missing one derived via d = n p."""
        if (self.p is None) == (self.d is None):
            raise ValidationError("exactly one of --p and --d must be given")
        if self.n is None or self.n < 1:
            raise ValidationError("--n must be a positive integer")
        if self.p is not None:
            if not 0.0 <= self.p <= 1.0:
                raise ValidationError(f"--p {self.p} must lie in [0,1]")
            return self.p, self.p * self.n
        if not 0.0 <= self.d <= self.n:
            raise ValidationError(f"--d {self.d} must lie in [0, n]")
        return self.d / self.n, self.d


def _open_input(path: str):
    """Open an input file; failing to is a validation error (exit 2)."""
    try:
        return open(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc


def _load_graph(cfg: RunConfig, seed: int | None = None) -> Graph:
    if cfg.graph_file:
        with _open_input(cfg.graph_file) as fh:
            return read_edge_list(fh)
    p, _ = cfg.resolve_density()
    return sample_gnp(cfg.n, p, cfg.seed if seed is None else seed)


class _Output:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.lines: list[str] = []

    def meta(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def row(self, text: str) -> None:
        self.lines.append(text)

    def flush(self) -> None:
        body = "\n".join(self.lines) + "\n"
        if self.cfg.out:
            with open(self.cfg.out, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _header(out: _Output, cfg: RunConfig) -> None:
    echo = {k: v for k, v in asdict(cfg).items()
            if v not in (None, {}, "") and k not in ("out", "timestamp")}
    out.meta(f"gnpmod {VERSION}")
    out.meta(f"config {json.dumps(echo, sort_keys=True)}")
    if cfg.timestamp:
        out.meta(f"timestamp {time.strftime('%Y-%m-%dT%H:%M:%S')}")


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_sample(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            write_edge_list(G, fh)
    else:
        write_edge_list(G, sys.stdout)
    return 0


def cmd_score(cfg: RunConfig) -> int:
    if not cfg.graph_file or not cfg.partition_file:
        raise ValidationError("score needs --graph and --partition files")
    G = _load_graph(cfg)
    with _open_input(cfg.partition_file) as fh:
        P = modularity.read_partition(fh, G.n)
    out = _Output(cfg)
    _header(out, cfg)
    out.row("score_definition,score_edge_form")
    out.row(f"{modularity.score_definition(G, P)!r},{modularity.score_edge_form(G, P)!r}")
    out.flush()
    return 0


def _emit_modularity(cfg: RunConfig, result: modularity.ModularityResult) -> None:
    out = _Output(cfg)
    _header(out, cfg)
    if cfg.fmt == "table":
        out.row(f"score = {result.score!r}  method = {result.method}")
        for block in result.partition.canonical_blocks():
            out.row(" ".join(str(v) for v in block))
    else:
        out.row("score,method,partition")
        blocks = ";".join(" ".join(str(v) for v in b)
                          for b in result.partition.canonical_blocks())
        out.row(f"{result.score!r},{result.method},{blocks}")
    out.flush()


def cmd_mod_exact(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    cap = cfg.cap if cfg.cap is not None else modularity.EXACT_CAP_DEFAULT
    _emit_modularity(cfg, modularity.exact_modularity(G, cap=cap))
    return 0


def cmd_mod_heuristic(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    _emit_modularity(cfg, modularity.heuristic_modularity(
        G, seed=cfg.seed, budget=cfg.restarts))
    return 0


def cmd_spectral(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    cap = cfg.cap if cfg.cap is not None else spectral.DENSE_CAP_DEFAULT
    res = spectral.spectral_gap(G, cap=cap, method=cfg.extra.get("method", "jacobi"))
    out = _Output(cfg)
    _header(out, cfg)
    out.row("n,m,lambda_min,lambda_1,lambda_max,gap")
    ev = res.eigenvalues
    lam1 = float(ev[1]) if G.n > 1 else float("nan")
    out.row(f"{G.n},{G.m},{float(ev[0])!r},{lam1!r},{float(ev[-1])!r},{res.gap!r}")
    out.flush()
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    _, d = cfg.resolve_density()
    rep = bounds.bound_report(cfg.n, d, cfg.C)
    out = _Output(cfg)
    _header(out, cfg)
    if cfg.fmt == "table":
        out.row(rep.table())
    else:
        out.row(bounds.BoundReport.CSV_COLUMNS)
        out.row(rep.csv_row())
    out.flush()
    return 0


def cmd_chernoff(cfg: RunConfig) -> int:
    mu = cfg.extra.get("mu")
    t = cfg.extra.get("t")
    if mu is None or t is None:
        raise ValidationError("chernoff needs --mu and --t")
    bp, bq = concentration.chernoff_upper(mu, t)
    lo = concentration.chernoff_lower(mu, t)
    out = _Output(cfg)
    _header(out, cfg)
    out.row("mu,t,upper_phi,upper_quad,lower")
    out.row(f"{mu!r},{t!r},{bp!r},{bq!r},{lo!r}")
    out.flush()
    return 0


def cmd_verify_appendix(cfg: RunConfig) -> int:
    grid = concentration.GridSpec(
        step=cfg.extra.get("step", 0.01),
        y_max=cfg.extra.get("y_max", 20.0),
        g_x_max=cfg.extra.get("x_max", 20.0),
    )
    rep = concentration.verify_appendix(grid)
    out = _Output(cfg)
    _header(out, cfg)
    out.row("min_f,argmin_f,min_g,argmin_g,monotonicity_violations,passed")
    out.row(f"{rep.min_f!r},{rep.argmin_f},{rep.min_g!r},{rep.argmin_g},"
            f"{rep.monotonicity_violations},{int(rep.passed)}")
    out.flush()
    return 0 if rep.passed else 1


def cmd_events(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    _, d = cfg.resolve_density() if not cfg.graph_file else (None, cfg.d)
    if d is None:
        raise ValidationError("events needs --d (the density parameter)")
    mode = cfg.extra.get("mode", "sampled")
    if mode == "exhaustive":
        res = concentration.check_lemma32_events_exhaustive(G, cfg.C, d)
    elif mode == "sampled":
        res = concentration.check_lemma32_events_sampled(
            G, cfg.C, d, trials=cfg.trials, seed=cfg.seed,
            strategy=cfg.extra.get("strategy", "stratified"))
    else:
        raise ValidationError(f"--mode must be exhaustive or sampled, got {mode!r}")
    out = _Output(cfg)
    _header(out, cfg)
    for row in res.csv_rows():
        out.row(row)
    out.meta(f"total_violations {res.total_violations}")
    out.flush()
    return 0


def cmd_bisect(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    if cfg.extra.get("exact"):
        cap = cfg.cap if cfg.cap is not None else bisection.EXACT_BISECTION_CAP
        bis = bisection.exact_min_bisection(G, cap=cap)
        method = "exact"
    else:
        bis = bisection.local_search_bisection(G, seed=cfg.seed, restarts=cfg.restarts)
        method = "local_search"
    out = _Output(cfg)
    _header(out, cfg)
    out.row("n,m,cut,method")
    out.row(f"{G.n},{G.m},{bis.cut},{method}")
    for block in bis.partition().canonical_blocks():
        out.row(" ".join(str(v) for v in block))
    out.flush()
    return 0


def cmd_certificate(cfg: RunConfig) -> int:
    G = _load_graph(cfg)
    res = bisection.bisection_modularity_certificate(
        G, seed=cfg.seed, restarts=cfg.restarts)
    out = _Output(cfg)
    _header(out, cfg)
    out.row("score,method")
    out.row(f"{res.score!r},{res.method}")
    out.flush()
    return 0


def _sweep_trial(args: tuple) -> tuple:
    n, d, tseed, restarts = args
    G = sample_gnp(n, d / n, tseed)
    h = modularity.heuristic_modularity(G, seed=tseed, budget=1).score
    c = bisection.bisection_modularity_certificate(
        G, seed=tseed, restarts=restarts).score
    rep = bounds.bound_report(n, d)
    return (n, d, tseed, h, c, rep.upper_main, rep.lower_Pstar, rep.spectral_upper)


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 2:
        raise ValidationError("--n must be >= 2")
    ds = cfg.extra.get("d_list")
    if not ds:
        raise ValidationError("sweep needs --d with one or more comma-separated values")
    for d in ds:
        if not 0.0 < d < cfg.n:
            raise ValidationError(f"sweep d={d} must lie in (0, n)")
    if cfg.trials < 1:
        raise ValidationError("--trials must be >= 1")
    if cfg.jobs < 1:
        raise ValidationError("--jobs must be >= 1")
    jobs = min(cfg.jobs, os.cpu_count() or 1)
    tasks = []
    for di, d in enumerate(ds):
        for t in range(cfg.trials):
            tseed = cfg.seed if cfg.exact_seed else trial_seed(cfg.seed, di * cfg.trials + t)
            tasks.append((cfg.n, d, tseed, cfg.restarts))
    t0 = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_trial, tasks))
    else:
        rows = [_sweep_trial(t) for t in tasks]
    wall = time.perf_counter() - t0
    out = _Output(cfg)
    _header(out, cfg)
    out.row(SWEEP_COLUMNS)
    for r in rows:
        out.row(f"{r[0]},{r[1]!r},{r[2]},{r[3]!r},{r[4]!r},{r[5]!r},{r[6]!r},{r[7]!r}")
    for d in ds:
        hs = [r[3] for r in rows if r[1] == d]
        mean = sum(hs) / len(hs)
        se = (sum((x - mean) ** 2 for x in hs) / max(1, len(hs) - 1)) ** 0.5 / len(hs) ** 0.5
        out.meta(f"aggregate d={d!r} mean_heuristic={mean!r} se={se!r}")
    if cfg.timestamp:
        out.meta(f"wall_clock_s {wall:.3f}")
    out.flush()
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gnpmod",
        description="Modularity of G(n,p): sampling, scoring, bounds, and checks")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, graph=False):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--n", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--d", type=str, help="density d = n*p (sweep: comma list)")
        sp.add_argument("--C", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--restarts", type=int, default=None)
        sp.add_argument("--cap", type=int, default=None)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "table"), default=None)
        sp.add_argument("--timestamp", action="store_true")
        sp.add_argument("--jobs", type=int, default=None)
        sp.add_argument("--exact-seed", action="store_true",
                        help="use --seed directly as the per-trial seed (row replay)")
        if graph:
            sp.add_argument("--graph", help="edge-list file instead of sampling")

    for name, graph in [("sample", False), ("mod-exact", True),
                        ("mod-heuristic", True), ("spectral", True),
                        ("bounds", False), ("events", True),
                        ("bisect", True), ("certificate", True), ("sweep", False)]:
        common(sub.add_parser(name), graph=graph)
    sp = sub.add_parser("score")
    common(sp, graph=True)
    sp.add_argument("--partition", required=True)
    sp = sub.add_parser("chernoff")
    common(sp)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp = sub.add_parser("verify-appendix")
    common(sp)
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--y-max", type=float, default=20.0)
    sp.add_argument("--x-max", type=float, default=20.0)
    sub.choices["spectral"].add_argument("--method", choices=("jacobi", "lapack"),
                                         default="jacobi")
    sub.choices["events"].add_argument("--mode", choices=("exhaustive", "sampled"),
                                       default="sampled")
    sub.choices["events"].add_argument("--strategy",
                                       choices=("uniform", "stratified"),
                                       default="stratified")
    sub.choices["bisect"].add_argument("--exact", action="store_true")
    return ap


_DEFAULTS = {"C": 1.999, "seed": 0, "trials": 1, "restarts": 10,
             "format": "csv", "jobs": 1}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw = vars(args).copy()
    file_cfg = {}
    if raw.get("config"):
        with _open_input(raw["config"]) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file is not JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
    merged = dict(file_cfg)
    for k, v in raw.items():
        if v is not None and v is not False:
            merged[k] = v
    for k, v in _DEFAULTS.items():
        merged.setdefault(k, v)
    d_val = merged.get("d")
    d_list = None
    if isinstance(d_val, str):
        try:
            d_list = [float(x) for x in d_val.split(",") if x]
        except ValueError as exc:
            raise ValidationError(f"--d {d_val!r} is not a comma list of reals") from exc
        d_val = d_list[0] if len(d_list) == 1 else None
    elif d_val is not None:
        d_list = [float(d_val)]
    extra = {k: merged.get(k) for k in
             ("mu", "t", "step", "y_max", "x_max", "mode", "strategy",
              "exact", "method") if merged.get(k) is not None}
    extra["d_list"] = d_list
    return RunConfig(
        subcommand=merged["subcommand"],
        n=merged.get("n"),
        p=merged.get("p"),
        d=d_val,
        C=float(merged["C"]),
        seed=int(merged["seed"]),
        trials=int(merged["trials"]),
        restarts=int(merged["restarts"]),
        cap=merged.get("cap"),
        out=merged.get("out"),
        fmt=merged["format"],
        timestamp=bool(merged.get("timestamp")),
        jobs=int(merged["jobs"]),
        exact_seed=bool(merged.get("exact_seed")),
        graph_file=merged.get("graph"),
        partition_file=merged.get("partition"),
        extra=extra,
    )


_COMMANDS = {
    "sample": cmd_sample,
    "score": cmd_score,
    "mod-exact": cmd_mod_exact,
    "mod-heuristic": cmd_mod_heuristic,
    "spectral": cmd_spectral,
    "bounds": cmd_bounds,
    "chernoff": cmd_chernoff,
    "verify-appendix": cmd_verify_appendix,
    "events": cmd_events,
    "bisect": cmd_bisect,
    "certificate": cmd_certificate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure channel
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
