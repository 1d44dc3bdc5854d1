"""Command-line harness.

Each subcommand declares, once, the options it reads, with their types,
choices and defaults.  A JSON config file (--config) holds values for
those same options, keyed by dest name, and argparse checks them against
the same declarations; flags override it.  Every value is validated before
any work is done.  A subcommand computes all of its rows first and then
writes them in one go: `_emit` writes the `#` header followed by CSV or
table rows, and `sample` writes its bare edge list.  Both go through
`_output`, the one place that opens --out, so a command that fails
writes nothing.  Identical configs produce byte-identical output;
timestamps are emitted only when --timestamp is given.  Exit codes: 0
success, 2 validation error (an unwritable --out included), 3 size-cap
refusal, 1 internal error or a failed `verify-appendix` certificate (its
row, with passed 0, is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import __version__, bisection, bounds, concentration, modularity, spectral
from .errors import CapExceeded, ValidationError, require_ints, require_reals
from .graph import Graph, read_edge_list, sample_gnp, write_edge_list
from .rng import trial_seed

SWEEP_COLUMNS = "n,d,seed,heuristic_mod,certificate,upper_main,lower_Pstar,spectral_upper"


def resolve_density(args: argparse.Namespace) -> tuple[float, float]:
    """(p, d) with the missing one derived via d = n p."""
    if (args.p is None) == (args.d is None):
        raise ValidationError("exactly one of --p and --d must be given")
    if args.n is None or args.n < 1:
        raise ValidationError("--n must be a positive integer")
    if args.p is not None:
        if not 0.0 <= args.p <= 1.0:
            raise ValidationError(f"--p {args.p} must lie in [0,1]")
        return args.p, args.p * args.n
    if not 0.0 <= args.d <= args.n:
        raise ValidationError(f"--d {args.d} must lie in [0, n]")
    return args.d / args.n, args.d


def _open_input(path: str):
    """Open an input file; failing to is a validation error (exit 2)."""
    try:
        return open(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        with _open_input(args.graph) as fh:
            return read_edge_list(fh)
    p, _ = resolve_density(args)
    return sample_gnp(args.n, p, args.seed)


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    """Stdout, or the --out file; failing to write it is a validation
    error (exit 2), as for an input file."""
    if not args.out:
        yield sys.stdout  # read now: callers may have redirected it
        return
    try:
        with open(args.out, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from exc


def _emit(args: argparse.Namespace, rows: list[str]) -> None:
    """Write the `#` header (version, config echo, optional timestamp)
    and then the rows, all computed before anything is written."""
    # The echo is itself a valid --config file for the same subcommand.
    echo = {k: v for k, v in vars(args).items()
            if v is not None and k not in ("config", "out", "timestamp")}
    lines = [f"# gnpmod {__version__}", f"# config {json.dumps(echo, sort_keys=True)}"]
    if args.timestamp:
        lines.append(f"# timestamp {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    with _output(args) as fh:
        fh.write("\n".join(lines + rows) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_sample(args: argparse.Namespace) -> int:
    p, _ = resolve_density(args)
    G = sample_gnp(args.n, p, args.seed)
    with _output(args) as fh:
        write_edge_list(G, fh)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if not args.graph or not args.partition:
        raise ValidationError("score needs --graph and --partition files")
    G = _load_graph(args)
    with _open_input(args.partition) as fh:
        P = modularity.read_partition(fh, G.n)
    _emit(args, ["score_definition,score_edge_form",
                 f"{modularity.score_definition(G, P)!r},{modularity.score_edge_form(G, P)!r}"])
    return 0


def _emit_modularity(args: argparse.Namespace, result: modularity.ModularityResult) -> None:
    blocks = modularity.block_lines(result.partition)
    if args.format == "table":
        _emit(args, [f"score = {result.score!r}  method = {result.method}", *blocks])
    else:
        _emit(args, ["score,method,partition",
                     f"{result.score!r},{result.method},{';'.join(blocks)}"])


def cmd_mod_exact(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    _emit_modularity(args, modularity.exact_modularity(G))
    return 0


def cmd_mod_heuristic(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    _emit_modularity(args, modularity.heuristic_modularity(
        G, seed=args.seed, budget=args.restarts))
    return 0


def cmd_spectral(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    res = spectral.spectral_gap(G)
    ev = res.eigenvalues
    lam1 = float(ev[1]) if G.n > 1 else float("nan")
    _emit(args, ["n,m,lambda_min,lambda_1,lambda_max,gap",
                 f"{G.n},{G.m},{float(ev[0])!r},{lam1!r},{float(ev[-1])!r},{res.gap!r}"])
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    _, d = resolve_density(args)
    rep = bounds.bound_report(args.n, d, args.C)
    if args.format == "table":
        _emit(args, [rep.table()])
    else:
        _emit(args, [bounds.BoundReport.CSV_COLUMNS, rep.csv_row()])
    return 0


def cmd_chernoff(args: argparse.Namespace) -> int:
    mu, t = args.mu, args.t
    if mu is None or t is None:
        raise ValidationError("chernoff needs --mu and --t")
    bp, bq = concentration.chernoff_upper(mu, t)
    lo = concentration.chernoff_lower(mu, t)
    _emit(args, ["mu,t,upper_phi,upper_quad,lower", f"{mu!r},{t!r},{bp!r},{bq!r},{lo!r}"])
    return 0


def cmd_verify_appendix(args: argparse.Namespace) -> int:
    rep = concentration.verify_appendix()
    _emit(args, [concentration.AppendixReport.CSV_COLUMNS, rep.csv_row()])
    return 0 if rep.passed else 1


def cmd_events(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    _, d = resolve_density(args) if not args.graph else (None, args.d)
    if d is None:
        raise ValidationError("events needs --d (the density parameter)")
    if args.mode == "exhaustive":
        res = concentration.check_lemma32_events_exhaustive(G, args.C, d)
    else:
        res = concentration.check_lemma32_events_sampled(
            G, args.C, d, trials=args.trials, seed=args.seed, strategy=args.strategy)
    _emit(args, [*res.csv_rows(), f"# total_violations {res.total_violations}"])
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    if args.exact:
        bis = bisection.exact_min_bisection(G)
        method = "exact"
    else:
        bis = bisection.local_search_bisection(G, seed=args.seed, restarts=args.restarts)
        method = "local_search"
    _emit(args, ["n,m,cut,method", f"{G.n},{G.m},{bis.cut},{method}",
                 *modularity.block_lines(bis.partition())])
    return 0


def cmd_certificate(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    res = bisection.bisection_modularity_certificate(
        G, seed=args.seed, restarts=args.restarts)
    _emit(args, ["score,method", f"{res.score!r},{res.method}"])
    return 0


def _sweep_trial(args: tuple) -> tuple:
    n, d, tseed, restarts = args
    G = sample_gnp(n, d / n, tseed)
    h = modularity.heuristic_modularity(G, seed=tseed, budget=1).score
    c = bisection.bisection_modularity_certificate(G, seed=tseed, restarts=restarts).score
    rep = bounds.bound_report(n, d)
    return (n, d, tseed, h, c, rep.upper_main, rep.lower_Pstar, rep.spectral_upper)


def _mean_se(xs: list[float]) -> tuple[float, float]:
    """The mean of `xs` and its standard error (0.0 for one value)."""
    k = len(xs)
    mean = sum(xs) / k
    return mean, (sum((x - mean) ** 2 for x in xs) / max(1, k - 1)) ** 0.5 / k ** 0.5


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None or args.n < 2:
        raise ValidationError("--n must be >= 2")
    ds = args.d
    if not ds:
        raise ValidationError("sweep needs --d with one or more comma-separated values")
    for i, d in enumerate(ds):
        if not 0.0 < d < args.n:
            raise ValidationError(f"sweep d={d} must lie in (0, n)")
        if d in ds[:i]:
            raise ValidationError(f"sweep --d lists d={d} twice")
    jobs = min(args.jobs, os.cpu_count() or 1)
    tasks = []
    for di, d in enumerate(ds):
        for t in range(args.trials):
            tseed = args.seed if args.exact_seed else trial_seed(args.seed, di * args.trials + t)
            tasks.append((args.n, d, tseed, args.restarts))
    t0 = time.perf_counter()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_trial, tasks))
    else:
        rows = [_sweep_trial(t) for t in tasks]
    wall = time.perf_counter() - t0
    lines = [SWEEP_COLUMNS]
    lines += [",".join(map(repr, row)) for row in rows]
    for d in ds:
        h_mean, h_se = _mean_se([r[3] for r in rows if r[1] == d])
        c_mean, c_se = _mean_se([r[4] for r in rows if r[1] == d])
        lines.append(f"# aggregate d={d!r} mean_heuristic={h_mean!r} se={h_se!r} "
                     f"mean_certificate={c_mean!r} se_certificate={c_se!r}")
    if args.timestamp:
        lines.append(f"# wall_clock_s {wall:.3f}")
    _emit(args, lines)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _real(text: str) -> float:
    """A finite real, the type of every real-valued option."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a real number") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite real number")
    return x


def _reals(text: str) -> list[float]:
    """A comma-separated list of finite reals, the type of `sweep --d`."""
    return [_real(x) for x in text.split(",") if x]


# Every option by flag name, with its argparse keywords.  Its dest (the
# name with '-' read as '_') is also its key in a config file.
_OPTIONS = {
    "config": {"help": "JSON file of option values, keyed by option name with '-' "
                       "as '_'; flags override it"},
    "n": {"type": int, "help": "number of vertices"},
    "p": {"type": _real, "help": "edge probability"},
    "d": {"type": _real, "help": "density d = n*p"},
    "C": {"type": _real, "default": bounds.C_MIN_MAIN,
          "help": "constant C of the bounds and of Lemma 3.2"},
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 1},
    "restarts": {"type": int, "default": 10},
    "format": {"choices": ("csv", "table"), "default": "csv"},
    "jobs": {"type": int, "default": 1, "help": "worker processes, at most the CPU count"},
    "exact-seed": {"action": "store_true",
                   "help": "use --seed directly as the per-trial seed (row replay)"},
    "graph": {"help": "edge-list file instead of sampling"},
    "partition": {"help": "partition file, one block per line"},
    "exact": {"action": "store_true", "help": "exact minimum bisection"},
    "mode": {"choices": ("exhaustive", "sampled"), "default": "sampled"},
    "strategy": {"choices": ("uniform", "stratified"), "default": "stratified"},
    "mu": {"type": _real},
    "t": {"type": _real},
    "out": {"help": "write the output to this file instead of stdout"},
    "timestamp": {"action": "store_true"},
}

_SOURCE = "n p d seed graph"  # a graph read from --graph or sampled from G(n,p)

# Subcommand -> (implementation, the options it reads besides --config,
# per-subcommand changes to their declarations).
_COMMANDS = {
    "sample": (cmd_sample, "n p d seed out", {}),
    "score": (cmd_score, "graph partition out timestamp", {}),
    "mod-exact": (cmd_mod_exact, f"{_SOURCE} format out timestamp", {}),
    "mod-heuristic": (cmd_mod_heuristic, f"{_SOURCE} restarts format out timestamp",
                      {"restarts": {"help": "annealing runs"}}),
    "spectral": (cmd_spectral, f"{_SOURCE} out timestamp", {}),
    "bounds": (cmd_bounds, "n p d C format out timestamp", {}),
    "chernoff": (cmd_chernoff, "mu t out timestamp", {}),
    "verify-appendix": (cmd_verify_appendix, "out timestamp", {}),
    "events": (cmd_events, f"{_SOURCE} C trials mode strategy out timestamp", {}),
    "bisect": (cmd_bisect, f"{_SOURCE} exact restarts out timestamp", {}),
    "certificate": (cmd_certificate, f"{_SOURCE} restarts out timestamp", {}),
    "sweep": (cmd_sweep, "n d seed trials restarts jobs exact-seed out timestamp",
              {"d": {"type": _reals, "help": "comma-separated densities d = n*p"}}),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value through the validation channel (exit 2)
    instead of exiting the process."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gnpmod",
                 description="Modularity of G(n,p): sampling, scoring, bounds, and checks")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, options, changes) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for opt in ["config", *options.split()]:
            sp.add_argument(f"--{opt}", **{**_OPTIONS[opt], **changes.get(opt, {})})
    return ap


def _config_tokens(subcommand: str, path: str) -> list[str]:
    """The flags that a config file stands for, as `--flag=value` tokens."""
    with _open_input(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    _, options, changes = _COMMANDS[subcommand]
    declared = {opt.replace("-", "_"): opt for opt in options.split()}
    tokens = []
    for key, value in cfg.items():
        if key == "subcommand":  # as in the config echo
            if value != subcommand:
                raise ValidationError(f"config file is for {value!r}, not {subcommand}")
            continue
        if key not in declared:
            raise ValidationError(f"config key {key!r} is not an option of {subcommand}")
        opt = declared[key]
        if _OPTIONS[opt].get("action") == "store_true":
            if not isinstance(value, bool):
                raise ValidationError(f"config key {key!r} must be true or false")
            tokens += [f"--{opt}"] if value else []
            continue
        if isinstance(value, list) and changes.get(opt, {}).get("type") is _reals:
            value = ",".join(str(x) for x in value)
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValidationError(f"config key {key!r} cannot be {json.dumps(value)}")
        tokens.append(f"--{opt}={value}")
    return tokens


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse the flags; with --config, parse again with the file's values
    placed before the flags, so that the flags override them."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    tokens = _config_tokens(args.subcommand, args.config)
    try:  # argv[0] is the subcommand: the top-level parser takes no other option
        return parser.parse_args([argv[0], *tokens, *argv[1:]])
    except ValidationError as exc:  # the flags alone parsed, so the file is at fault
        raise ValidationError(f"{exc} (in config file {args.config})") from exc


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse, before any work, a count below 1 or a C that is not > 0,
    among the options the subcommand declares."""
    require_ints(1, **{f"--{k}": getattr(args, k)
                       for k in ("trials", "restarts", "jobs") if hasattr(args, k)})
    if hasattr(args, "C"):
        require_reals(**{"--C": args.C})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _check_counts(args)
        return _COMMANDS[args.subcommand][0](args)
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
