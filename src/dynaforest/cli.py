"""Command-line runner: configures adversaries, executes seed sweeps with
checkers attached, writes CSV/trace files and an SVG plot.

Commands:
    run           execute one simulation per seed, write metrics and traces
    check         replay every invariant checker over a stored trace file; it
                  reads one round at a time, and the header and every round
                  must be exactly in the form `run` writes them
    replay-figure run a built-in scripted scenario and print its state table

The trace format, its writer and its reader live in `tracefile`, whose
docstring is the format's one description.

Input files (`--config`, `--script-file`, `--trace-file`) are UTF-8; `#`
starts a comment, and blank lines are skipped (`model.read_lines`).  Bad
content on a line, a byte that is not UTF-8 included, is `config error:
<path>: line <n>: ...`, exit code 2, before any output is written.

`run --config FILE` reads settings from a file of `key=value` lines.  The
keys are the `run` long flags without their `--`, and each line is parsed as
that flag: `p-birth=0.3` as `--p-birth=0.3`, `seeds=0-99` as
`--seeds=0-99`.  A boolean flag's key takes 1/0, true/false, yes/no or
on/off: `lazy=true` is `--lazy`, `lazy=false` is `--no-lazy`, and
`no-checkers=true` is `--no-checkers`.  Flags on the command line win over
the file.  Exit codes: 0 success; 1 an input that cannot be read, an output
that cannot be written (files written before it stay), a seed that raised, a
dead worker, an edge-markov run without numpy, or a trace that `check` cannot
parse; 2 a bad flag or value, or bad content in a config, contact or script
file; 3 an invariant violation.
Only `main` reports a file that cannot be opened, read or written (`I/O error`).

`run` writes each seed's trace and metrics CSV as the seed runs, into a
staging directory on `--out`'s filesystem: inside `--out` if it exists, else
in its nearest existing ancestor.  An `--out` that is a file, or lies under
one, is an I/O error before any seed runs.  Once every seed has succeeded,
the files move into `--out`, seed by seed, the metrics CSV before the trace,
and `aggregate.csv` and the plot follow.  A violation, a seed that raised, a dead
worker or an I/O error removes the staging directory once the workers have
stopped, so a failed sweep leaves no output.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, engine, model, topology
from .protocol import LAZY_REST_PROBABILITY
# the trace format; `TRACE_MAGIC` and `trace_round_lines` are bound here for perfbench and tests
from .tracefile import TRACE_MAGIC, trace_header, trace_round_lines  # noqa: F401
from .tracefile import TraceFormatError, TraceWriter, format_edges, parse_edges, read_trace_file

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

ADVERSARIES = ("scripted", "edge-markov", "trace")


# an ArgumentTypeError too: argparse shows its message when a flag's type raises it
class ConfigError(argparse.ArgumentTypeError, ValueError):
    """Bad run configuration (reported as a usage error)."""


@dataclass
class RunConfig:
    """Everything one `run` invocation needs; picklable for worker processes."""

    adversary: str = "edge-markov"
    nodes: int = 20
    p_birth: float = 0.3
    p_death: float = 0.3
    trace_file: Optional[str] = None
    script_file: Optional[str] = None
    rounds_per_second: Fraction = Fraction(10)
    rounds: int = 100
    seeds: tuple = (0,)
    lazy: bool = False
    checkers: bool = True
    rest_probability: float = LAZY_REST_PROBABILITY
    out: str = "out"

    def validate(self) -> None:
        if self.adversary not in ADVERSARIES:
            raise ConfigError(
                f"unknown adversary {self.adversary!r}; pick one of {', '.join(ADVERSARIES)}"
            )
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        # a repeated seed would be simulated, and averaged, twice
        repeated = [seed for seed, count in Counter(self.seeds).items() if count > 1]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} given twice")
        if self.adversary == "trace" and not self.trace_file:
            raise ConfigError("the trace adversary needs --trace-file")
        if self.adversary == "scripted" and not self.script_file:
            raise ConfigError("the scripted adversary needs --script-file")
        if self.adversary != "trace" and self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes}")
        for flag, p in (
            ("p-birth", self.p_birth),
            ("p-death", self.p_death),
            ("rest-probability", self.rest_probability),
        ):
            if not 0.0 <= p <= 1.0:  # also false for nan
                raise ConfigError(f"{flag} must be in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# run options: flags and the config file


def parse_seeds(text: str) -> tuple:
    """Comma-separated seeds; 'A-B' spans an inclusive range."""
    seeds = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token:
            lo, _, hi = token.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad seed range {token!r}") from None
            if hi_i < lo_i:
                raise ConfigError(f"empty seed range {token!r}")
            seeds.extend(range(lo_i, hi_i + 1))
        else:
            try:
                seeds.append(int(token))
            except ValueError:
                raise ConfigError(f"bad seed {token!r}") from None
    return tuple(seeds)


def fraction(text: str) -> Fraction:
    """A rational such as '10', '2.5' or '5/2'."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {text!r}") from None


def add_run_options(parser: argparse.ArgumentParser) -> dict:
    """Declare every `run` setting on `parser`; return its actions by long flag.

    The one declaration of each setting's name, type and help, for the
    command line and the config file alike.  Defaults live on `RunConfig`:
    an option not given parses to None, and each help text ends with the
    default of the `RunConfig` field of the same name.
    """
    add = parser.add_argument
    boolean = argparse.BooleanOptionalAction
    actions = [
        add("--adversary", choices=ADVERSARIES, help="what draws each round's edge set"),
        add("--nodes", type=int, help="vertex count of an edge-markov or scripted run"),
        add("--p-birth", type=float, help="edge-markov: chance an absent edge appears"),
        add("--p-death", type=float, help="edge-markov: chance a present edge vanishes"),
        add("--trace-file", help="contact file of the trace adversary"),
        add("--script-file", help="one line of edges per round, for the scripted adversary"),
        add("--rounds-per-second", type=fraction, help="round rate of the trace adversary"),
        add("--rounds", type=int, help="rounds per seed; the trace adversary sets its own"),
        add("--seeds", type=parse_seeds, help="e.g. '0-99' or '1,5,7'"),
        add("--lazy", action=boolean,
            help="roots rest at random (the lazy protocol; convergence to one tree "
                 "per component on a static graph is shown for this variant only)"),
        add("--checkers", action=boolean, help="check every invariant every round"),
        add("--rest-probability", type=float, help="chance a lazy root rests in a round"),
        add("--out", help="output directory"),
    ]
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for action in actions:
        action.help += f" (default: {_shown(defaults[action.dest])})"
    return {flag: action for action in actions for flag in action.option_strings}


def _shown(value) -> str:
    """A `RunConfig` default as a user would write it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):  # seeds
        return ",".join(map(str, value))
    return str(value)


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_config_file(path) -> argparse.Namespace:
    """The settings a config file gives, each line parsed as its `run` flag."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    options = add_run_options(parser)
    values = argparse.Namespace()

    def parse(text: str) -> None:
        if "=" not in text:
            raise ValueError(f"expected key=value, got {text!r}")
        key, _, value = (part.strip() for part in text.partition("="))
        flag = "--" + key
        action = options.get(flag)
        if action is None:
            raise ValueError(f"unknown key {key!r}")
        bad = ValueError(f"bad value {value!r} for config key {key!r}")
        if isinstance(action, argparse.BooleanOptionalAction):
            on = _BOOLEANS.get(value.lower())
            if on is None:
                raise bad
            # the flag itself, or the other spelling of the same setting
            token = flag if on else next(f for f in action.option_strings if f != flag)
        else:
            token = f"{flag}={value}"
        try:
            parser.parse_args([token], values)
        except argparse.ArgumentError:
            raise bad from None

    try:
        model.read_lines(path, parse)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The parsed `run` flags over the `--config` file's values over the defaults."""
    values = vars(parse_config_file(args.config)) if args.config else {}
    values.update((key, value) for key, value in vars(args).items() if value is not None)
    return RunConfig(
        **{f.name: values[f.name] for f in fields(RunConfig) if values.get(f.name) is not None}
    )


# ---------------------------------------------------------------------------
# adversary construction

def read_script_file(path) -> list:
    """One line per round: 'u-v u-v ...'; a single '-' means no edges."""
    return model.read_lines(path, parse_edges)


def build_graph(config: RunConfig, seed: int) -> model.EvolvingGraph:
    """The adversary's evolving graph for `seed`.

    A contact or script file whose content cannot be read as one, or a
    contact trace that covers no round, is a ConfigError; a file that cannot
    be opened raises OSError.  `cmd_run` builds one graph before any worker
    starts, so a bad file is reported once instead of raised in every worker.
    """
    if config.adversary == "edge-markov":
        return topology.edge_markov(
            topology.EdgeMarkovParams(
                n=config.nodes,
                p_birth=config.p_birth,
                p_death=config.p_death,
                seed=seed,
            )
        )
    try:
        if config.adversary == "trace":
            records = topology.read_contact_file(config.trace_file)
            graph = topology.parse_contact_trace(records, config.rounds_per_second)
            if not graph.rounds:
                raise ValueError("contact trace defines no rounds (no usable contacts)")
            return graph
        schedule = read_script_file(config.script_file)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    vertices = {v for es in schedule for e in es for v in e}
    vertices |= set(range(1, config.nodes + 1))
    return topology.scripted(vertices, schedule)


# ---------------------------------------------------------------------------
# plotting (single-file SVG, no external assets)

def render_mean_ratio_svg(mean_per_round: Sequence[float]) -> str:
    width, height, margin = 640, 360, 48
    n = len(mean_per_round)
    y_max = max(2.0, max(mean_per_round))
    y_min = 1.0

    def x(i: int) -> float:
        return margin + (width - 2 * margin) * (i / max(1, n - 1))

    def y(v: float) -> float:
        span = y_max - y_min or 1.0
        return height - margin - (height - 2 * margin) * ((v - y_min) / span)

    points = " ".join(f"{x(i):.2f},{y(v):.2f}" for i, v in enumerate(mean_per_round))
    ticks = []
    for frac in (0.0, 0.5, 1.0):
        v = y_min + frac * (y_max - y_min)
        ticks.append(
            f'<text x="{margin - 8}" y="{y(v):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-size="12">{v:.2f}</text>'
        )
        ticks.append(
            f'<line x1="{margin}" y1="{y(v):.2f}" x2="{width - margin}" y2="{y(v):.2f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            *ticks,
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
            f'stroke="black" stroke-width="1"/>',
            f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
            f'font-size="13">round (1..{n})</text>',
            f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 14 {height / 2:.0f})">mean trees per component</text>',
            f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
            "</svg>",
        ]
    )


# ---------------------------------------------------------------------------
# the run command

@dataclass
class SeedResult:
    """What a seed hands back: its metrics summary, or the violations that
    ended it.  Its files are on disk, in the directory `run_one_seed` was
    given, so no trace crosses from a worker to the parent."""

    seed: int
    summary: Optional[analysis.MetricsSummary]
    violations: list  # [analysis.Violation] -- nonempty aborts the sweep


def run_one_seed(config: RunConfig, seed: int) -> SeedResult:
    """Simulate one seed, writing `trace_seed<seed>.txt` and then
    `metrics_seed<seed>.csv` into `config.out`, a directory that exists.

    The trace is written as the seed runs: the header, then each round, so the
    seed holds one round of it at a time.  The rounds are formatted by one
    `TraceWriter`, so a node's tuple or the edge line is formatted again only
    in a round where it changed.  With checkers on, every round is checked
    before it is written, and the first round with a violation ends the seed
    with that round's violations: its trace then holds the rounds before, and
    no metrics file is written.  `cmd_run` points `config.out` at a staging
    directory, so a seed's files reach `--out` only once every seed succeeded.
    """
    graph = build_graph(config, seed)
    metrics = analysis.MetricsAccumulator()
    writer = TraceWriter()
    out = Path(config.out)
    with (out / f"trace_seed{seed}.txt").open("w") as fh:
        header = trace_header(graph.vertices, seed, config.lazy, graph.params)
        fh.writelines(line + "\n" for line in header)
        for i, edges, cfg in engine.iter_run(
            graph, graph.rounds or config.rounds, seed, config.lazy, config.rest_probability
        ):
            if config.checkers:
                bad = analysis.run_all_checks(cfg, edges)
                if bad:
                    return SeedResult(seed=seed, summary=None, violations=bad)
            metrics(i, edges, cfg)
            edge_line, node_line = writer.round_lines(edges, cfg)
            fh.write(f"{edge_line}\n{node_line}\n")
    summary = metrics.summary()
    _write_lines(out / f"metrics_seed{seed}.csv", analysis.round_csv_lines(summary))
    return SeedResult(seed=seed, summary=summary, violations=[])


def _worker_count(n_seeds: int) -> int:
    cap = os.environ.get("DYNAFOREST_WORKERS")
    limit = os.cpu_count() or 1
    if cap:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"DYNAFOREST_WORKERS={cap!r} is not an integer") from None
    return max(1, min(n_seeds, limit))


def _write_lines(path: Path, lines) -> None:
    """Each line and a newline into `path`, one line at a time."""
    with path.open("w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _staging_dir(out_dir: Path) -> Path:
    """A new, empty directory for the seeds' files, on `out_dir`'s filesystem
    so that moving a file into `out_dir` is a rename: inside `out_dir` if it
    is a directory already, else in its nearest ancestor that is one.  An
    `out_dir` that is a file, or lies under one, raises OSError here, before
    any seed runs."""
    where = out_dir.absolute()
    while not where.is_dir():
        if os.path.lexists(where):
            # `out_dir` is a file or lies under one, so it cannot be made:
            # raise the error that making it gives now, before the sweep
            os.mkdir(out_dir)
        where = where.parent
    try:
        return Path(tempfile.mkdtemp(prefix=".dynaforest-run-", dir=where))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out_dir)) from None


def _move(source: Path, target: Path) -> None:
    """Rename `source` to `target`; an OSError names `target` alone."""
    try:
        os.replace(source, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from None


def cmd_run(config: RunConfig) -> int:
    config.validate()
    if config.adversary == "edge-markov":
        # numpy loads once, here, so forked workers inherit it instead of each
        # importing it again
        try:
            from . import markov  # noqa: F401
        except ImportError as exc:
            print(f"the edge-markov adversary cannot load: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_FAILURE
    else:
        build_graph(config, config.seeds[0])  # a bad input file fails here, before fan-out
    workers = _worker_count(len(config.seeds))
    out_dir = Path(config.out)
    staging = _staging_dir(out_dir)
    try:
        return _run_seeds(config, workers, out_dir, staging)
    finally:
        # after the pool has shut down, so no worker still writes here
        shutil.rmtree(staging, ignore_errors=True)


def _run_seeds(config: RunConfig, workers: int, out_dir: Path, staging: Path) -> int:
    """`cmd_run` from the fan-out on: the seeds write into `staging`, and their
    files move into `out_dir` only once every seed has succeeded."""
    staged = replace(config, out=str(staging))
    results = []
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for result in (pool.map if pool else map)(
                run_one_seed, [staged] * len(config.seeds), config.seeds
            ):
                results.append(result)
    except BrokenProcessPool as exc:
        # the pool cannot tell whose worker died: name every seed still owed a result
        lost = ", ".join(map(str, config.seeds[len(results):]))
        print(f"a worker died; seeds without a result: {lost}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE
    except OSError:
        raise  # a file a seed could not read or write: `main` reports it
    except Exception as exc:  # raised in a seed
        # results arrive in seed order: the first seed without one failed
        seed = config.seeds[len(results)]
        print(f"seed {seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    for result in results:
        if result.violations:
            print(
                f"invariant violation in seed {result.seed} "
                f"(replay with --seeds {result.seed}):",
                file=sys.stderr,
            )
            for v in result.violations:
                print(f"  {v}", file=sys.stderr)
            return EXIT_VIOLATION

    out_dir.mkdir(parents=True, exist_ok=True)
    results.sort(key=lambda r: r.seed)
    aggregate_rows = []
    for result in results:
        for name in (f"metrics_seed{result.seed}.csv", f"trace_seed{result.seed}.txt"):
            _move(staging / name, out_dir / name)
        aggregate_rows.append((result.seed, result.summary))
        print(
            f"seed {result.seed}: mean trees/component "
            f"{result.summary.mean_trees_per_component:.4f}, optimal "
            f"{result.summary.fraction_optimal_rounds:.2%} of rounds"
        )
    _write_lines(out_dir / "aggregate.csv", analysis.aggregate_csv_lines(aggregate_rows))

    # every seed of one run has the same number of rounds
    rounds = len(results[0].summary.per_round)
    mean_overall = analysis.mean([r.summary.mean_trees_per_component for r in results])
    print(f"{len(results)} seeds x {rounds} rounds: mean trees/component {mean_overall:.4f}")

    per_round = [
        analysis.mean([r.summary.per_round[i].ratio for r in results])
        for i in range(rounds)
    ]
    (out_dir / "trees_per_component.svg").write_text(render_mean_ratio_svg(per_round))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the check command

def cmd_check(path) -> int:
    """Check each round as it is read, but print violations only once all have parsed."""
    rounds, violations = 0, []
    try:
        for rounds, edges, config in read_trace_file(path):
            violations += analysis.run_all_checks(config, edges)
    except TraceFormatError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    for v in violations:
        print(str(v), file=sys.stderr)
    if violations:
        print(f"{len(violations)} violation(s) in {rounds} rounds", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"{rounds} rounds checked, no violations")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the replay-figure command

FIG2_SEED = 1

_FIG2_BASE = [(1, 4), (4, 8), (2, 8), (2, 3), (3, 4), (1, 3), (2, 4), (5, 6), (6, 7), (5, 7)]
_FIG2_GROWN = _FIG2_BASE + [(5, 8), (2, 5)]
_FIG2_SEVERED = [e for e in _FIG2_GROWN if e not in ((2, 4), (4, 8))]

FIG2_SCHEDULE = [
    _FIG2_BASE,      # round 1: eight singleton roots greet each other
    _FIG2_GROWN,     # round 2: selection chains merge everything into two trees
    _FIG2_GROWN,     # round 3: tokens circulate, scores swap
    _FIG2_SEVERED,   # round 4: two edges vanish, one of them a tree edge
    _FIG2_SEVERED,   # rounds 5-6: circulation continues on the frozen topology
    _FIG2_SEVERED,
]


def fig2_graph() -> model.EvolvingGraph:
    return topology.scripted(range(1, 9), FIG2_SCHEDULE)


def cmd_replay_figure(name: str, seed: Optional[int] = None) -> int:
    if name != "fig2":
        print(f"unknown scenario {name!r}; available: fig2", file=sys.stderr)
        return EXIT_USAGE
    graph = fig2_graph()
    rounds = len(FIG2_SCHEDULE)
    use_seed = FIG2_SEED if seed is None else seed
    print(f"scenario {name}: {len(graph.vertices)} nodes, {rounds} rounds, seed {use_seed}")
    for i, edges, config in engine.iter_run(graph, rounds, use_seed):
        bad = analysis.run_all_checks(config, edges)
        print(f"round {i}  edges: {format_edges(edges)}")
        print("  node status parent score")
        for nid in sorted(config.states):
            st = config.states[nid]
            parent = "-" if st.parent is None else st.parent
            print(f"  {nid:>4} {st.status.value:>6} {parent:>6} {st.score:>5}")
        if bad:
            for v in bad:
                print(f"  VIOLATION {v}", file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynaforest",
        description="Spanning-forest maintenance simulator for dynamic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run simulations over a seed sweep")
    run_p.add_argument("--config", help="file of key=value run settings; flags override it")
    add_run_options(run_p)

    check_p = sub.add_parser("check", help="replay checkers over a stored trace")
    check_p.add_argument("trace_path")

    replay_p = sub.add_parser("replay-figure", help="run a built-in scenario")
    replay_p.add_argument("scenario")
    replay_p.add_argument("--seed", type=int)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(build_run_config(args))
        if args.command == "check":
            return cmd_check(args.trace_path)
        return cmd_replay_figure(args.scenario, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
