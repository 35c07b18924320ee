"""Command-line runner: configures adversaries, executes seed sweeps with
checkers attached, writes CSV/trace files and an SVG plot.

Commands:
    run           execute one simulation per seed, write metrics and traces
    check         replay every invariant checker over a stored trace file
    replay-figure run a built-in scripted scenario and print its state table

`run --config FILE` reads settings from a file of `key=value` lines; `#`
starts a comment.  The keys are the `run` long flags without their `--`,
and each line is parsed as that flag: `p-birth=0.3` as `--p-birth=0.3`,
`seeds=0-99` as `--seeds=0-99`.  A boolean flag's key takes 1/0, true/false,
yes/no or on/off: `lazy=true` is `--lazy`, `lazy=false` is `--no-lazy`, and
`no-checkers=true` is `--no-checkers`.  Flags on the command line win over
the file.  Exit codes: 0 success, 1 runtime or I/O failure, 2 usage/config
error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, engine, topology
from .model import Configuration, EdgeSet, EvolvingGraph, Status, make_edge_set
from .protocol import LAZY_REST_PROBABILITY, initial_state

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

TRACE_MAGIC = "dynaforest-trace 1"

# Bound once for the per-node trace loop.  On CPython 3.11 a lookup such as
# `Status.T` costs about 0.17 us, a module global about 0.02 us.
_T = Status.T

ADVERSARIES = ("scripted", "edge-markov", "trace")


# an ArgumentTypeError too: argparse shows its message when a flag's type raises it
class ConfigError(argparse.ArgumentTypeError, ValueError):
    """Bad run configuration (reported as a usage error)."""


class TraceFormatError(ValueError):
    """A stored trace file that cannot be parsed."""


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
        if self.adversary == "trace":
            if not self.trace_file:
                raise ConfigError("the trace adversary needs --trace-file")
            if not os.path.isfile(self.trace_file):
                raise ConfigError(f"trace file {self.trace_file!r} is not readable")
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
    an option not given parses to None.
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
        add("--lazy", action=boolean, help="roots rest at random (the lazy protocol)"),
        add("--checkers", action=boolean, help="check every invariant every round"),
        add("--rest-probability", type=float, help="chance a lazy root rests in a round"),
        add("--out", help="output directory"),
    ]
    return {flag: action for action in actions for flag in action.option_strings}


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_config_file(path) -> argparse.Namespace:
    """The settings a config file gives, each line parsed as its `run` flag."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    options = add_run_options(parser)
    values = argparse.Namespace()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = (part.strip() for part in text.partition("="))
            flag = "--" + key
            action = options.get(flag)
            if action is None:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            bad = ConfigError(f"{path}: line {lineno}: bad value {value!r} for config key {key!r}")
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
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The parsed `run` flags over the `--config` file's values over the defaults."""
    values = vars(parse_config_file(args.config)) if args.config else {}
    values.update((key, value) for key, value in vars(args).items() if value is not None)
    config = RunConfig(
        **{f.name: values[f.name] for f in fields(RunConfig) if values.get(f.name) is not None}
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# adversary construction

def read_script_file(path) -> list:
    """One line per round: 'u-v u-v ...'; a single '-' means no edges."""
    schedule = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if text == "-":
                schedule.append(frozenset())
                continue
            try:
                schedule.append(_parse_edges_token_line(text))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return schedule


def build_graph(config: RunConfig, seed: int) -> EvolvingGraph:
    if config.adversary == "edge-markov":
        return topology.edge_markov(
            topology.EdgeMarkovParams(
                n=config.nodes,
                p_birth=config.p_birth,
                p_death=config.p_death,
                seed=seed,
            )
        )
    if config.adversary == "trace":
        records = topology.read_contact_file(config.trace_file)
        return topology.parse_contact_trace(records, config.rounds_per_second)
    schedule = read_script_file(config.script_file)
    vertices = {v for es in schedule for e in es for v in e}
    vertices |= set(range(1, config.nodes + 1))
    return topology.scripted(vertices, schedule)


def resolve_rounds(config: RunConfig, graph: EvolvingGraph) -> int:
    if config.adversary == "trace":
        if not graph.rounds:
            raise ConfigError("contact trace defines no rounds (no usable contacts)")
        return graph.rounds
    return config.rounds


def check_adversary_input(config: RunConfig) -> None:
    """Read and parse the contact or script file once, before any worker starts.

    A malformed file is a ConfigError here instead of an exception raised in
    every worker.  The workers still build their own graphs.
    """
    if config.adversary == "edge-markov":
        return
    try:
        resolve_rounds(config, build_graph(config, config.seeds[0]))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# trace serialization

def _format_edges(edges: EdgeSet) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges)) or "-"


def _format_nodes(config: Configuration) -> str:
    parts = []
    states = config.states
    for nid in sorted(states):
        st = states[nid]
        # an identity test costs about 0.03 us; `.value` about 0.22 us, and a
        # dict keyed by the member about 0.16 us (Enum hashes in Python)
        status = "T" if st.status is _T else "N"
        parent = "-" if st.parent is None else st.parent
        children = ",".join(map(str, sorted(st.children))) if st.children else "-"
        parts.append(f"{nid}:{status}:{parent}:{st.score}:{children}")
    return " ".join(parts)


def trace_header(vertices, seed: int, lazy: bool, params: dict) -> list:
    rendered = " ".join(f"{k}={params[k]}" for k in sorted(params)) or "-"
    return [
        TRACE_MAGIC,
        "vertices " + " ".join(str(v) for v in sorted(vertices)),
        f"seed {seed}",
        f"lazy {int(lazy)}",
        f"params {rendered}",
    ]


def trace_round_lines(edges: EdgeSet, config: Configuration) -> list:
    return [_format_edges(edges), _format_nodes(config)]


def _parse_edges_token_line(text: str) -> EdgeSet:
    if text == "-":
        return frozenset()
    pairs = []
    for token in text.split():
        u, sep, v = token.partition("-")
        if not sep:
            raise ValueError(f"bad edge token {token!r}")
        pairs.append((int(u), int(v)))
    return make_edge_set(pairs)


def _parse_nodes_line(text: str, lineno: int, round_index: int) -> Configuration:
    """Rebuild a checkable configuration from one 'id:status:parent:score:children'
    line.  The out message, which the checkers never read, takes its initial
    value."""
    states = {}
    for token in text.split():
        fields = token.split(":")
        if len(fields) != 5:
            raise TraceFormatError(f"line {lineno}: bad node tuple {token!r}")
        try:
            nid = int(fields[0])
            status = Status(fields[1])
            parent = None if fields[2] == "-" else int(fields[2])
            score = int(fields[3])
            children = (
                frozenset()
                if fields[4] == "-"
                else frozenset(int(c) for c in fields[4].split(","))
            )
            states[nid] = replace(
                initial_state(nid),
                status=status,
                parent=parent,
                score=score,
                children=children,
            )
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad node tuple {token!r}: {exc}") from None
    try:
        return Configuration(round=round_index, states=dict(sorted(states.items())))
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None


@dataclass
class StoredTrace:
    vertices: frozenset
    seed: int
    lazy: bool
    params: str
    rounds: list = field(default_factory=list)  # (round, EdgeSet, Configuration)


def read_trace_file(path) -> StoredTrace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_MAGIC:
        raise TraceFormatError(f"{path}: not a {TRACE_MAGIC!r} file")
    try:
        vertices = frozenset(int(v) for v in lines[1].split()[1:])
        seed = int(lines[2].split()[1])
        lazy = bool(int(lines[3].split()[1]))
        params = lines[4].partition(" ")[2]
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"{path}: malformed header: {exc}") from None
    body = lines[5:]
    if len(body) % 2 != 0:
        raise TraceFormatError(f"{path}: odd number of body lines ({len(body)})")
    stored = StoredTrace(vertices=vertices, seed=seed, lazy=lazy, params=params)
    for k in range(0, len(body), 2):
        round_index = k // 2 + 1
        try:
            edges = _parse_edges_token_line(body[k])
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {k + 6}: {exc}") from None
        config = _parse_nodes_line(body[k + 1], k + 7, round_index)
        if config.vertices != vertices:
            raise TraceFormatError(
                f"{path}: line {k + 7}: round {round_index} nodes do not match the header"
            )
        stored.rounds.append((round_index, edges, config))
    return stored


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
    seed: int
    summary: Optional[analysis.MetricsSummary]
    trace_lines: list
    violations: list  # [(round, kind, detail)] -- nonempty aborts the sweep


def run_one_seed(config: RunConfig, seed: int) -> SeedResult:
    graph = build_graph(config, seed)
    rounds = resolve_rounds(config, graph)
    metrics = analysis.MetricsAccumulator()
    trace_lines = trace_header(graph.vertices, seed, config.lazy, graph.params)
    for i, edges, cfg in engine.iter_run(
        graph, rounds, seed, config.lazy, config.rest_probability
    ):
        if config.checkers:
            bad = analysis.run_all_checks(cfg, edges)
            if bad:
                return SeedResult(
                    seed=seed,
                    summary=None,
                    trace_lines=[],
                    violations=[(v.round, v.kind.value, v.detail) for v in bad],
                )
        metrics(i, edges, cfg)
        trace_lines.extend(trace_round_lines(edges, cfg))
    return SeedResult(
        seed=seed, summary=metrics.summary(), trace_lines=trace_lines, violations=[]
    )


def _worker_count(n_seeds: int) -> int:
    cap = os.environ.get("DYNAFOREST_WORKERS")
    limit = os.cpu_count() or 1
    if cap:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"DYNAFOREST_WORKERS={cap!r} is not an integer") from None
    return max(1, min(n_seeds, limit))


def cmd_run(config: RunConfig) -> int:
    config.validate()
    check_adversary_input(config)
    workers = _worker_count(len(config.seeds))
    results = []
    try:
        if workers == 1:
            for seed in config.seeds:
                results.append(run_one_seed(config, seed))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(run_one_seed, [config] * len(config.seeds), config.seeds):
                    results.append(result)
    except Exception as exc:  # in a seed, or a dead worker (BrokenProcessPool)
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
            for rnd, kind, detail in result.violations:
                print(f"  round {rnd}: {kind}: {detail}", file=sys.stderr)
            return EXIT_VIOLATION

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results.sort(key=lambda r: r.seed)
    aggregate_rows = []
    for result in results:
        csv_path = out_dir / f"metrics_seed{result.seed}.csv"
        csv_path.write_text("\n".join(analysis.round_csv_lines(result.summary)) + "\n")
        trace_path = out_dir / f"trace_seed{result.seed}.txt"
        trace_path.write_text("\n".join(result.trace_lines) + "\n")
        aggregate_rows.append((result.seed, result.summary))
        print(
            f"seed {result.seed}: mean trees/component "
            f"{result.summary.mean_trees_per_component:.4f}, optimal "
            f"{result.summary.fraction_optimal_rounds:.2%} of rounds"
        )
    (out_dir / "aggregate.csv").write_text(
        "\n".join(analysis.aggregate_csv_lines(aggregate_rows)) + "\n"
    )

    rounds = len(results[0].summary.per_round)
    mean_overall = sum(r.summary.mean_trees_per_component for r in results) / len(results)
    print(f"{len(results)} seeds x {rounds} rounds: mean trees/component {mean_overall:.4f}")

    try:
        shared = min(len(r.summary.per_round) for r in results)
        per_round = [
            sum(r.summary.per_round[i].ratio for r in results) / len(results)
            for i in range(shared)
        ]
        (out_dir / "trees_per_component.svg").write_text(render_mean_ratio_svg(per_round))
    except Exception as exc:  # plot failures never affect the simulation outcome
        print(f"plot generation failed: {exc}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the check command

def cmd_check(path) -> int:
    try:
        stored = read_trace_file(path)
    except TraceFormatError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    total = 0
    for round_index, edges, config in stored.rounds:
        for v in analysis.run_all_checks(config, edges):
            print(str(v), file=sys.stderr)
            total += 1
    if total:
        print(f"{total} violation(s) in {len(stored.rounds)} rounds", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"{len(stored.rounds)} rounds checked, no violations")
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


def fig2_graph() -> EvolvingGraph:
    return topology.scripted(range(1, 9), FIG2_SCHEDULE)


SCENARIOS = {"fig2": (fig2_graph, len(FIG2_SCHEDULE), FIG2_SEED)}


def cmd_replay_figure(name: str, seed: Optional[int] = None) -> int:
    if name not in SCENARIOS:
        print(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    builder, rounds, default_seed = SCENARIOS[name]
    graph = builder()
    use_seed = default_seed if seed is None else seed
    print(f"scenario {name}: {len(graph.vertices)} nodes, {rounds} rounds, seed {use_seed}")
    for i, edges, config in engine.iter_run(graph, rounds, use_seed):
        bad = analysis.run_all_checks(config, edges)
        print(f"round {i}  edges: {_format_edges(edges)}")
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
