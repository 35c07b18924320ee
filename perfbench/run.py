"""dynaforest benchmark: drives the public API and the CLI from outside.

Run one measurement (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload sparse78-lazy --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from an extra traced pass.  Print every metric with its unit, the runs that
report it and what one run's value is made of, and rewrite BENCHMARK.json
from the definitions below:

    python3 perfbench/run.py --describe

A run makes its input from `--seed`, times as many episodes as fit in
`--seconds` (at least one), then replays the input untimed with the invariant
checkers on every round and a sha256 fingerprint of the trace and CSV bytes,
and requires every timed episode to match the replay.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dynaforest"
WORK_DIR = ".perfbench_work"
RUN_SECONDS = 30
MAX_FAILED_SEEDS = 100  # stop retrying an input that keeps failing


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    samples: str  # what one run's value is made of
    bound: float | None = None


END_TO_END = (
    Metric("rounds_per_s", "rounds/s", "higher",
           "median over timed episodes of simulated rounds (summed over seeds) / wall s", 0.25),
    Metric("setup_s", "s", "lower",
           "median over set-up repetitions: adversary construction (+ contact parse and "
           "pool start for cli-contacts)", 0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "max of ru_maxrss for the process and its children after the timed episodes", 0.10),
    Metric("trees_per_component", "ratio", "lower",
           "mean over rounds and seeds of the run's input (deterministic per seed)", 0.15),
)

PER_LAYER = tuple(
    Metric(name, unit, better, samples)
    for name, unit, better, samples in (
        ("topology.self_s", "s", "lower", "self time of all topology spans"),
        ("topology.schedule_s", "s", "lower", "self time of EvolvingGraph.schedule(i)"),
        ("topology.parse_s", "s", "lower", "self time of read_contact_file + parse_contact_trace"),
        ("topology.edges_per_round", "count/round", "lower", "|E_i| averaged over schedule calls"),
        ("topology.edge_changes_per_round", "count/round", "lower",
         "|E_i symmetric-difference E_(i-1)| averaged over schedule calls"),
        ("engine.run_round_self_s", "s", "lower",
         "run_round self time: delivery and Configuration build, node_step excluded"),
        ("engine.nodes_changed_per_round", "count/round", "lower",
         "nodes whose status, parent, children, score or out-message changed"),
        ("protocol.node_step_s", "s", "lower", "self time of node_step"),
        ("protocol.node_step_calls", "count", "lower", "node_step calls"),
        ("protocol.node_step_us", "us", "lower", "node_step self time per call"),
        ("analysis.self_s", "s", "lower", "self time of all analysis spans"),
        ("analysis.checks_s", "s", "lower", "self time of run_all_checks"),
        ("analysis.metrics_s", "s", "lower", "self time of trees_per_component"),
        ("analysis.violations", "count", "lower",
         "invariant violations over the traced, timed and replayed rounds; must be 0"),
        ("cli.self_s", "s", "lower", "self time of all cli spans"),
        ("cli.serialize_s", "s", "lower",
         "self time of trace_header, trace_round_lines and the CSV/SVG renderers"),
        ("cli.write_s", "s", "lower", "self time of output file writes"),
        ("cli.trace_bytes_per_round", "B/round", "lower", "trace body bytes per round"),
        ("cli.result_bytes", "B", "lower", "pickled SeedResult size per seed"),
        ("cli.seed_s", "s", "lower", "run_one_seed wall time summed over seeds (inclusive)"),
        ("cli.fanout_wait_s", "s", "lower", "parent's wait on the worker pool"),
        ("trace.overhead_s", "s", "lower", "traced wall time minus untraced wall time"),
        ("trace.spans", "count", "lower", "spans recorded in the traced pass"),
        ("optimal_round_frac", "fraction", "higher",
         "fraction of rounds where trees equal components (can be 0, so not end-to-end)"),
        ("failed_frac", "fraction", "lower",
         "seeds that raised, exited non-zero or violated an invariant / seeds attempted"),
    )
)


def workload_table() -> dict:
    import workloads as w

    return {
        wl.name: wl
        for wl in (
            w.LibraryWorkload(
                name="sparse78-lazy",
                why="paper regime, most nodes quiet: delta rounds and a smaller "
                "NodeState show here",
                nodes=78, p_birth=w.SPARSE_P_BIRTH, p_death=w.SPARSE_P_DEATH,
                lazy=True, checks=False, rounds=2000, seeds=3, burn_in=w.SPARSE_BURN_IN,
            ),
            w.LibraryWorkload(
                name="churn100-checked",
                why="most nodes change every round, so a delta mechanism is bypassed; "
                "checks and metrics weigh more",
                nodes=100, p_birth=0.3, p_death=0.3,
                lazy=False, checks=True, rounds=300,
            ),
            w.CliWorkload(
                name="cli-contacts",
                why="the user's path to the real-dataset run; the only one with parse, "
                "serialize, write, fan-out, pickling",
                duration_s=30, rounds_per_second=10, contact_files=4, seeds_per_file=2,
                max_workers=2,
            ),
        )
    }


# ---------------------------------------------------------------------------
# one measurement


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracing
    import workloads

    problems = []
    run_input = workload.prepare(workdir, seed)

    # Set-up repetitions are spread over the window like the episodes, so both
    # see the same machine.
    setup, walls, outcomes, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        setup.extend(workload.setup(run_input) for _ in range(workload.setup_reps_per_episode))
        attempted += workload.seeds
        try:
            wall, outcome = workload.episode(run_input)
        except Exception:
            traceback.print_exc()
            failed += workload.seeds
            if failed >= MAX_FAILED_SEEDS:
                break
            continue
        if outcome.violations:
            failed += workload.seeds
        walls.append(wall)
        outcomes.append(outcome)
    if not outcomes:
        raise workloads.BenchError(f"{workload.name}: every episode failed")
    rss_mb = peak_rss_mb()

    reference = workload.reference(run_input)
    print(f"fingerprint {workload.name} seed={seed} {reference.fingerprint}")
    if any(o.output != reference.output for o in outcomes):
        problems.append("a timed episode differs from the untimed replay")
    violations = reference.violations + sum(o.violations for o in outcomes)

    values = {
        "rounds_per_s": (
            statistics.median(o.rounds / w for o, w in zip(outcomes, walls)), len(walls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_mb, 1),
        "trees_per_component": (reference.trees_per_component, reference.rounds),
        "optimal_round_frac": (reference.optimal_round_frac, reference.rounds),
        "failed_frac": (failed / attempted, attempted),
    }

    if trace:
        tracer = tracing.Tracer()
        got = workload.traced(run_input, tracer)
        if (got.fingerprint, got.trees_per_component, got.optimal_round_frac) != (
            reference.fingerprint, reference.trees_per_component, reference.optimal_round_frac
        ):
            problems.append("the traced run differs from the untraced replay")
        summary = tracer.summary()
        # the traced episode, less the benchmark's own hashing inside it
        traced_wall = summary["total_s"]["bench.episode"] - summary["total_s"]["bench.fingerprint"]
        layers = tracing.layer_metrics(summary)
        layers["analysis.violations"] += violations
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layers["trace.spans"] = summary["spans"]
        for name, value in layers.items():
            values[name] = (value, 1)

    if violations:
        problems.append(f"{violations} invariant violations")
    if failed:
        problems.append(f"{failed} of {attempted} seeds failed")
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)

    metrics = {}
    for metric in PER_LAYER if trace else END_TO_END:
        value, count = values[metric.name]
        print(f"{metric.name} = {value!r} {metric.unit} (n={count})")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# describe: metric table and BENCHMARK.json


def describe() -> None:
    table = workload_table()
    print(f"{'metric':34} {'unit':12} {'better':7} {'bound':6} {'runs':8} samples in one run")
    for runs, metrics in (("trace 0", END_TO_END), ("trace 1", PER_LAYER)):
        for m in metrics:
            bound = "-" if m.bound is None else f"{m.bound:.2f}"
            print(f"{m.name:34} {m.unit:12} {m.better:7} {bound:6} {runs:8} {m.samples}")
    print()
    for wl in table.values():
        print(f"{wl.name}: {wl.parameters()}\n  why: {wl.why}")
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": wl.name, "why": f"{wl.parameters()}; {wl.why}"} for wl in table.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    for entry in spec["workloads"]:
        if len(entry["why"]) > 200:
            raise SystemExit(f"why of {entry['name']} is {len(entry['why'])} characters, max 200")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    print(f"\nwrote {ROOT / 'BENCHMARK.json'}")


def import_program() -> str:
    """Import dynaforest from this checkout's sources; a message if that fails."""
    if not (PACKAGE / "__init__.py").is_file():
        return f"no dynaforest sources at {PACKAGE}"
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    import dynaforest

    if Path(dynaforest.__file__).resolve().parent != PACKAGE:
        return f"imported dynaforest from {dynaforest.__file__}, not {PACKAGE}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    if args.describe:
        describe()
        return 0
    table = workload_table()
    if args.workload not in table or args.seed is None or args.seed < 0:
        parser.error(f"--workload must be one of {', '.join(table)}; --seed must be >= 0")

    workdir = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(table[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (ROOT / WORK_DIR).rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
