"""The benchmark's workloads.

Each workload turns the run seed into one fixed input, and offers:

- `setup(input)`: the work a user waits for before round 1, timed;
- `episode(input)`: one timed pass over the input along the workload's path;
- `reference(input)`: an untimed replay that runs the invariant checkers on
  every round and fingerprints the trace and CSV bytes;
- `traced(input, tracer)`: the episode again with every layer wrapped.

Every timed episode must reproduce the reference exactly.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from dynaforest import analysis, cli, engine, topology
from dynaforest.analysis import aggregate_csv_lines, round_csv_lines
from dynaforest.cli import trace_header, trace_round_lines

import contacts
import tracing

# Criterion-5 regime: stationary mean degree 1.3 on 78 nodes, edge lifetimes
# of 1 / p_death = 5000 rounds.  The chain starts empty; after 25 000 rounds
# its edge density is within 0.6 % of the stationary one.
SPARSE_P_DEATH = 2e-4
SPARSE_BURN_IN = 25_000
_DENSITY = contacts.MEAN_DEGREE / (contacts.NODES - 1)
SPARSE_P_BIRTH = SPARSE_P_DEATH * _DENSITY / (1 - _DENSITY)

WORKERS_ENV = "DYNAFOREST_WORKERS"


class BenchError(RuntimeError):
    """The program misbehaved on a benchmark input."""


@dataclasses.dataclass
class Outcome:
    """What one pass over an input produced.

    `output` is what a timed episode is compared on: the per-seed metrics
    summaries for the library workloads, the output-file fingerprint for the
    CLI workload.
    """

    rounds: int
    trees_per_component: float
    optimal_round_frac: float
    output: object
    fingerprint: str = ""
    violations: int = 0


def _digest(lines):
    """sha256 of the file `"\\n".join(lines) + "\\n"` would hold."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h


def _combine(file_digests: dict) -> str:
    """One fingerprint over named files, in name order."""
    h = hashlib.sha256()
    for name in sorted(file_digests):
        h.update(f"{name} {file_digests[name]}\n".encode())
    return h.hexdigest()


def _replay_seed(graph, rounds: int, seed: int, lazy: bool, checks: bool, span):
    """The library path for one seed, plus trace and CSV digests made inside `span`.

    Returns (summary, trace sha256, csv sha256, violations).
    """
    with span():
        trace = _digest(trace_header(graph.vertices, seed, lazy, graph.params))
    acc = analysis.MetricsAccumulator()
    violations = 0
    for i, edges, config in engine.iter_run(graph, rounds, seed, lazy):
        if checks:
            violations += len(analysis.run_all_checks(config, edges))
        acc(i, edges, config)
        with span():
            for line in trace_round_lines(edges, config):
                trace.update(line.encode())
                trace.update(b"\n")
    summary = acc.summary()
    with span():
        csv = _digest(round_csv_lines(summary))
    return summary, trace.hexdigest(), csv.hexdigest(), violations


# ---------------------------------------------------------------------------
# library workloads: engine.iter_run driven directly


@dataclasses.dataclass(frozen=True)
class LibraryInput:
    graphs: dict  # seed -> its adversary, advanced through the burn-in rounds


@dataclasses.dataclass(frozen=True)
class LibraryWorkload:
    name: str
    why: str
    nodes: int
    p_birth: float
    p_death: float
    lazy: bool
    checks: bool
    rounds: int
    seeds: int = 1  # seeds simulated per episode, each on its own graph
    burn_in: int = 0  # edge-Markov rounds run untimed before round 1
    setup_reps_per_episode: int = 20

    def parameters(self) -> str:
        burn_in = f" after {self.burn_in} burn-in" if self.burn_in else ""
        seeds = f"{self.seeds} seeds x " if self.seeds > 1 else ""
        return (
            f"{self.nodes} nodes, edge-Markov p_birth={self.p_birth:.3g} "
            f"p_death={self.p_death:.3g}, {'lazy' if self.lazy else 'not lazy'}, "
            f"checks {'on' if self.checks else 'off'}, "
            f"{seeds}{self.rounds} rounds{burn_in}"
        )

    def prepare(self, workdir: Path, seed: int) -> LibraryInput:
        graphs = {}
        for s in range(seed * self.seeds, (seed + 1) * self.seeds):
            graphs[s] = self._graph(s)
            if self.burn_in:
                graphs[s].schedule(self.burn_in)
        return LibraryInput(graphs)

    def _graph(self, seed: int):
        return topology.edge_markov(
            topology.EdgeMarkovParams(
                n=self.nodes, p_birth=self.p_birth, p_death=self.p_death, seed=seed
            )
        )

    def _burnt_in(self, graph):
        """A copy of a prepared adversary whose round i is its round burn_in + i.

        Each pass gets its own copy, so it advances the chain from the same
        state; the pass's forward queries still run the chain.
        """
        graph = copy.deepcopy(graph)
        if not self.burn_in:
            return graph
        produce, offset = graph.schedule, self.burn_in
        return dataclasses.replace(
            graph,
            schedule=lambda i: produce(offset + i),
            params={**graph.params, "burn_in": offset},
        )

    def setup(self, run_input: LibraryInput) -> float:
        """Adversary construction plus C_0 and the per-node random streams, every seed."""
        start = time.perf_counter()
        for seed in run_input.graphs:
            graph = self._graph(seed)
            engine.initial_configuration(graph.vertices)
            engine.make_node_rngs(seed, graph.vertices)
        return time.perf_counter() - start

    def _outcome(self, summaries, fingerprint="", violations=0) -> Outcome:
        return Outcome(
            rounds=self.rounds * len(summaries),
            trees_per_component=sum(s.mean_trees_per_component for s in summaries)
            / len(summaries),
            optimal_round_frac=sum(s.fraction_optimal_rounds for s in summaries)
            / len(summaries),
            output=summaries,
            fingerprint=fingerprint,
            violations=violations,
        )

    def episode(self, run_input: LibraryInput) -> tuple:
        """(wall s, Outcome) for iter_run + MetricsAccumulator (+ checks), every seed."""
        graphs = {seed: self._burnt_in(graph) for seed, graph in run_input.graphs.items()}
        start = time.perf_counter()
        summaries, violations = [], 0
        for seed, graph in graphs.items():
            acc = analysis.MetricsAccumulator()
            for i, edges, config in engine.iter_run(graph, self.rounds, seed, self.lazy):
                if self.checks:
                    violations += len(analysis.run_all_checks(config, edges))
                acc(i, edges, config)
            summaries.append(acc.summary())
        wall = time.perf_counter() - start
        return wall, self._outcome(summaries, violations=violations)

    def _replay(self, run_input: LibraryInput, checks: bool, span, adapt=None) -> Outcome:
        digests, summaries, violations = {}, [], 0
        for seed, graph in run_input.graphs.items():
            graph = self._burnt_in(graph)
            if adapt is not None:
                graph = adapt(graph)
            summary, trace, csv, bad = _replay_seed(
                graph, self.rounds, seed, self.lazy, checks, span
            )
            digests[f"trace_seed{seed}"] = trace
            digests[f"csv_seed{seed}"] = csv
            summaries.append(summary)
            violations += bad
        return self._outcome(summaries, _combine(digests), violations)

    def reference(self, run_input: LibraryInput) -> Outcome:
        """Untimed, with checks on every round whatever the workload's setting."""
        return self._replay(run_input, True, contextlib.nullcontext)

    def traced(self, run_input: LibraryInput, tracer: tracing.Tracer) -> Outcome:
        def traced_graph(graph):
            return dataclasses.replace(
                graph, schedule=tracing.traced_schedule(tracer, graph.schedule)
            )

        with tracing.installed(tracer), tracer.span("bench.episode"):
            return self._replay(
                run_input, self.checks, lambda: tracer.span("bench.fingerprint"), traced_graph
            )


# ---------------------------------------------------------------------------
# the CLI workload: `dynaforest run --adversary trace` through cli.main


@dataclasses.dataclass(frozen=True)
class CliInput:
    runs: tuple  # (contact file, seeds) for each `cli run` of an episode
    workdir: Path


def _merge(outcomes) -> Outcome:
    """One Outcome over several `cli run`s with the same number of seeds each."""
    fingerprint = _combine({f"run{k}": o.fingerprint for k, o in enumerate(outcomes)})
    return Outcome(
        rounds=sum(o.rounds for o in outcomes),
        trees_per_component=sum(o.trees_per_component for o in outcomes) / len(outcomes),
        optimal_round_frac=sum(o.optimal_round_frac for o in outcomes) / len(outcomes),
        output=fingerprint,
        fingerprint=fingerprint,
        violations=sum(o.violations for o in outcomes),
    )


@dataclasses.dataclass(frozen=True)
class CliWorkload:
    name: str
    why: str
    duration_s: int
    rounds_per_second: int
    contact_files: int  # `cli run`s per episode, one per file
    seeds_per_file: int
    max_workers: int
    setup_reps_per_episode: int = 8

    @property
    def seeds(self) -> int:
        """Seeds simulated per episode."""
        return self.contact_files * self.seeds_per_file

    def workers(self) -> int:
        return min(self.max_workers, os.cpu_count() or 1)

    def parameters(self) -> str:
        return (
            f"cli run --adversary trace, {self.contact_files} "
            f"{contacts.NODES}-node contact files x {self.seeds_per_file} seeds, "
            f"{self.duration_s} s at {self.rounds_per_second} rounds/s, "
            f"<={self.max_workers} workers"
        )

    def prepare(self, workdir: Path, seed: int) -> CliInput:
        runs = []
        for file_seed in range(seed * self.contact_files, (seed + 1) * self.contact_files):
            path = workdir / f"contacts{file_seed}.txt"
            contacts.write_contact_file(path, file_seed, self.duration_s)
            contacts.check_contact_file(path, self.rounds_per_second, self.duration_s)
            first = file_seed * self.seeds_per_file
            runs.append((path, tuple(range(first, first + self.seeds_per_file))))
        return CliInput(tuple(runs), workdir)

    def setup(self, run_input: CliInput) -> float:
        """Contact-file parse plus process-pool start, for every file."""
        start = time.perf_counter()
        for path, _ in run_input.runs:
            topology.parse_contact_trace(
                topology.read_contact_file(path), self.rounds_per_second
            )
            pool = ProcessPoolExecutor(max_workers=self.workers())
            try:
                for future in [pool.submit(os.getpid) for _ in range(self.workers())]:
                    future.result()
            finally:
                pool.shutdown(wait=True)
        return time.perf_counter() - start

    def _run(self, contact_file: Path, seeds: tuple, out: Path, span):
        """`cli.main(["run", ...])` into a fresh directory `out`; wall s."""
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "run", "--adversary", "trace", "--trace-file", str(contact_file),
            "--rounds-per-second", str(self.rounds_per_second),
            "--seeds", ",".join(str(s) for s in seeds), "--out", str(out),
        ]
        saved = os.environ.get(WORKERS_ENV)
        os.environ[WORKERS_ENV] = str(self.workers())
        try:
            with contextlib.redirect_stdout(io.StringIO()), span():
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
        finally:
            if saved is None:
                del os.environ[WORKERS_ENV]
            else:
                os.environ[WORKERS_ENV] = saved
        if code != cli.EXIT_OK:
            raise BenchError(f"dynaforest {' '.join(argv)} exited with {code}")
        return wall

    def _run_all(self, run_input: CliInput, name: str, span=contextlib.nullcontext):
        """Every `cli run` of an episode: (wall s summed over them, merged Outcome)."""
        wall, outcomes = 0.0, []
        for k, (contact_file, seeds) in enumerate(run_input.runs):
            out = run_input.workdir / f"{name}{k}"
            wall += self._run(contact_file, seeds, out, span)
            outcomes.append(self._read_outcome(out))
        return wall, _merge(outcomes)

    def _read_outcome(self, out: Path) -> Outcome:
        """Outcome of the trace and CSV files a `cli run` wrote."""
        files = sorted(out.glob("trace_seed*.txt")) + sorted(out.glob("metrics_seed*.csv"))
        files.append(out / "aggregate.csv")
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        rows = [line.split(",") for line in files[-1].read_text().splitlines()[1:]]
        if len(rows) != self.seeds_per_file:
            raise BenchError(f"{files[-1]}: {len(rows)} seeds, expected {self.seeds_per_file}")
        rounds = sum(
            len(f.read_text().splitlines()) - 1 for f in files if f.name.startswith("metrics")
        )
        fingerprint = _combine(digests)
        return Outcome(
            rounds=rounds,
            trees_per_component=sum(float(r[1]) for r in rows) / len(rows),
            optimal_round_frac=sum(float(r[2]) for r in rows) / len(rows),
            output=fingerprint,
            fingerprint=fingerprint,
        )

    def episode(self, run_input: CliInput) -> tuple:
        return self._run_all(run_input, "timed")

    def _reference_run(self, contact_file: Path, seeds: tuple) -> Outcome:
        graph = topology.parse_contact_trace(
            topology.read_contact_file(contact_file), self.rounds_per_second
        )
        digests, rows, violations = {}, [], 0
        for seed in seeds:
            summary, trace, csv, bad = _replay_seed(
                graph, graph.rounds, seed, False, True, contextlib.nullcontext
            )
            digests[f"trace_seed{seed}.txt"] = trace
            digests[f"metrics_seed{seed}.csv"] = csv
            rows.append((seed, summary))
            violations += bad
        digests["aggregate.csv"] = _digest(aggregate_csv_lines(rows)).hexdigest()
        fingerprint = _combine(digests)
        return Outcome(
            rounds=graph.rounds * len(rows),
            trees_per_component=sum(s.mean_trees_per_component for _, s in rows) / len(rows),
            optimal_round_frac=sum(s.fraction_optimal_rounds for _, s in rows) / len(rows),
            output=fingerprint,
            fingerprint=fingerprint,
            violations=violations,
        )

    def reference(self, run_input: CliInput) -> Outcome:
        """Untimed: each seed through the library with checks on every round.

        The files `cli run` writes must be byte-identical to this replay's.
        """
        return _merge([self._reference_run(path, seeds) for path, seeds in run_input.runs])

    def traced(self, run_input: CliInput, tracer: tracing.Tracer) -> Outcome:
        @contextlib.contextmanager
        def spans():
            with tracer.span("bench.episode"), tracer.span("cli.main"):
                yield

        with tracing.installed(tracer):
            return self._run_all(run_input, "traced", spans)[1]
