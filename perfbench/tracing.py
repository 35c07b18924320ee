"""In-memory span recorder that wraps dynaforest's public calls from outside.

The benchmark measures the program as a user runs it, so no timer lives
inside the package.  For the traced run, `installed()` swaps the public
functions each layer exposes (module attributes the callers look up at call
time) for wrappers that record a span per call, and restores them on exit.

A closing span adds its duration to its name's total and, less the time its
child spans took, to its name's self time; a layer's self time is the sum
over its names.  Counters are recorded at the same boundaries.

`cli run` fans seeds out to forked worker processes.  Workers inherit the
wrappers; each seed's worker-side spans are reduced to a summary that rides
back on the pickled `SeedResult` and is merged into the parent's tracer.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import time
from collections import Counter
from pathlib import PosixPath

from dynaforest import analysis, cli, engine, topology

# Layers with more than one boundary also get a `<layer>.self_s` total; the
# engine's and protocol's self time is their single boundary's metric.
LAYER_TOTALS = ("topology", "analysis", "cli")

# span name -> (layer, per-layer metric the span's self time adds to)
SPANS = {
    "topology.schedule": ("topology", "topology.schedule_s"),
    "topology.read_contact_file": ("topology", "topology.parse_s"),
    "topology.parse_contact_trace": ("topology", "topology.parse_s"),
    "engine.run_round": ("engine", "engine.run_round_self_s"),
    "protocol.node_step": ("protocol", "protocol.node_step_s"),
    "analysis.run_all_checks": ("analysis", "analysis.checks_s"),
    "analysis.trees_per_component": ("analysis", "analysis.metrics_s"),
    "cli.main": ("cli", None),
    "cli.run_one_seed": ("cli", None),
    "cli.serialize": ("cli", "cli.serialize_s"),
    "cli.write": ("cli", "cli.write_s"),
    # waiting on workers, not busy: kept out of cli.self_s
    "cli.fanout": ("wait", "cli.fanout_wait_s"),
}

_ATTRIBUTE = "_perfbench_summary"


class Tracer:
    """Per-name self seconds, inclusive seconds and call counts; counters."""

    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans = 0
        self._stack: list = []  # open spans: [name, start, seconds in child spans]

    def _open(self, name: str) -> list:
        entry = [name, 0.0, 0.0]
        self._stack.append(entry)
        entry[1] = time.perf_counter()
        return entry

    def _close(self, entry: list) -> None:
        dur = time.perf_counter() - entry[1]
        self._stack.pop()
        name = entry[0]
        self.total_s[name] += dur
        self.self_s[name] += dur - entry[2]
        self.calls[name] += 1
        self.spans += 1
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            entry = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(entry)

        return traced

    def summary(self) -> dict:
        """Self seconds, inclusive seconds and call counts per span name."""
        return {
            "self_s": Counter(self.self_s),
            "total_s": Counter(self.total_s),
            "calls": Counter(self.calls),
            "counters": Counter(self.counters),
            "spans": self.spans,
        }

    def absorb(self, summary: dict) -> None:
        """Merge a summary recorded in another process."""
        self.self_s.update(summary["self_s"])
        self.total_s.update(summary["total_s"])
        self.calls.update(summary["calls"])
        self.counters.update(summary["counters"])
        self.spans += summary["spans"]


def _per(total, count) -> float:
    return total / count if count else 0.0


def layer_metrics(summary: dict) -> dict:
    """The benchmark's per-layer metrics from one tracer summary."""
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, counters = summary["calls"], summary["counters"]
    out = {f"{layer}.self_s": 0.0 for layer in LAYER_TOTALS}
    for name, (layer, metric) in SPANS.items():
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + self_s[name]
        if layer in LAYER_TOTALS:
            out[f"{layer}.self_s"] += self_s[name]
    steps = calls["protocol.node_step"]
    rounds = calls["engine.run_round"]
    schedules = calls["topology.schedule"]
    out.update(
        {
            "protocol.node_step_calls": steps,
            "protocol.node_step_us": _per(1e6 * self_s["protocol.node_step"], steps),
            "engine.nodes_changed_per_round": _per(counters["engine.nodes_changed"], rounds),
            "topology.edges_per_round": _per(counters["topology.edges"], schedules),
            "topology.edge_changes_per_round": _per(
                counters["topology.edge_changes"], counters["topology.edge_transitions"]
            ),
            "analysis.violations": counters["analysis.violations"],
            "cli.trace_bytes_per_round": _per(
                counters["cli.trace_bytes"], counters["cli.trace_rounds"]
            ),
            "cli.result_bytes": _per(counters["cli.result_bytes"], calls["cli.run_one_seed"]),
            "cli.seed_s": total_s["cli.run_one_seed"],
        }
    )
    return out


# ---------------------------------------------------------------------------
# wrappers installed for the traced run

_installed: Tracer | None = None
run_one_seed = cli.run_one_seed  # the original, captured before any patching


def traced_schedule(tracer: Tracer, schedule):
    """Span E_i production and count |E_i| and |E_i symmetric-difference E_(i-1)|.

    Changes are counted from the second call on, between consecutive calls.
    """
    timed = tracer.wrap("topology.schedule", schedule)
    previous = [None]

    def produce(i):
        edges = timed(i)
        counters = tracer.counters
        counters["topology.edges"] += len(edges)
        if previous[0] is not None:
            counters["topology.edge_changes"] += len(edges ^ previous[0])
            counters["topology.edge_transitions"] += 1
        previous[0] = edges
        return edges

    return produce


def _changed(old, new) -> bool:
    return (
        old.status is not new.status
        or old.parent != new.parent
        or old.children != new.children
        or old.score != new.score
        or old.out_message != new.out_message
    )


def traced_run_one_seed(config, seed):
    """`cli.run_one_seed` under tracing; picklable so the pool can send it.

    `TracedPool` forks its workers, so they inherit the installed wrappers and
    the tracer.
    """
    tracer = _installed
    in_worker = os.getpid() != tracer.pid
    if in_worker:
        tracer.reset()
    with tracer.span("cli.run_one_seed"):
        result = run_one_seed(config, seed)
    tracer.counters["cli.result_bytes"] += len(pickle.dumps(result))
    if in_worker:
        setattr(result, _ATTRIBUTE, tracer.summary())
    return result


class TracedPool(cli.ProcessPoolExecutor):
    """The CLI's process pool, forking its workers and timing the parent's wait."""

    def __init__(self, *args, **kwargs):
        kwargs["mp_context"] = multiprocessing.get_context("fork")
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        tracer = _installed
        with tracer.span("cli.fanout"):
            results = list(super().map(fn, *iterables, **kwargs))
        for result in results:
            summary = result.__dict__.pop(_ATTRIBUTE, None)
            if summary is not None:
                tracer.absorb(summary)
        return iter(results)


class TracedPath(PosixPath):
    """Output paths whose `write_text` is recorded as the cli write span."""

    def write_text(self, *args, **kwargs):
        with _installed.span("cli.write"):
            return super().write_text(*args, **kwargs)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap each layer's public calls for traced wrappers; restore on exit."""
    global _installed
    saved = []

    def patch(module, attribute, replacement):
        saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    timed_round = tracer.wrap("engine.run_round", engine.run_round)

    def counted_round(config, *args, **kwargs):
        new = timed_round(config, *args, **kwargs)
        old_states = config.states
        tracer.counters["engine.nodes_changed"] += sum(
            1 for u, st in new.states.items() if _changed(old_states[u], st)
        )
        return new

    timed_checks = tracer.wrap("analysis.run_all_checks", analysis.run_all_checks)

    def counted_checks(config, edges):
        violations = timed_checks(config, edges)
        tracer.counters["analysis.violations"] += len(violations)
        return violations

    timed_parse = tracer.wrap("topology.parse_contact_trace", topology.parse_contact_trace)

    def parse_and_trace(*args, **kwargs):
        graph = timed_parse(*args, **kwargs)
        graph.schedule = traced_schedule(tracer, graph.schedule)
        return graph

    timed_round_lines = tracer.wrap("cli.serialize", cli.trace_round_lines)

    def counted_round_lines(edges, config):
        lines = timed_round_lines(edges, config)
        tracer.counters["cli.trace_bytes"] += sum(len(line) + 1 for line in lines)
        tracer.counters["cli.trace_rounds"] += 1
        return lines

    try:
        patch(engine, "node_step", tracer.wrap("protocol.node_step", engine.node_step))
        patch(engine, "run_round", counted_round)
        patch(topology, "read_contact_file",
              tracer.wrap("topology.read_contact_file", topology.read_contact_file))
        patch(topology, "parse_contact_trace", parse_and_trace)
        patch(analysis, "run_all_checks", counted_checks)
        patch(analysis, "trees_per_component",
              tracer.wrap("analysis.trees_per_component", analysis.trees_per_component))
        patch(cli, "trace_header", tracer.wrap("cli.serialize", cli.trace_header))
        patch(cli, "trace_round_lines", counted_round_lines)
        patch(analysis, "round_csv_lines", tracer.wrap("cli.serialize", analysis.round_csv_lines))
        patch(analysis, "aggregate_csv_lines",
              tracer.wrap("cli.serialize", analysis.aggregate_csv_lines))
        patch(cli, "render_mean_ratio_svg",
              tracer.wrap("cli.serialize", cli.render_mean_ratio_svg))
        patch(cli, "run_one_seed", traced_run_one_seed)
        patch(cli, "ProcessPoolExecutor", TracedPool)
        patch(cli, "Path", TracedPath)
        _installed = tracer
        yield tracer
    finally:
        _installed = None
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
