"""The names the benchmark harness under `perfbench/` imports or patches,
bound where it expects them.

`perfbench/` changes only in a benchmark change, so a refactor of the
package keeps each of these names bound in its module, with the same leading
parameters.  The list is ROADMAP's "perfbench contract".  This test pins it
without importing `perfbench`, so tier-1 sees a break that otherwise only the
benchmark's smoke run would.
"""

import concurrent.futures
import dataclasses
import inspect
import pathlib

import pytest

from dynaforest import analysis, cli, engine, topology, tracefile
from dynaforest.model import Action, EvolvingGraph, NodeState, Status

# (module, name, its leading parameters); the harness calls each one with
# these arguments first, positionally, or wraps it as a module attribute
CALLED = [
    (cli, "run_one_seed", ["config", "seed"]),
    (cli, "trace_header", ["vertices", "seed", "lazy", "params"]),
    (cli, "trace_round_lines", ["edges", "config"]),
    (cli, "render_mean_ratio_svg", ["mean_per_round"]),
    (cli, "main", ["argv"]),
    (engine, "run_round", ["config", "edges", "rngs", "lazy"]),
    (engine, "node_step", ["prev", "senders", "states", "aimed", "rng"]),
    (engine, "iter_run", ["graph", "rounds", "seed", "lazy"]),
    (engine, "initial_configuration", ["vertices"]),
    (engine, "make_node_rngs", ["seed", "vertices"]),
    (topology, "read_contact_file", ["path"]),
    (topology, "parse_contact_trace", ["records", "rounds_per_second"]),
    (topology, "edge_markov", ["params"]),
    (topology, "mean_instantaneous_degree", ["graph"]),
    (analysis, "run_all_checks", ["config", "edges"]),
    (analysis, "trees_per_component", ["config", "edges"]),
    (analysis, "round_csv_lines", ["summary"]),
    (analysis, "aggregate_csv_lines", ["rows"]),
    (analysis.MetricsAccumulator, "__call__", ["self", "i", "edges", "config"]),
    (analysis.MetricsAccumulator, "summary", ["self"]),
]


@pytest.mark.parametrize(
    "owner, name, leading", CALLED, ids=[f"{o.__name__}.{n}" for o, n, _ in CALLED]
)
def test_called_names_keep_their_leading_parameters(owner, name, leading):
    parameters = list(inspect.signature(getattr(owner, name)).parameters)
    assert parameters[: len(leading)] == leading


def test_other_names_are_bound_as_the_harness_uses_them():
    # the trace format lives in `tracefile`, and `cli` keeps its names bound
    for name in ("TRACE_MAGIC", "TraceFormatError", "TraceWriter", "read_trace_file",
                 "trace_header", "trace_round_lines"):
        assert getattr(cli, name) is getattr(tracefile, name), name
    assert cli.EXIT_OK == 0
    # the harness swaps in a subclass of each, overriding `map` and `write_text`
    assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert cli.Path is pathlib.Path
    # the traced seed stores its summary in the result's `__dict__`
    result = cli.SeedResult(seed=1, summary=None, violations=[])
    result.__dict__["extra"] = 1
    # the harness sets a schedule on a built graph, and replaces it on a copy
    graph = topology.edge_markov(topology.EdgeMarkovParams(n=3, p_birth=0.5, p_death=0.5, seed=0))
    assert isinstance(graph, EvolvingGraph)
    graph.schedule = lambda i: frozenset()
    assert graph.schedule(1) == frozenset()
    replaced = dataclasses.replace(graph, schedule=lambda i: frozenset({(1, 2)}))
    assert replaced.schedule(1) == {(1, 2)}


def test_patched_module_attributes_are_looked_up_when_called(monkeypatch, tmp_path):
    """A wrapper set on the module is the one the package calls."""
    calls = []

    def recorder(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in [
        (engine, "run_round"),
        (engine, "node_step"),
        (cli, "trace_header"),
        (analysis, "run_all_checks"),
        (analysis, "round_csv_lines"),
    ]:
        recorder(module, name)
    graph = topology.scripted([1, 2], [[(1, 2)]])
    monkeypatch.setattr(cli, "build_graph", lambda config, seed: graph)
    cli.run_one_seed(cli.RunConfig(rounds=2, out=str(tmp_path)), 0)
    assert set(calls) == {
        "run_round", "node_step", "trace_header", "run_all_checks", "round_csv_lines"
    }


def test_out_message_differs_exactly_when_action_or_target_differs():
    """`_changed` compares `out_message` next to status, parent, children and
    score, so for two states of one node it must differ exactly when the
    action or the target does."""
    variants = [
        (Action.HELLO, None),
        (Action.FLIP, 2),
        (Action.FLIP, 3),
        (Action.SELECT, 2),
        (Action.SELECT, 4),
    ]
    states = [
        NodeState(1, status, None if status is Status.T else 5, frozenset({2, 3}), score,
                  action, target)
        for status in (Status.T, Status.N)
        for score in (1, 6)
        for action, target in variants
    ]
    for a in states:
        for b in states:
            differs = (a.action, a.target) != (b.action, b.target)
            assert (a.out_message != b.out_message) is differs, (a, b)
