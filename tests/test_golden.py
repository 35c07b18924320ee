"""Golden hashes of end-to-end outputs.

The sha256 of every trace and CSV from one small lazy `cli run`, of the
`replay-figure fig2` table, and of the checkers' verdicts on a seeded corpus
of corrupted configurations are pinned here.  A refactor that is meant to
keep outputs byte-identical must keep these hashes.

The run and the corpus use the edge-Markov adversary.  Its 0.1.0 hashes,
from the chain that draws one uniform per pair per round, stay pinned
against `per_round_chain`: with that chain in place of
`topology.edge_markov`, every other part of the program must still give
them.
"""

import dataclasses
import hashlib
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from dynaforest import cli, engine, topology
from dynaforest.analysis import ViolationKind, run_all_checks
from dynaforest.cli import main, read_trace_file
from dynaforest.model import Configuration, Status
from per_round_chain import per_round_edge_markov

RUN_ARGS = [
    "run", "--adversary", "edge-markov", "--nodes", "12", "--p-birth", "0.3",
    "--p-death", "0.3", "--rounds", "60", "--lazy", "--rest-probability", "0.3",
    "--seeds", "0-2",
]

RUN_HASHES = {
    "aggregate.csv":
        "897e3df068008529611404c4bdaedd2bf925764038b6b5c9bb880e18c42c068d",
    "metrics_seed0.csv":
        "7ba5b882cc03a527f7f50577b40f93b408ae9038c657df456f023f109db563c9",
    "metrics_seed1.csv":
        "b0fdb2655eb3567d9fdd0e8b7843cc023bdf402abce112ab6f6e61da36bdc9ea",
    "metrics_seed2.csv":
        "47cfb28099817e279a8b1d156e93eaa0e5fae9aea9ec2452c4e67a45c8abaab4",
    "trace_seed0.txt":
        "0ef5d3db0c1bdac4bb9336e8834e726adc57daa701082563db4ff64097779d9a",
    "trace_seed1.txt":
        "b4cf90c173196b72e60eb904bc8695de450efa9ea56a249327637317fe6e1bd7",
    "trace_seed2.txt":
        "8b8a60c7a5cc43be0069c2962a00e4baa0ea68736b7415158cd8f0fad6f72e91",
}

PER_ROUND_RUN_HASHES = {
    "aggregate.csv":
        "e023699b44a3cefca8f67782c8fab9cfbd538c341d16cc6c18420396a7606d24",
    "metrics_seed0.csv":
        "f80bc56dc6eacc53fd9baa414fbea612c0747849841774823fa7f7caf8bcaea9",
    "metrics_seed1.csv":
        "c69ea1344a5adda1e59c6e92ba5eb203aff18cd18daa05b9ca2cafa15d5b54e4",
    "metrics_seed2.csv":
        "be9d0a9c444614ed1e02181e592e04b517da7f81792613a41eb7865dafceddb0",
    "trace_seed0.txt":
        "c435e7ea9fcaa193c74fc7ae57a6f835aa082f6146dbaece6417409e29a5be8a",
    "trace_seed1.txt":
        "df3a878eaf9be92abdbe06b81dbfb338287f10f59d99bb1d6f8c3ed7d1fb4ed5",
    "trace_seed2.txt":
        "3bd2fae4f66f0a4b605244108e850e37876aead3a610ad908ba0bfa65c46392a",
}

FIG2_HASH = "3d5624bac06f32d82911ee970f94cf7cce5b9ccf6ef345121d2c07de81ff009e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(out, monkeypatch) -> dict:
    monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
    assert main([*RUN_ARGS, "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in RUN_HASHES}


def test_cli_run_outputs_are_byte_identical(tmp_path, monkeypatch):
    assert run_hashes(tmp_path, monkeypatch) == RUN_HASHES


def test_replay_fig2_output_is_byte_identical(capsys):
    assert main(["replay-figure", "fig2"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == FIG2_HASH


# ---------------------------------------------------------------------------
# checker verdicts on corrupted engine configurations

CHECKS_HASH = "6d74b2b057ca5b74f5de045b868f1752971a73d8127f6ab299eaa7c73cbbfd16"
PER_ROUND_CHECKS_HASH = "80f4e6dca46e7e5fde70bd70a130315dd7c74c232945b8d64bacd60e08f13231"
CHECKS_CONFIGURATIONS = 2400


def _corrupt_parent(states, edges, rng, vertices):
    u = rng.choice(vertices)
    state = states[u]
    v = rng.choice([None] + [w for w in vertices if w != u])
    if v is not None and rng.random() < 0.5:
        edges.add((min(u, v), max(u, v)))
    states[u] = dataclasses.replace(state, parent=v, children=state.children - {v})


def _corrupt_children(states, edges, rng, vertices):
    u = rng.choice(vertices)
    state = states[u]
    w = rng.choice([w for w in vertices if w != u])
    if w in state.children:
        children = state.children - {w}
    elif w != state.parent:
        children = state.children | {w}
    else:
        return
    states[u] = dataclasses.replace(state, children=children)


def _flip_status(states, edges, rng, vertices):
    u = rng.choice(vertices)
    state = states[u]
    flipped = Status.N if state.status is Status.T else Status.T
    states[u] = dataclasses.replace(state, status=flipped)


def _duplicate_score(states, edges, rng, vertices):
    u, w = rng.sample(vertices, 2)
    states[u] = dataclasses.replace(states[u], score=states[w].score)


def _make_cycle(states, edges, rng, vertices):
    ring = rng.sample(vertices, rng.randint(2, min(4, len(vertices))))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        state = states[a]
        states[a] = dataclasses.replace(
            state, status=Status.N, parent=b, children=state.children - {b}
        )
        edges.add((min(a, b), max(a, b)))
        if rng.random() < 0.5 and states[b].parent != a:
            states[b] = dataclasses.replace(states[b], children=states[b].children | {a})


def _second_root(states, edges, rng, vertices):
    # a node keeps its place in its parent's children but claims a token
    members = [u for u in vertices if states[u].parent is not None]
    if members:
        u = rng.choice(members)
        states[u] = dataclasses.replace(states[u], status=Status.T, parent=None)


def _remove_tree_edge(states, edges, rng, vertices):
    members = [u for u in vertices if states[u].parent is not None]
    if members:
        u = rng.choice(members)
        v = states[u].parent
        edges.discard((min(u, v), max(u, v)))


CORRUPTIONS = (
    _corrupt_parent,
    _corrupt_children,
    _flip_status,
    _duplicate_score,
    _make_cycle,
    _second_root,
    _remove_tree_edge,
)


def corrupted_configurations():
    """(configuration, edges) pairs: engine rounds with 1-3 corruptions each."""
    rng = random.Random(1410)
    runs = [(n, p, lazy) for n in (4, 7, 12) for p in (0.1, 0.4) for lazy in (False, True)]
    rounds = CHECKS_CONFIGURATIONS // len(runs)
    for k, (n, p, lazy) in enumerate(runs):
        graph = topology.edge_markov(topology.EdgeMarkovParams(n, p, p, seed=k))
        vertices = sorted(graph.vertices)
        for i, edges, config in engine.iter_run(graph, rounds, seed=k, lazy=lazy):
            states = dict(config.states)
            edge_list = set(edges)
            for corrupt in rng.choices(CORRUPTIONS, k=rng.randint(1, 3)):
                corrupt(states, edge_list, rng, vertices)
            yield Configuration(round=i, states=states), frozenset(edge_list)


def checker_output_hash() -> str:
    lines, kinds, clean = [], Counter(), 0
    for k, (config, edges) in enumerate(corrupted_configurations()):
        violations = run_all_checks(config, edges)
        lines.append(f"#{k}")
        lines.extend(str(v) for v in violations)
        kinds.update(v.kind for v in violations)
        clean += not violations
    assert k + 1 == CHECKS_CONFIGURATIONS
    assert set(kinds) == set(ViolationKind)  # every checker fires somewhere
    assert 0 < clean < CHECKS_CONFIGURATIONS
    return sha256("\n".join(lines).encode())


def test_checker_output_on_corrupted_configurations_is_byte_identical():
    assert checker_output_hash() == CHECKS_HASH


def test_only_the_edge_markov_schedule_moved(tmp_path, monkeypatch):
    # with the 0.1.0 chain back in place, the run and the corpus read as in 0.1.0
    monkeypatch.setattr(topology, "edge_markov", per_round_edge_markov)
    assert run_hashes(tmp_path, monkeypatch) == PER_ROUND_RUN_HASHES
    assert checker_output_hash() == PER_ROUND_CHECKS_HASH


# ---------------------------------------------------------------------------
# the trace format round-trips


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(1, 9),
    p=st.sampled_from([0.05, 0.3, 0.7]),
    rounds=st.integers(1, 25),
    seed=st.integers(0, 2**16),
    lazy=st.booleans(),
)
def test_written_trace_reads_back_every_round(tmp_path_factory, nodes, p, rounds, seed, lazy):
    config = cli.RunConfig(nodes=nodes, p_birth=p, p_death=p, rounds=rounds, lazy=lazy)
    result = cli.run_one_seed(config, seed)
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    path.write_text("\n".join(result.trace_lines) + "\n")
    stored = list(read_trace_file(path))
    graph = cli.build_graph(config, seed)
    expected = list(engine.iter_run(graph, rounds, seed, lazy))
    header = cli.trace_header(graph.vertices, seed, lazy, graph.params)
    assert path.read_text().splitlines()[:5] == header
    assert len(stored) == rounds
    for (i, edges, want), (j, got_edges, got) in zip(expected, stored):
        assert (j, got_edges) == (i, edges)
        assert list(got.states) == list(want.states)
        for u, st_want in want.states.items():
            st_got = got.states[u]
            assert (st_got.status, st_got.parent, st_got.score, st_got.children) == (
                st_want.status, st_want.parent, st_want.score, st_want.children
            )
