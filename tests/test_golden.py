"""Golden hashes of end-to-end outputs.

The sha256 of every trace, CSV and plot from one small lazy `cli run` and
from one non-lazy contact replay, of the `replay-figure fig2` table, and of the
checkers' verdicts on a seeded corpus of corrupted configurations are pinned
here, with the `aggregate.csv` of a replay whose means depend on how floats
are added.  A refactor that is meant to keep outputs byte-identical must keep
these hashes.

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

import pytest
from hypothesis import given, settings, strategies as st

from dynaforest import analysis, cli, engine, topology
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
    "trees_per_component.svg":
        "f5d4e0201ec0c3a236650b318814b7dc19939f332d7bc4c2e61b1f8f128efb6b",
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
    "trees_per_component.svg":
        "b5f4ed1b8fe816318e9f833994ca3a5b7147ff467c0b9a3fed4f4c3452eb9f52",
}

# A non-lazy replay of 12 nodes over 300 rounds: two-node pairs, one of them
# ending at 12 s, a star whose root has three children, and a path.  Its
# edges stand still for long stretches, where the tokens of the pairs swap
# back and forth and the star's root FLIPs among several children; every
# edge of the edge-Markov run above churns, so it never reaches that regime.
CONTACTS = """\
1 2 0 30
3 4 0 12
5 6 0 30
5 7 0 30
5 8 0 30
9 10 0 30
10 11 0 30
11 12 0 30
"""

CONTACT_RUN_ARGS = ["run", "--adversary", "trace", "--no-lazy", "--seeds", "0-2"]

CONTACT_RUN_HASHES = {
    "aggregate.csv":
        "86f2f3872d9a910182e5e78c8a7baa0c4f32d5b1e1c7b632b81c69353e505920",
    "metrics_seed0.csv":
        "cfff5ac21e30681ef9ff2e217be2945cf857fda6691f40599b6636ce113b1167",
    "metrics_seed1.csv":
        "cfff5ac21e30681ef9ff2e217be2945cf857fda6691f40599b6636ce113b1167",
    "metrics_seed2.csv":
        "cfff5ac21e30681ef9ff2e217be2945cf857fda6691f40599b6636ce113b1167",
    "trace_seed0.txt":
        "0ffbdbdece5ede2638f7fa29a66aa2285084146389ef93b8d328c2bfc4839b1a",
    "trace_seed1.txt":
        "9d5d520f340ccb2ca3fbd08933f2a7a3e2b5edd39bcccbc66431dde4e68fb87e",
    "trace_seed2.txt":
        "007aa06870e0d2cb060926d5527b090db0c14823e62da097c430ba554768d113",
    "trees_per_component.svg":
        "013d4c1d69a591e2ddfc952c58f693a5b5b96c0cab3864b4ce288e80b7bd28af",
}

# A non-lazy replay of 10 nodes over 290 rounds whose per-round ratios (7/6,
# 6/5, 5/4, 4/3, 7/5 and 3/2 among 262 ones) do not add up exactly in floating
# point: its means depend on the order and the rounding of the addition.
UNEVEN_CONTACTS = """\
4 9 4 10
10 8 20 22
10 1 15 20
9 4 6 14
9 10 15 22
3 4 20 23
9 7 23 24
2 3 24 25
5 1 8 16
10 7 22 29
7 8 4 10
2 1 4 12
4 5 21 28
5 7 16 23
"""

UNEVEN_AGGREGATE = """\
seed,meanTreesPerComponent,fractionOptimalRounds
0,1.0247126436781606,0.903448275862069
1,1.0247126436781606,0.903448275862069
"""

FIG2_HASH = "3d5624bac06f32d82911ee970f94cf7cce5b9ccf6ef345121d2c07de81ff009e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(out, monkeypatch) -> dict:
    monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
    assert main([*RUN_ARGS, "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in RUN_HASHES}


def test_cli_run_outputs_are_byte_identical(tmp_path, monkeypatch):
    assert run_hashes(tmp_path, monkeypatch) == RUN_HASHES


def test_non_lazy_contact_run_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
    contacts = tmp_path / "contacts.txt"
    contacts.write_text(CONTACTS)
    out = tmp_path / "out"
    assert main([*CONTACT_RUN_ARGS, "--trace-file", str(contacts), "--out", str(out)]) == 0
    hashes = {name: sha256((out / name).read_bytes()) for name in CONTACT_RUN_HASHES}
    assert hashes == CONTACT_RUN_HASHES


def compensated_sum(values, start=0):
    """`sum()` as Python 3.12 and later add floats: Neumaier's compensated
    summation, which leaves a sum of ints an int."""
    total, compensation = start, 0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("summation", ["builtin", "compensated"])
def test_means_are_added_left_to_right_on_every_python(tmp_path, monkeypatch, summation):
    # with 3.12's `sum()` in place of the builtin, the means must not move
    if summation == "compensated":
        for module in (analysis, cli):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.setenv("DYNAFOREST_WORKERS", "1")
    contacts = tmp_path / "contacts.txt"
    contacts.write_text(UNEVEN_CONTACTS)
    out = tmp_path / "out"
    argv = ["run", "--adversary", "trace", "--no-lazy", "--seeds", "0-1",
            "--trace-file", str(contacts), "--out", str(out)]
    assert main(argv) == 0
    assert (out / "aggregate.csv").read_text() == UNEVEN_AGGREGATE


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
    out = tmp_path_factory.mktemp("out")
    config = cli.RunConfig(
        nodes=nodes, p_birth=p, p_death=p, rounds=rounds, lazy=lazy, out=str(out)
    )
    result = cli.run_one_seed(config, seed)
    path = out / f"trace_seed{seed}.txt"
    metrics_lines = (out / f"metrics_seed{seed}.csv").read_text().splitlines()
    assert metrics_lines == list(analysis.round_csv_lines(result.summary))
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
