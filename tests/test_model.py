import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynaforest.model import (
    Action,
    Configuration,
    EvolvingGraph,
    NodeState,
    Status,
    make_edge,
    make_edge_set,
)
from dynaforest import analysis, cli, engine, topology


def make_state(
    nid, status=Status.T, parent=None, children=(), score=None, action=Action.HELLO, target=None
):
    """Hand-built node state with sensible defaults for the untouched fields."""
    score = nid if score is None else score
    return NodeState(nid, status, parent, frozenset(children), score, action, target)


def make_config(round_index, states):
    return Configuration(round=round_index, states={s.id: s for s in states})


class TestEdges:
    def test_canonical_order(self):
        assert make_edge(2, 8) == (2, 8)
        assert make_edge(8, 2) == (2, 8)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_edge(3, 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            make_edge(0, 3)

    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)).filter(lambda p: p[0] != p[1])))
    def test_edge_set_insensitive_to_pair_order(self, pairs):
        flipped = [(v, u) for u, v in pairs]
        assert make_edge_set(pairs) == make_edge_set(flipped)


class TestMessageInvariants:
    """The pending action's checks, made where the state is built.  Which
    status a message announces is `node_step`'s rule, tested in
    `test_protocol.TestChooseContender`."""

    def test_hello_carries_no_target(self):
        with pytest.raises(ValueError, match="HELLO messages carry no target"):
            make_state(1, target=2)
        make_state(1, status=Status.N, parent=2)  # either status is fine

    def test_flip_needs_target(self):
        for action in (Action.FLIP, Action.SELECT):
            with pytest.raises(ValueError, match="need a target"):
                make_state(1, action=action)

    def test_no_self_target(self):
        for action in (Action.FLIP, Action.SELECT):
            with pytest.raises(ValueError, match="never targets itself"):
                make_state(1, action=action, target=1)

    @pytest.mark.parametrize("score", [0, -4])
    def test_score_must_be_positive(self, score):
        with pytest.raises(ValueError, match="score must be positive"):
            make_state(1, score=score)


class TestNodeStateInvariants:
    def test_parent_cannot_be_child(self):
        with pytest.raises(ValueError):
            make_state(1, status=Status.N, parent=2, children={2})

    def test_parent_cannot_be_self(self):
        with pytest.raises(ValueError):
            make_state(1, status=Status.N, parent=1)

    def test_holds_only_what_next_round_reads(self):
        names = [f.name for f in dataclasses.fields(NodeState)]
        assert names == ["id", "status", "parent", "children", "score", "action", "target"]

    def test_configuration_key_must_match_state(self):
        with pytest.raises(ValueError):
            Configuration(round=0, states={2: make_state(1)})

    def test_node_id_must_be_positive(self):
        with pytest.raises(ValueError, match="node id must be positive, got 0"):
            make_state(0, score=1)

    def test_configuration_round_cannot_be_negative(self):
        with pytest.raises(ValueError, match="round index cannot be negative"):
            make_config(-1, [make_state(1)])


class TestResultingForest:
    """The pseudoforest a round leaves: parent arcs whose edge is in E_i.

    `check_graph_consistency` reports every parent arc without its edge, and
    `check_correct_forest` certifies the arcs that have one.
    """

    def test_initial_configuration_has_no_arcs(self):
        config = engine.initial_configuration([1, 2, 3])
        edges = make_edge_set([(1, 2), (2, 3)])
        assert all(st.parent is None for st in config.states.values())
        assert analysis.check_graph_consistency(config, edges) == []
        assert analysis.check_correct_forest(config, edges) == []

    def test_direct_construction(self):
        config = make_config(
            1, [make_state(2, status=Status.N, parent=8), make_state(8, children={2})]
        )
        edges = make_edge_set([(2, 8)])
        assert analysis.check_graph_consistency(config, edges) == []
        assert analysis.check_correct_forest(config, edges) == []

    def test_dangling_arc_reported_not_dropped(self):
        config = make_config(
            1, [make_state(2, status=Status.N, parent=8), make_state(8, children={2})]
        )
        violations = analysis.check_graph_consistency(config, frozenset())
        assert [v.detail for v in violations] == [
            "node 2 has parent 8 but edge {2,8} is absent"
        ]

    def test_matches_independent_scan_after_random_run(self):
        # Independent oracle: a second, naive scan over raw parent variables.
        params = topology.EdgeMarkovParams(n=12, p_birth=0.25, p_death=0.25, seed=3)
        graph = topology.edge_markov(params)
        for i, edges, config in engine.iter_run(graph, rounds=50, seed=3):
            dangling = [
                (nid, st.parent)
                for nid, st in config.states.items()
                if st.parent is not None
                and (min(nid, st.parent), max(nid, st.parent)) not in edges
            ]
            assert dangling == []
            assert analysis.check_graph_consistency(config, edges) == []

    def test_every_vertex_has_outdegree_at_most_one(self):
        config = make_config(
            1,
            [
                make_state(1, status=Status.N, parent=3),
                make_state(2, status=Status.N, parent=3),
                make_state(3, children={1, 2}),
            ],
        )
        arcs = [(u, st.parent) for u, st in config.states.items() if st.parent is not None]
        children = [child for child, _ in arcs]
        assert len(children) == len(set(children))
        assert analysis.check_correct_forest(config, make_edge_set([(1, 3), (2, 3)])) == []


class TestForeignEndpoint:
    """A stray edge endpoint reads the same wherever an edge set is read."""

    @settings(max_examples=80, deadline=None)
    @given(
        vertices=st.frozensets(st.integers(1, 8), min_size=1),
        stray=st.tuples(st.integers(1, 12), st.integers(9, 12)).filter(lambda e: e[0] != e[1]),
        others=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=10),
        quiet=st.integers(0, 2),
    )
    def test_every_reader_gives_the_same_text(self, vertices, stray, others, quiet):
        edges = make_edge_set(e for e in [stray, *others] if e[0] != e[1])
        # the reference: the smallest stray edge, and its first endpoint outside V
        u, v = min(e for e in edges if not set(e) <= vertices)
        outside = u if u not in vertices else v
        text = f"edge {{{u},{v}}} endpoint {outside} is not in the vertex set"
        # `quiet` empty rounds come first, so each prefix counts to the stray round
        schedule = [frozenset()] * quiet + [edges]

        with pytest.raises(ValueError) as scripted:
            topology.scripted(vertices, schedule)
        assert str(scripted.value) == f"schedule entry {quiet}: {text}"

        graph = EvolvingGraph(vertices, lambda i: schedule[i - 1])
        with pytest.raises(engine.EngineError) as engine_run:
            for _ in engine.iter_run(graph, quiet + 1, seed=0):
                pass
        assert str(engine_run.value) == f"round {quiet + 1}: {text}"

        try:  # the metrics stop at the first edge that leaves V one component
            assert analysis.component_count(vertices, edges) == 1
        except ValueError as exc:
            assert str(exc) == text

        initial = engine.initial_configuration(vertices)
        lines = cli.trace_header(vertices, 0, False, {})
        for es in schedule:
            lines += cli.trace_round_lines(es, initial)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(cli.TraceFormatError) as check:
                for _ in cli.read_trace_file(path):
                    pass
        assert str(check.value) == f"{path}: line {6 + 2 * quiet}: {text}"
