import dataclasses

import pytest
from hypothesis import given, strategies as st

from dynaforest.model import (
    Action,
    Configuration,
    Message,
    NodeState,
    Status,
    make_edge,
    make_edge_set,
)
from dynaforest import analysis, engine, topology


def make_state(nid, status=Status.T, parent=None, children=(), score=None, out_message=None):
    """Hand-built node state with sensible defaults for the untouched fields."""
    score = nid if score is None else score
    if out_message is None:
        out_message = Message(nid, status, Action.HELLO, None, score)
    return NodeState(
        id=nid,
        status=status,
        parent=parent,
        children=frozenset(children),
        score=score,
        out_message=out_message,
    )


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
    def test_select_announces_n(self):
        with pytest.raises(ValueError):
            Message(1, Status.T, Action.SELECT, 2, 1)

    def test_flip_announces_t(self):
        with pytest.raises(ValueError):
            Message(1, Status.N, Action.FLIP, 2, 1)

    def test_hello_carries_no_target(self):
        with pytest.raises(ValueError):
            Message(1, Status.T, Action.HELLO, 2, 1)
        Message(1, Status.N, Action.HELLO, None, 1)  # either status is fine

    def test_flip_needs_target(self):
        with pytest.raises(ValueError):
            Message(1, Status.T, Action.FLIP, None, 1)

    def test_no_self_target(self):
        with pytest.raises(ValueError):
            Message(1, Status.N, Action.SELECT, 1, 1)


class TestNodeStateInvariants:
    def test_parent_cannot_be_child(self):
        with pytest.raises(ValueError):
            make_state(1, status=Status.N, parent=2, children={2})

    def test_parent_cannot_be_self(self):
        with pytest.raises(ValueError):
            make_state(1, status=Status.N, parent=1)

    def test_holds_only_what_next_round_reads(self):
        names = [f.name for f in dataclasses.fields(NodeState)]
        assert names == ["id", "status", "parent", "children", "score", "out_message"]

    def test_configuration_key_must_match_state(self):
        with pytest.raises(ValueError):
            Configuration(round=0, states={2: make_state(1)})


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
