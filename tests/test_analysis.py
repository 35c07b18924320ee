import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynaforest import analysis, engine, model, topology
from dynaforest.analysis import (
    MetricsAccumulator,
    ViolationKind,
    check_correct_forest,
    check_forest_consistency,
    check_graph_consistency,
    check_score_permutation,
    check_state_consistency,
    component_count,
    run_all_checks,
    trees_per_component,
)
from dynaforest.model import Configuration, EvolvingGraph, Status, make_edge_set
from dynaforest.topology import ContactRecord

from test_golden import corrupted_configurations
from test_model import make_config, make_state


def initial(n):
    return engine.initial_configuration(range(1, n + 1))


class TestForestConsistency:
    def test_initial_configuration_clean(self):
        assert check_forest_consistency(initial(5)) == []

    def test_missing_child_entry_flagged(self):
        config = make_config(
            1, [make_state(1, status=Status.N, parent=2), make_state(2)]
        )
        violations = check_forest_consistency(config)
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.ForestConsistency
        assert "1" in violations[0].detail and "2" in violations[0].detail

    def test_stale_child_entry_flagged(self):
        config = make_config(1, [make_state(1, children={2}), make_state(2)])
        violations = check_forest_consistency(config)
        assert len(violations) == 1

    def test_clean_over_churny_run(self):
        params = topology.EdgeMarkovParams(n=12, p_birth=0.3, p_death=0.3, seed=1)
        for i, edges, config in engine.iter_run(topology.edge_markov(params), 1000, seed=1):
            assert check_forest_consistency(config) == []


class TestGraphConsistency:
    def test_initial_configuration_clean_with_any_edges(self):
        assert check_graph_consistency(initial(4), make_edge_set([(1, 2)])) == []

    def test_parent_without_edge_flagged(self):
        config = make_config(
            1, [make_state(1, status=Status.N, parent=2), make_state(2, children={1})]
        )
        violations = check_graph_consistency(config, frozenset())
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.GraphConsistency

    def test_clean_when_edges_vanish_every_round(self):
        # alternately present and absent edges force constant regeneration
        vertices = range(1, 7)
        busy = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        schedule = [busy, [], [(1, 3), (2, 5)], [], busy, []]
        graph = topology.scripted(vertices, schedule)
        for i, edges, config in engine.iter_run(graph, rounds=12, seed=0):
            assert check_graph_consistency(config, edges) == []


class TestStateConsistency:
    def test_initial_clean(self):
        assert check_state_consistency(initial(3)) == []

    def test_token_with_parent_flagged(self):
        bad = make_state(1, status=Status.T, parent=7)
        config = make_config(1, [bad, make_state(7, children={1})])
        violations = check_state_consistency(config)
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.StateConsistency

    def test_clean_over_run(self):
        params = topology.EdgeMarkovParams(n=10, p_birth=0.5, p_death=0.5, seed=3)
        for i, edges, config in engine.iter_run(topology.edge_markov(params), 500, seed=3):
            assert check_state_consistency(config) == []


class TestScorePermutation:
    def test_initial_clean(self):
        assert check_score_permutation(initial(6)) == []

    def test_duplicate_score_flagged(self):
        config = make_config(1, [make_state(1, score=5), make_state(5, score=5)])
        violations = check_score_permutation(config)
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.ScorePermutation
        assert "5" in violations[0].detail

    def test_clean_over_long_run(self):
        params = topology.EdgeMarkovParams(n=50, p_birth=0.2, p_death=0.2, seed=5)
        for i, edges, config in engine.iter_run(topology.edge_markov(params), 5000, seed=5):
            assert check_score_permutation(config) == []


def brute_force_components(vertices, edges):
    """Components of (vertices, edges) by repeatedly merging overlapping
    reachability sets: the transitive-closure oracle."""
    closure = {u: {u} for u in vertices}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            union = closure[u] | closure[v]
            if union != closure[u] or union != closure[v]:
                for w in union:
                    closure[w] = union
                changed = True
    return {frozenset(s) for s in closure.values()}


class TestCorrectForest:
    def test_initial_clean(self):
        assert check_correct_forest(initial(5), frozenset()) == []

    def test_three_cycle_flagged(self):
        config = make_config(
            1,
            [
                make_state(1, status=Status.N, parent=2, children={3}),
                make_state(2, status=Status.N, parent=3, children={1}),
                make_state(3, status=Status.N, parent=1, children={2}),
            ],
        )
        edges = make_edge_set([(1, 2), (2, 3), (1, 3)])
        kinds = {v.kind for v in check_correct_forest(config, edges)}
        assert ViolationKind.CyclicPseudotree in kinds
        assert ViolationKind.MultiRootPseudotree in kinds

    def test_arc_to_a_non_vertex_is_ignored(self):
        # node 1's parent 99 is no vertex (ForestConsistency reports it); the
        # forest check treats node 1 as a root, also next to a cycle
        def config(parent_of_1):
            return make_config(
                1,
                [
                    make_state(1, status=Status.N, parent=parent_of_1, children={4}),
                    make_state(2, status=Status.N, parent=3),
                    make_state(3, status=Status.N, parent=2),
                    make_state(4, status=Status.N, parent=1),
                ],
            )

        edges = make_edge_set([(1, 99), (2, 3), (1, 4)])
        violations = check_correct_forest(config(99), edges)
        assert violations == check_correct_forest(config(None), edges)
        assert [v.kind for v in violations] == [
            ViolationKind.MultiRootPseudotree,
            ViolationKind.CyclicPseudotree,
            ViolationKind.CyclicPseudotree,
        ]
        assert check_correct_forest(config(99), edges - {(2, 3)}) == []

    def test_violations_match_brute_force_root_count(self):
        rng = random.Random(1410)
        violating = 0
        for _ in range(2000):
            n = rng.randint(1, 9)
            ids = list(range(1, n + 1))
            parent = {u: rng.choice([None, *(v for v in ids if v != u)]) for u in ids}
            config = make_config(
                1, [make_state(u, status=Status.N, parent=p) for u, p in parent.items()]
            )
            # an arc whose edge is absent is no arc of the pseudoforest
            pointers = [(u, p) for u, p in parent.items() if p is not None]
            edges = make_edge_set(e for e in pointers if rng.random() < 0.9)
            arcs = {u: p for u, p in pointers if model.make_edge(u, p) in edges}
            expected = []
            for part in sorted(brute_force_components(ids, arcs.items()), key=min):
                roots = sorted(u for u in part if u not in arcs)
                if len(roots) != 1:
                    expected.append(
                        (
                            ViolationKind.MultiRootPseudotree,
                            f"pseudotree of nodes {sorted(part)} has {len(roots)} roots {roots}",
                        )
                    )
            for u in ids:
                cur = u
                for _ in range(n):
                    cur = arcs.get(cur, cur)
                if cur in arcs:
                    expected.append(
                        (
                            ViolationKind.CyclicPseudotree,
                            f"parent chain from node {u} never reaches a root",
                        )
                    )
            got = [(v.kind, v.detail) for v in check_correct_forest(config, edges)]
            assert got == expected
            violating += bool(expected)
        assert violating > 200

    def test_clean_under_adversarial_resampling(self):
        rng = random.Random(13)
        vertices = list(range(1, 15))
        pairs = list(itertools.combinations(vertices, 2))
        schedule = [
            [p for p in pairs if rng.random() < rng.choice([0.05, 0.3, 0.8])]
            for _ in range(200)
        ]
        graph = topology.scripted(vertices, schedule)
        for i, edges, config in engine.iter_run(graph, rounds=200, seed=13):
            assert check_correct_forest(config, edges) == []

    def test_empty_output_implies_acyclic_parent_graph(self):
        params = topology.EdgeMarkovParams(n=12, p_birth=0.4, p_death=0.4, seed=8)
        for i, edges, config in engine.iter_run(topology.edge_markov(params), 300, seed=8):
            assert check_correct_forest(config, edges) == []
            # independent acyclicity scan over raw parent pointers
            for start in config.states:
                seen = set()
                cur = start
                while config.states[cur].parent is not None:
                    assert cur not in seen
                    seen.add(cur)
                    cur = config.states[cur].parent


class TestConnectedComponents:
    """`component_count` against hand-counted graphs and brute force."""

    def test_no_edges_all_singletons(self):
        assert component_count([1, 2, 3, 4], frozenset()) == 4

    def test_path_plus_isolated(self):
        assert component_count([1, 2, 3, 4], make_edge_set([(1, 2), (2, 3)])) == 2

    def test_empty_vertex_set_has_no_component(self):
        assert component_count([], frozenset()) == 0

    def test_matches_transitive_closure_oracle(self):
        # dense graphs become one component before their last edge, so the
        # count stops early in many of them
        rng = random.Random(2024)
        stopped_early = 0
        for density in [k / 10 for k in range(11)]:
            for _ in range(60):
                n = rng.randint(1, 12)
                vertices = rng.sample(range(1, 40), n)
                pairs = list(itertools.combinations(vertices, 2))
                edges = make_edge_set(p for p in pairs if rng.random() < density)
                expected = len(brute_force_components(vertices, edges))
                unread = iter(list(edges))
                assert component_count(vertices, unread) == expected
                stopped_early += any(True for _ in unread)
        assert stopped_early > 200

    def test_foreign_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint 9 is not in the vertex set"):
            component_count([1, 2], make_edge_set([(1, 9)]))

    def test_foreign_endpoint_rejected_while_disconnected(self):
        # V never becomes one component, so every edge is looked at
        with pytest.raises(ValueError, match="endpoint 9 is not in the vertex set"):
            component_count([1, 2, 3], make_edge_set([(1, 2), (2, 9)]))


class TestTreesPerComponent:
    def test_initial_isolated_nodes_are_optimal(self):
        metrics = trees_per_component(initial(5), frozenset())
        assert metrics == (5, 5, 1.0)

    def test_single_tree_single_component_is_optimal(self):
        config = make_config(
            1, [make_state(1, children={2}), make_state(2, status=Status.N, parent=1)]
        )
        assert trees_per_component(config, make_edge_set([(1, 2)])).ratio == 1.0

    def test_two_counting_paths_agree_mid_run(self):
        params = topology.EdgeMarkovParams(n=14, p_birth=0.3, p_death=0.3, seed=21)
        for i, edges, config in engine.iter_run(topology.edge_markov(params), 200, seed=21):
            metrics = trees_per_component(config, edges)
            # nodes whose parent pointer is an arc of the resulting forest
            with_arc = {
                u
                for u, st in config.states.items()
                if st.parent is not None and model.make_edge(u, st.parent) in edges
            }
            roots = len(config.states) - len(with_arc)
            assert metrics.trees == roots


def run_summary(graph, rounds, seed):
    acc = MetricsAccumulator()
    for i, edges, config in engine.iter_run(graph, rounds, seed):
        acc(i, edges, config)
    return acc.summary()


class TestSummaries:
    def test_single_round_empty_edges(self):
        graph = topology.scripted([1, 2, 3], [[]])
        summary = run_summary(graph, rounds=1, seed=0)
        assert summary.mean_trees_per_component == 1.0
        assert summary.fraction_optimal_rounds == 1.0

    def test_alternating_ratio_arithmetic(self):
        acc = MetricsAccumulator()
        acc.per_round = [
            analysis.RoundMetrics(1, 1, 1.0),
            analysis.RoundMetrics(1, 2, 2.0),
            analysis.RoundMetrics(1, 1, 1.0),
            analysis.RoundMetrics(1, 2, 2.0),
        ]
        summary = acc.summary()
        assert summary.mean_trees_per_component == 1.5
        assert summary.fraction_optimal_rounds == 0.5

    def test_csv_shapes(self):
        graph = topology.scripted([1, 2], [[(1, 2)]])
        summary = run_summary(graph, rounds=3, seed=0)
        lines = analysis.round_csv_lines(summary)
        assert lines[0] == "round,components,trees,ratio"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        agg = analysis.aggregate_csv_lines([(0, summary)])
        assert agg[0] == "seed,meanTreesPerComponent,fractionOptimalRounds"
        assert agg[1].startswith("0,")

    def test_accumulator_matches_fresh_metrics_over_repeated_edge_sets(self, monkeypatch):
        walked = []

        class Edges(frozenset):
            """An edge set that records each pass over its edges."""

            def __iter__(self):
                walked.append(self)
                return super().__iter__()

        a = Edges(make_edge_set([(1, 2), (3, 4)]))
        b = Edges(make_edge_set([(1, 2), (2, 3), (3, 4)]))
        # same-object repeats, equal-but-distinct sets, and real changes
        schedule = [a, a, Edges(a), b, b, a, Edges(b), b, b]
        graph = EvolvingGraph(frozenset({1, 2, 3, 4, 5}), lambda i: schedule[i - 1])
        built = []
        real_adjacency = model.adjacency

        def counting_adjacency(vertices, edges):
            built.append(edges)
            return real_adjacency(vertices, edges)

        monkeypatch.setattr(engine, "adjacency", counting_adjacency)
        acc = MetricsAccumulator()
        builds, walks = [], []
        walked.clear()
        for i, edges, config in engine.iter_run(graph, len(schedule), seed=4):
            acc(i, edges, config)
            builds.append(len(built))
            walks.append(list(walked))
            assert acc.per_round[-1] == trees_per_component(config, edges)
            built.clear()
            walked.clear()
        # the engine builds its adjacency when E_i differs from E_(i-1)
        differs = [True, False, False, True, False, True, True, False, False]
        assert builds == [int(d) for d in differs]
        # the metrics walk each new edge-set object once, and a repeated
        # object not at all
        new_object = [True, False, True, True, False, True, True, True, False]
        assert [len(w) for w in walks] == [d + n for d, n in zip(differs, new_object)]
        assert all(e is edges for w, edges in zip(walks, schedule) for e in w)
        # a round with the previous round's metrics stores the same record
        for before, after in zip(acc.per_round, acc.per_round[1:]):
            assert (after is before) == (after == before)


class TestCheckerHook:
    """`run_all_checks` on every round of a run, as `cli run` attaches it."""

    def test_clean_run_passes(self):
        graph = topology.scripted([1, 2, 3], [[(1, 2), (2, 3)]])
        for i, edges, config in engine.iter_run(graph, rounds=20, seed=0):
            assert run_all_checks(config, edges) == []

    def test_all_checks_combined(self):
        config = make_config(
            1, [make_state(1, status=Status.T, parent=None, score=2), make_state(2, score=2)]
        )
        kinds = {v.kind for v in run_all_checks(config, frozenset())}
        assert ViolationKind.ScorePermutation in kinds


def contact_graph(seed, n=20, contacts=40, seconds=60):
    """A contact trace at 10 rounds/s: random pairs meeting over random intervals."""
    rng = random.Random(seed)
    records = []
    for _ in range(contacts):
        a, b = rng.sample(range(1, n + 1), 2)
        start = rng.randrange(seconds)
        records.append(ContactRecord(a, b, start, start + rng.randint(1, seconds)))
    return topology.parse_contact_trace(records, 10)


def five_checkers_clean(config, edges):
    """The verdict of the five checkers, each run on its own."""
    return not (
        check_forest_consistency(config)
        or check_graph_consistency(config, edges)
        or check_state_consistency(config)
        or check_score_permutation(config)
        or check_correct_forest(config, edges)
    )


def _edit_parent(states, edges, u, v):
    states[u] = dataclasses.replace(states[u], parent=v)


def _edit_children(states, edges, u, v):
    children = states[u].children
    states[u] = dataclasses.replace(
        states[u], children=children - {v} if v in children else children | {v}
    )


def _edit_score(states, edges, u, v):
    states[u] = dataclasses.replace(states[u], score=v)


def _edit_status(states, edges, u, v):
    flipped = Status.N if states[u].status is Status.T else Status.T
    states[u] = dataclasses.replace(states[u], status=flipped)


def _edit_edge(states, edges, u, v):
    edges ^= {(min(u, v), max(u, v))}


def _rewire(states, edges, u, v):
    """Move u under v with every entry kept consistent: a cycle when v descends from u."""
    old = states[u].parent
    if old in states:
        states[old] = dataclasses.replace(states[old], children=states[old].children - {u})
    states[u] = dataclasses.replace(states[u], status=Status.N, parent=v)
    states[v] = dataclasses.replace(states[v], children=states[v].children | {u})
    edges.add((min(u, v), max(u, v)))


def _close_cycle(states, edges, u, v):
    """Rewire u under a node two or more arcs below it: a cycle through u."""
    below, depth = u, 0
    while depth < len(states):
        arcs = [c for c in states[below].children if states.get(c) and states[c].parent == below]
        if not arcs:
            break
        below, depth = min(arcs), depth + 1
    if depth >= 2:
        _rewire(states, edges, u, below)


EDITS = (
    _edit_parent, _edit_children, _edit_score, _edit_status, _edit_edge, _rewire, _close_cycle
)


class TestCertified:
    """`_certified` holds exactly when the five checkers all return []."""

    @pytest.mark.parametrize(
        "graph",
        [
            topology.edge_markov(topology.EdgeMarkovParams(12, 0.3, 0.3, seed=3)),
            topology.edge_markov(topology.EdgeMarkovParams(30, 0.02, 0.2, seed=4)),
            contact_graph(5),
        ],
        ids=["edge-markov-churny", "edge-markov-sparse", "contacts"],
    )
    def test_every_round_of_a_run(self, graph):
        for lazy in (False, True):
            for i, edges, config in engine.iter_run(graph, 400, seed=9, lazy=lazy):
                assert analysis._certified(config, edges)
                assert five_checkers_clean(config, edges)

    def test_golden_corrupted_corpus(self):
        verdicts = []
        for config, edges in corrupted_configurations():
            verdict = analysis._certified(config, edges)
            assert verdict == five_checkers_clean(config, edges)
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 9),
        rounds=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        edits=st.lists(
            st.tuples(st.sampled_from(EDITS), st.integers(0, 10), st.integers(-1, 11)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_edited_engine_configuration(self, n, rounds, seed, edits):
        graph = topology.edge_markov(topology.EdgeMarkovParams(n, 0.3, 0.05, seed=seed))
        *_, (i, edges, config) = engine.iter_run(graph, rounds, seed)
        states, edge_list = dict(config.states), set(edges)
        for edit, a, b in edits:
            # a names a node; b a node, no node (-1) or an id outside V (n + 1 and up)
            u = a % n + 1
            v = None if b < 0 else b + 1
            if edit in (_edit_edge, _rewire) and v not in states:
                continue
            if edit in (_edit_children, _edit_score) and v is None:
                continue
            try:
                edit(states, edge_list, u, v)
            except ValueError:  # a state NodeState refuses, such as a child as parent
                assume(False)
        config = Configuration(round=i, states=states)
        edges = frozenset(edge_list)
        assert analysis._certified(config, edges) == five_checkers_clean(config, edges)
