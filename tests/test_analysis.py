import itertools
import random

import pytest

from dynaforest import analysis, engine, model, topology
from dynaforest.analysis import (
    MetricsAccumulator,
    ViolationKind,
    check_correct_forest,
    check_forest_consistency,
    check_graph_consistency,
    check_score_permutation,
    check_state_consistency,
    connected_components,
    run_all_checks,
    trees_per_component,
)
from dynaforest.model import EvolvingGraph, Status, make_edge_set

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
    def test_no_edges_all_singletons(self):
        parts = connected_components([1, 2, 3, 4], frozenset())
        assert parts == (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}))

    def test_path_plus_isolated(self):
        parts = connected_components([1, 2, 3, 4], make_edge_set([(1, 2), (2, 3)]))
        assert parts == (frozenset({1, 2, 3}), frozenset({4}))

    def test_matches_transitive_closure_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 8)
            vertices = list(range(1, n + 1))
            pairs = list(itertools.combinations(vertices, 2))
            edges = make_edge_set(p for p in pairs if rng.random() < 0.3)
            # brute force: repeatedly merge overlapping reachability sets
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
            expected = {frozenset(s) for s in closure.values()}
            assert set(connected_components(vertices, edges)) == expected

    def test_foreign_endpoint_rejected(self):
        with pytest.raises(ValueError):
            connected_components([1, 2], make_edge_set([(1, 9)]))


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

        # the one adjacency builder, as the engine and the metrics call it
        monkeypatch.setattr(engine, "adjacency", counting_adjacency)
        monkeypatch.setattr(analysis, "adjacency", counting_adjacency)
        acc = MetricsAccumulator()
        calls, walks = [], []
        walked.clear()
        for i, edges, config in engine.iter_run(graph, len(schedule), seed=4):
            acc(i, edges, config)
            calls.append(len(built))
            walks.append(list(walked))
            assert acc.per_round[-1] == trees_per_component(config, edges)
            built.clear()
            walked.clear()
        # engine and metrics together walk E_i once when the edge-set object
        # changes, and not at all when it repeats
        changed = [True, False, True, True, False, True, True, True, False]
        assert [len(w) for w in walks] == [1 if new else 0 for new in changed]
        assert all(w[0] is edges for w, edges in zip(walks, schedule) if w)
        # the engine builds when E_i differs from E_(i-1), and the metrics ask
        # whenever the object changes; a second call in a round hits the memo
        assert calls == [2, 0, 1, 2, 0, 2, 2, 1, 0]
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
