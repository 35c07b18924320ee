import pytest

from dynaforest import analysis, engine, model, topology
from dynaforest.engine import EngineError, initial_configuration, make_node_rngs, run_round
from dynaforest.model import Action, EvolvingGraph, Status, make_edge, make_edge_set


def static_graph(n, edges):
    return topology.scripted(range(1, n + 1), [edges])


def run_history(graph, rounds, seed, lazy=False):
    """C_0..C_rounds and E_1..E_rounds of one `iter_run`."""
    configurations = [initial_configuration(graph.vertices)]
    edge_sets = []
    for _, edges, config in engine.iter_run(graph, rounds, seed, lazy):
        configurations.append(config)
        edge_sets.append(edges)
    return configurations, edge_sets


class TestRunRound:
    def test_two_roots_merge_over_stable_edge(self):
        graph = static_graph(8, [(2, 8)])
        _, c1, c2 = run_history(graph, rounds=2, seed=0)[0]
        assert c1.states[2].out_message.action is Action.SELECT
        assert c1.states[2].out_message.target == 8
        assert c2.states[2].parent == 8 and c2.states[2].status is Status.N
        assert 2 in c2.states[8].children

    def test_select_cancelled_when_edge_vanishes(self):
        graph = topology.scripted([2, 8], [[(2, 8)], []])
        c2 = run_history(graph, rounds=2, seed=0)[0][2]
        assert c2.states[2].status is Status.T and c2.states[2].parent is None
        assert c2.states[8].children == frozenset()

    def test_empty_edge_set_only_refreshes_neighbors(self):
        # isolated roots hear nothing and change nothing
        config = initial_configuration([1, 2, 3])
        rngs = make_node_rngs(0, [1, 2, 3])
        after = run_round(config, frozenset(), rngs)
        assert after.round == 1
        assert after.states == config.states

    def test_triangle_of_roots_selects_into_star(self):
        # hand-executed oracle on ids 1 < 4 < 8, all mutually visible
        graph = static_graph(8, [(1, 4), (1, 8), (4, 8)])
        _, c1, c2 = run_history(graph, rounds=2, seed=0)[0]
        assert c1.states[1].out_message.target == 8
        assert c1.states[4].out_message.target == 8
        assert c2.states[1].parent == 8 and c2.states[4].parent == 8
        assert c2.states[8].children == frozenset({1, 4})

    def test_edge_endpoint_outside_vertices_aborts(self):
        config = initial_configuration([1, 2])
        rngs = make_node_rngs(0, [1, 2])
        with pytest.raises(EngineError, match="endpoint 9"):
            run_round(config, make_edge_set([(1, 9)]), rngs)


class TestRun:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            next(engine.iter_run(static_graph(3, []), rounds=0, seed=0))

    def test_one_round_gives_two_configurations(self):
        configurations, edge_sets = run_history(static_graph(3, []), rounds=1, seed=0)
        assert len(configurations) == 2
        assert len(edge_sets) == 1

    def test_identical_inputs_give_identical_traces(self):
        params = topology.EdgeMarkovParams(n=15, p_birth=0.3, p_death=0.3, seed=9)
        t1 = run_history(topology.edge_markov(params), rounds=60, seed=9, lazy=True)
        t2 = run_history(topology.edge_markov(params), rounds=60, seed=9, lazy=True)
        assert t1 == t2

    def test_iter_run_yields_every_round(self):
        seen = [(i, c.round) for i, _, c in engine.iter_run(static_graph(4, [(1, 2)]), 5, 0)]
        assert seen == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]

    def test_complete_graph_converges_to_single_root(self):
        n = 8
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        configurations, edge_sets = run_history(static_graph(n, edges), 200, seed=5, lazy=True)
        final = configurations[-1]
        roots = [u for u, st in final.states.items() if st.status is Status.T]
        assert len(roots) == 1
        for i, e in enumerate(edge_sets, start=1):
            assert analysis.run_all_checks(configurations[i], e) == []


class TestRoundProperties:
    def test_reciprocity_neighbor_sets_mirror_edges(self, monkeypatch):
        delivered = {}
        real_step = engine.node_step

        def recording_step(prev, received, *args):
            delivered[prev.id] = list(received)
            return real_step(prev, received, *args)

        monkeypatch.setattr(engine, "node_step", recording_step)
        # at p = 0.4 every node is stepped in nearly every round; at p = 0.1
        # (seed 2) some rounds skip nodes
        for p, seed in ((0.4, 2), (0.1, 2)):
            params = topology.EdgeMarkovParams(n=10, p_birth=p, p_death=p, seed=seed)
            graph = topology.edge_markov(params)
            before = initial_configuration(graph.vertices)
            skipping_rounds = 0
            for i, edges, config in engine.iter_run(graph, rounds=40, seed=seed):
                neighbors = {u: set() for u in config.states}
                for u, v in edges:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
                assert delivered.keys() <= config.states.keys()
                for u, received in delivered.items():
                    senders = [m.sender for m in received]
                    # exactly one message per edge endpoint, from each neighbor in E_i
                    assert len(senders) == len(set(senders))
                    assert set(senders) == neighbors[u]
                    # each is the message the sender prepared in the previous round
                    assert all(m == before.states[m.sender].out_message for m in received)
                # a node that was not stepped keeps its state object
                for u in config.states.keys() - delivered.keys():
                    assert config.states[u] is before.states[u]
                skipping_rounds += len(delivered) < len(config.states)
                before = config
                delivered.clear()
            if p == 0.1:
                assert skipping_rounds > 0  # the run exercised skipped nodes

    def test_flip_receiver_never_commits_own_flip_or_select(self):
        # spans two nodes, so asserted at engine level over a churny run
        params = topology.EdgeMarkovParams(n=16, p_birth=0.35, p_death=0.35, seed=4)
        graph = topology.edge_markov(params)
        configurations, edge_sets = run_history(graph, rounds=300, seed=4)
        for i, edges in enumerate(edge_sets, start=1):
            before = configurations[i - 1]
            for u, st in before.states.items():
                out = st.out_message
                if out.action is Action.HELLO:
                    continue
                sent_successfully = make_edge(u, out.target) in edges
                got_flip = any(
                    other.out_message.action is Action.FLIP
                    and other.out_message.target == u
                    and make_edge(v, u) in edges
                    for v, other in before.states.items()
                    if v != u
                )
                assert not (sent_successfully and got_flip)

    def test_score_swap_on_successful_flips(self):
        params = topology.EdgeMarkovParams(n=16, p_birth=0.3, p_death=0.3, seed=6)
        configurations, edge_sets = run_history(topology.edge_markov(params), 200, seed=6)
        swaps = 0
        for i, edges in enumerate(edge_sets, start=1):
            before, after = configurations[i - 1], configurations[i]
            for u, st in before.states.items():
                out = st.out_message
                if out.action is not Action.FLIP or make_edge(u, out.target) not in edges:
                    continue
                v = out.target
                pair_before = (st.score, before.states[v].score)
                assert after.states[u].score == min(pair_before)
                assert after.states[v].score == max(pair_before)
                swaps += 1
        assert swaps > 50  # the run actually exercised circulation


class TestDeltaRounds:
    @pytest.mark.parametrize("lazy, rounds", [(True, 3000), (False, 1500)])
    def test_long_sparse_run_matches_full_rounds(self, monkeypatch, lazy, rounds):
        # 78 nodes at the criterion-5 mean degree 1.3, edges that live about
        # 1000 rounds: from an empty graph, long quiet stretches alternate
        # with edge changes
        p_death, density = 1e-3, 1.3 / 77
        params = topology.EdgeMarkovParams(
            n=78, p_birth=p_death * density / (1 - density), p_death=p_death, seed=5
        )
        graph = topology.edge_markov(params)
        steps = [0]
        real_step = engine.node_step

        def counting_step(*args):
            steps[0] += 1
            return real_step(*args)

        monkeypatch.setattr(engine, "node_step", counting_step)
        full = initial_configuration(graph.vertices)
        rngs = make_node_rngs(11, graph.vertices)
        delta_steps = 0
        for i, edges, config in engine.iter_run(graph, rounds, seed=11, lazy=lazy):
            delta_steps += steps[0]
            full = run_round(full, edges, rngs, lazy)
            assert config == full, f"round {i}"
            steps[0] = 0
        assert delta_steps < 78 * rounds / 2  # quiet nodes were really skipped

    def test_unchanged_node_keeps_its_state_object(self):
        graph = static_graph(5, [(1, 2)])
        configs = [c for _, _, c in engine.iter_run(graph, rounds=6, seed=0)]
        for before, after in zip(configs, configs[1:]):
            for u in (3, 4, 5):  # isolated roots
                assert after.states[u] is before.states[u]

    def test_foreign_endpoint_fails_in_its_round_after_quiet_rounds(self):
        quiet = make_edge_set([(1, 2)])
        schedule = [quiet, quiet, quiet | {(1, 9)}]
        graph = EvolvingGraph(frozenset({1, 2, 3}), lambda i: schedule[i - 1])
        with pytest.raises(EngineError) as caught:
            for _ in engine.iter_run(graph, rounds=3, seed=0):
                pass
        assert str(caught.value) == "round 3: edge {1,9} endpoint 9 is not in the vertex set"


def memo_free(monkeypatch):
    """Make every `adjacency` call in the engine and the metrics a fresh pass."""

    def fresh(vertices, edges):
        model._last_adjacency = None
        return model.adjacency(vertices, edges)

    monkeypatch.setattr(engine, "adjacency", fresh)
    monkeypatch.setattr(analysis, "adjacency", fresh)


def run_with_metrics(graph, rounds, seed):
    acc = analysis.MetricsAccumulator()
    configs = []
    for i, edges, config in engine.iter_run(graph, rounds, seed):
        acc(i, edges, config)
        configs.append(config)
    return configs, acc.per_round


class TestSharedAdjacency:
    def test_interleaved_runs_sharing_edge_set_objects(self, monkeypatch):
        # one edge-set object serves graphs of different vertex sets: of
        # another size, and of the same size with other ids
        empty, shared = frozenset(), make_edge_set([(2, 3)])
        a, b, c = (make_edge_set([pair]) for pair in ((1, 2), (4, 5), (3, 4)))
        scripts = {
            frozenset({1, 2, 3}): [empty, shared, shared, empty, a, empty],
            frozenset({1, 2, 3, 4, 5}): [empty, empty, shared, b, shared, empty],
            frozenset({2, 3, 4}): [shared, empty, shared, empty, c, shared],
        }
        graphs = [
            EvolvingGraph(vertices, lambda i, script=script: script[i - 1])
            for vertices, script in scripts.items()
        ]
        with monkeypatch.context() as m:
            memo_free(m)
            expected = [run_with_metrics(graph, 6, seed) for seed, graph in enumerate(graphs)]
        runs = [engine.iter_run(graph, 6, seed) for seed, graph in enumerate(graphs)]
        accs = [analysis.MetricsAccumulator() for _ in graphs]
        got = [[] for _ in graphs]
        for rounds in zip(*runs):
            for (i, edges, config), acc, configs in zip(rounds, accs, got):
                acc(i, edges, config)
                configs.append(config)
        assert [(configs, acc.per_round) for configs, acc in zip(got, accs)] == expected

    def test_run_interleaved_with_components_of_other_vertex_sets(self, monkeypatch):
        params = topology.EdgeMarkovParams(n=12, p_birth=0.3, p_death=0.3, seed=3)
        with monkeypatch.context() as m:
            memo_free(m)
            expected = run_with_metrics(topology.edge_markov(params), 60, seed=3)
        graph = topology.edge_markov(params)
        acc = analysis.MetricsAccumulator()
        configs = []
        wider = range(1, 20)
        for i, edges, config in engine.iter_run(graph, 60, seed=3):
            acc(i, edges, config)
            configs.append(config)
            assert analysis.connected_components([30, 31], frozenset()) == (
                frozenset({30}),
                frozenset({31}),
            )
            # the next round's edge set, first seen over another vertex set
            upcoming = graph.schedule(i + 1)
            parts = analysis.connected_components(wider, upcoming)
            assert frozenset().union(*parts) == frozenset(wider)
            assert sorted(parts, key=min)[-7:] == [frozenset({u}) for u in range(13, 20)]
        assert (configs, acc.per_round) == expected

    def test_foreign_endpoint_still_rejected_after_a_memo_hit_elsewhere(self):
        edges = make_edge_set([(1, 2), (2, 9)])
        assert analysis.connected_components([1, 2, 9], edges) == (frozenset({1, 2, 9}),)
        with pytest.raises(EngineError) as caught:
            run_round(initial_configuration([1, 2, 3]), edges, make_node_rngs(0, [1, 2, 3]))
        assert str(caught.value) == "round 1: edge {2,9} endpoint 9 is not in the vertex set"
        with pytest.raises(ValueError, match="endpoint 9 is not in the vertex set"):
            analysis.connected_components([1, 2], edges)

    def test_mutable_edge_collection_is_never_reused(self):
        edges = {(1, 2)}
        assert analysis.connected_components([1, 2, 3], edges) == (
            frozenset({1, 2}),
            frozenset({3}),
        )
        edges.add((2, 3))
        assert analysis.connected_components([1, 2, 3], edges) == (frozenset({1, 2, 3}),)

    def test_memo_is_dropped_with_its_edge_set(self):
        edges = make_edge_set([(1, 2)])
        analysis.connected_components([1, 2, 3], edges)
        assert model._last_adjacency is not None
        del edges
        assert model._last_adjacency is None
