import pytest

from dynaforest import analysis, engine, topology
from dynaforest.engine import EngineError, initial_configuration, make_node_rngs, run, run_round
from dynaforest.model import Action, EvolvingGraph, Status, make_edge, make_edge_set


def static_graph(n, edges):
    return topology.scripted(range(1, n + 1), [edges])


class TestRunRound:
    def test_two_roots_merge_over_stable_edge(self):
        graph = static_graph(8, [(2, 8)])
        trace = run(graph, rounds=2, seed=0)
        c1, c2 = trace.configurations[1], trace.configurations[2]
        assert c1.states[2].out_message.action is Action.SELECT
        assert c1.states[2].out_message.target == 8
        assert c2.states[2].parent == 8 and c2.states[2].status is Status.N
        assert 2 in c2.states[8].children

    def test_select_cancelled_when_edge_vanishes(self):
        graph = topology.scripted([2, 8], [[(2, 8)], []])
        trace = run(graph, rounds=2, seed=0)
        c2 = trace.configurations[2]
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
        trace = run(graph, rounds=2, seed=0)
        c1, c2 = trace.configurations[1], trace.configurations[2]
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
            run(static_graph(3, []), rounds=0, seed=0)

    def test_one_round_gives_two_configurations(self):
        trace = run(static_graph(3, []), rounds=1, seed=0)
        assert len(trace.configurations) == 2
        assert len(trace.edge_sets) == 1

    def test_identical_inputs_give_identical_traces(self):
        params = topology.EdgeMarkovParams(n=15, p_birth=0.3, p_death=0.3, seed=9)
        t1 = run(topology.edge_markov(params), rounds=60, seed=9, lazy=True)
        t2 = run(topology.edge_markov(params), rounds=60, seed=9, lazy=True)
        assert t1.configurations == t2.configurations
        assert t1.edge_sets == t2.edge_sets

    def test_hooks_see_every_round(self):
        seen = []
        run(
            static_graph(4, [(1, 2)]),
            rounds=5,
            seed=0,
            hooks=[lambda i, e, c: seen.append((i, c.round))],
        )
        assert seen == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]

    def test_hook_exception_aborts(self):
        def bomb(i, e, c):
            raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            run(static_graph(4, [(1, 2)]), rounds=5, seed=0, hooks=[bomb])

    def test_complete_graph_converges_to_single_root(self):
        n = 8
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        trace = run(static_graph(n, edges), rounds=200, seed=5, lazy=True)
        final = trace.configurations[-1]
        roots = [u for u, st in final.states.items() if st.status is Status.T]
        assert len(roots) == 1
        for i, e in enumerate(trace.edge_sets, start=1):
            assert analysis.run_all_checks(trace.configurations[i], e) == []


class TestRoundProperties:
    def test_reciprocity_neighbor_sets_mirror_edges(self, monkeypatch):
        delivered = {}
        real_step = engine.node_step

        def recording_step(prev, received, *args):
            delivered[prev.id] = list(received)
            return real_step(prev, received, *args)

        monkeypatch.setattr(engine, "node_step", recording_step)
        params = topology.EdgeMarkovParams(n=10, p_birth=0.4, p_death=0.4, seed=2)
        graph = topology.edge_markov(params)
        before = initial_configuration(graph.vertices)
        for i, edges, config in engine.iter_run(graph, rounds=40, seed=2):
            neighbors = {u: set() for u in config.states}
            for u, v in edges:
                neighbors[u].add(v)
                neighbors[v].add(u)
            assert delivered.keys() == config.states.keys()
            for u, received in delivered.items():
                senders = [m.sender for m in received]
                # exactly one message per edge endpoint, from each neighbor in E_i
                assert len(senders) == len(set(senders))
                assert set(senders) == neighbors[u]
                # each is the message the sender prepared in the previous round
                assert all(m == before.states[m.sender].out_message for m in received)
            before = config
            delivered.clear()

    def test_flip_receiver_never_commits_own_flip_or_select(self):
        # spans two nodes, so asserted at engine level over a churny run
        params = topology.EdgeMarkovParams(n=16, p_birth=0.35, p_death=0.35, seed=4)
        graph = topology.edge_markov(params)
        trace = run(graph, rounds=300, seed=4)
        for i, edges in enumerate(trace.edge_sets, start=1):
            before = trace.configurations[i - 1]
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
        trace = run(topology.edge_markov(params), rounds=200, seed=6)
        swaps = 0
        for i, edges in enumerate(trace.edge_sets, start=1):
            before, after = trace.configurations[i - 1], trace.configurations[i]
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
