import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dynaforest import analysis, cli, engine, protocol, topology
from dynaforest.engine import EngineError, initial_configuration, make_node_rngs, run_round
from dynaforest.model import Action, EvolvingGraph, Status, make_edge, make_edge_set

from naive_oracle import message_of


def static_graph(n, edges):
    return topology.scripted(range(1, n + 1), [edges])


def mismatched_rounds(graph, rounds, seed, lazy=False, rest_probability=0.5):
    """The rounds where carried rounds, as `iter_run` runs them, differ from
    full rounds, and "rng" if some node's random stream ends elsewhere."""
    carried = full = initial_configuration(graph.vertices)
    carried_rngs = make_node_rngs(seed, graph.vertices)
    full_rngs = make_node_rngs(seed, graph.vertices)
    carry = engine.RoundCarry()
    mismatches = []
    for i in range(1, rounds + 1):
        edges = graph.schedule(i)
        carried = run_round(carried, edges, carried_rngs, lazy, rest_probability, carry=carry)
        full = run_round(full, edges, full_rngs, lazy, rest_probability)
        if carried != full:
            mismatches.append(i)
    if any(carried_rngs[u].getstate() != full_rngs[u].getstate() for u in graph.vertices):
        mismatches.append("rng")
    return mismatches


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
        assert c1.states[2].action is Action.SELECT
        assert c1.states[2].target == 8
        assert c2.states[2].parent == 8 and c2.states[2].status is Status.N
        assert 2 in c2.states[8].children

    def test_select_cancelled_when_edge_vanishes(self):
        graph = topology.scripted([2, 8], [[(2, 8)], []])
        c2 = run_history(graph, rounds=2, seed=0)[0][2]
        assert c2.states[2].status is Status.T and c2.states[2].parent is None
        assert c2.states[8].children == frozenset()

    def test_flip_cancelled_when_edge_vanishes(self):
        # 2 selects 8, joins it, and 8 flips the token back to 2 over an
        # edge that vanishes in the FLIP's round
        graph = topology.scripted([2, 8], [[(2, 8)], [(2, 8)], []])
        _, _, c2, c3 = run_history(graph, rounds=3, seed=0)[0]
        assert c2.states[8].action is Action.FLIP
        assert c2.states[8].target == 2
        assert c3.states[2].status is Status.T and c3.states[2].parent is None
        assert c3.states[2].children == frozenset()
        assert c3.states[2].score == c2.states[2].score
        assert c3.states[8].status is Status.T and c3.states[8].children == frozenset()

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
        assert c1.states[1].target == 8
        assert c1.states[4].target == 8
        assert c2.states[1].parent == 8 and c2.states[4].parent == 8
        assert c2.states[8].children == frozenset({1, 4})

    def test_edge_endpoint_outside_vertices_aborts(self):
        config = initial_configuration([1, 2])
        rngs = make_node_rngs(0, [1, 2])
        with pytest.raises(EngineError, match="endpoint 9"):
            run_round(config, make_edge_set([(1, 9)]), rngs)

    def test_foreign_endpoint_error_names_round_edge_and_endpoint(self):
        edges = make_edge_set([(1, 2), (2, 9)])
        with pytest.raises(EngineError) as caught:
            run_round(initial_configuration([1, 2, 3]), edges, make_node_rngs(0, [1, 2, 3]))
        assert str(caught.value) == "round 1: edge {2,9} endpoint 9 is not in the vertex set"


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

        def recording_step(prev, senders, states, aimed, *args):
            delivered[prev.id] = (set(senders), states, list(aimed))
            return real_step(prev, senders, states, aimed, *args)

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
                sent = {v: message_of(st) for v, st in before.states.items()}
                for u, (senders, states, aimed) in delivered.items():
                    # u hears exactly its neighbours in E_i
                    assert senders == neighbors[u]
                    # each sender's state, and so its message, is its previous-round one
                    assert all(states[v] == before.states[v] for v in senders)
                    assert all(message_of(states[v]) == sent[v] for v in senders)
                    # aimed: the states of every previous-round message whose target is u
                    assert [message_of(st) for st in sorted(aimed, key=lambda st: st.id)] == [
                        m for m in sent.values() if m.target == u
                    ]
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
                if st.action is Action.HELLO:
                    continue
                sent_successfully = make_edge(u, st.target) in edges
                got_flip = any(
                    other.action is Action.FLIP
                    and other.target == u
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
                if st.action is not Action.FLIP or make_edge(u, st.target) not in edges:
                    continue
                v = st.target
                pair_before = (st.score, before.states[v].score)
                assert after.states[u].score == min(pair_before)
                assert after.states[v].score == max(pair_before)
                swaps += 1
        assert swaps > 50  # the run actually exercised circulation


class TestDeltaRounds:
    def test_flip_target_is_stepped(self):
        # rule (B): 1 SELECTs 2, joins it, and 2 FLIPs the token back.  In
        # round 3 node 1 is an N node on a static edge; only the FLIP aimed
        # at it marks it dirty.  The isolated node 3 keeps the changed
        # nodes' neighbours from covering V, which would mark every node
        graph = static_graph(3, [(1, 2)])
        configurations = run_history(graph, rounds=3, seed=0)[0]
        assert configurations[2].states[2].action is Action.FLIP
        assert configurations[2].states[1].status is Status.N
        assert configurations[3].states[1].status is Status.T
        assert mismatched_rounds(graph, rounds=8, seed=0) == []

    def test_token_holder_hears_a_changed_neighbour(self):
        # rule (H): 1 joins 3, and 3 FLIPs the token to 1, whose score
        # becomes 3.  Node 2, a childless token holder on a static edge to
        # 1, then hears 1 announce a token of score 3 > 2 and SELECTs it;
        # only 1's change marks 2 dirty.  The isolated node 4 keeps the
        # changed nodes' neighbours from covering V, which would mark every
        # node
        graph = static_graph(4, [(1, 2), (1, 3)])
        configurations = run_history(graph, rounds=4, seed=0)[0]
        quiet = configurations[3].states[2]
        assert quiet.status is Status.T and not quiet.children
        assert quiet.action is Action.HELLO
        assert configurations[3].states[1].status is Status.T
        assert configurations[3].states[1].score == 3
        assert configurations[4].states[2].action is Action.SELECT
        assert configurations[4].states[2].target == 1
        assert mismatched_rounds(graph, rounds=8, seed=0) == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 30),
        st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5]),
        st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.floats(0.05, 0.95).filter(lambda p: p != 0.5),
    )
    def test_edge_markov_runs_match_full_rounds(
        self, n, p_birth, p_death, seed, lazy, rest_probability
    ):
        params = topology.EdgeMarkovParams(n=n, p_birth=p_birth, p_death=p_death, seed=seed)
        graph = topology.edge_markov(params)
        assert mismatched_rounds(graph, 120, seed, lazy, rest_probability) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.05, 0.95))
    def test_static_stretches_between_changes_match_full_rounds(
        self, data, seed, lazy, rest_probability
    ):
        n = data.draw(st.integers(2, 12))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = frozenset(data.draw(st.sets(st.sampled_from(pairs))))
        script = []
        for _ in range(data.draw(st.integers(1, 5))):
            # a static stretch: long ones let non-lazy tokens swap back and forth
            script += [edges] * data.draw(st.integers(1, 40))
            edges = edges ^ data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=3))
        graph = topology.scripted(range(1, n + 1), script)
        assert mismatched_rounds(graph, len(script) + 10, seed, lazy, rest_probability) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1), st.booleans())
    def test_carried_rounds_reuse_the_states_of_the_round_before(self, data, seed, lazy):
        # rounds drawn from a small pool of edge sets give static stretches,
        # where non-lazy tokens swap two-node trees back and forth
        n = data.draw(st.integers(2, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        pool = data.draw(st.lists(st.sets(st.sampled_from(pairs)), min_size=1, max_size=4))
        pattern = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        graph = topology.scripted(range(1, n + 1), [pool[k] for k in pattern])
        full = initial_configuration(graph.vertices)
        rngs = make_node_rngs(seed, graph.vertices)
        writer = cli.TraceWriter()
        # the states of the run's C_{i-2} and C_{i-1}; C_0 is built inside the run
        older = previous = dict.fromkeys(graph.vertices)
        for i, edges, config in engine.iter_run(graph, len(pattern), seed, lazy):
            full = run_round(full, edges, rngs, lazy)
            assert config == full, f"round {i}"
            for u, state in config.states.items():
                # never an equal copy of C_{i-1}'s state, nor of C_{i-2}'s
                if state == previous[u]:
                    assert state is previous[u], f"round {i}, node {u}"
                elif state == older[u]:
                    assert state is older[u], f"round {i}, node {u}"
            assert writer.round_lines(edges, config) == cli.trace_round_lines(edges, config)
            older, previous = previous, config.states

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
        # quiet nodes were really skipped: also stepping every neighbour of
        # a changed node would take 0.32 (lazy) and 0.43 of 78 * rounds
        # steps; the dirty rule takes 0.20 and 0.32
        assert delta_steps < 78 * rounds * (0.25 if lazy else 0.375)

    def test_unchanged_node_keeps_its_state_object(self):
        graph = static_graph(5, [(1, 2)])
        configs = [c for _, _, c in engine.iter_run(graph, rounds=6, seed=0)]
        for before, after in zip(configs, configs[1:]):
            for u in (3, 4, 5):  # isolated roots
                assert after.states[u] is before.states[u]

    def test_two_node_swap_builds_no_state_from_round_4(self, monkeypatch):
        # non-lazy, the token of a two-node tree FLIPs every round: from the
        # first FLIP's commit on, each node alternates between two states
        built = [0]
        real_state = protocol.NodeState

        def counting_state(*args, **kwargs):
            built[0] += 1
            return real_state(*args, **kwargs)

        monkeypatch.setattr(protocol, "NodeState", counting_state)
        configs = [initial_configuration([1, 2])]
        for i, _, config in engine.iter_run(static_graph(2, [(1, 2)]), rounds=40, seed=0):
            assert (built[0] == 0) == (i >= 4), f"round {i}"
            built[0] = 0
            configs.append(config)
        for older, previous, config in zip(configs[2:], configs[3:], configs[4:]):
            assert config.states != previous.states  # the token moves every round
            assert all(config.states[u] is older.states[u] for u in (1, 2))

    def test_static_pair_replays_its_steps_from_round_5(self, monkeypatch):
        # rule (R): from round 4 on C_i is C_{i-2} and E has stood still
        # since round 1, so from round 5 each node takes its C_{i-1} state;
        # the token's one-child FLIP still draws from its stream.  The
        # contact ends at round 300 (t = 30 s), which steps both nodes
        graph = topology.parse_contact_trace([topology.ContactRecord(1, 2, 0, 30)], 10)
        steps = [0]
        real_step = engine.node_step

        def counting_step(*args):
            steps[0] += 1
            return real_step(*args)

        monkeypatch.setattr(engine, "node_step", counting_step)
        carried = full = initial_configuration(graph.vertices)
        carried_rngs = make_node_rngs(3, graph.vertices)
        full_rngs = make_node_rngs(3, graph.vertices)
        carry = engine.RoundCarry()
        for i in range(1, graph.rounds + 1):
            edges = graph.schedule(i)
            carried = run_round(carried, edges, carried_rngs, carry=carry)
            assert (steps[0] == 0) == (5 <= i < 300), f"round {i}"
            full = run_round(full, edges, full_rngs)
            assert carried == full, f"round {i}"
            steps[0] = 0
        assert graph.rounds == 300
        for u in (1, 2):
            assert carried_rngs[u].getstate() == full_rngs[u].getstate()
        assert carried_rngs[1].getstate() != make_node_rngs(3, [1])[1].getstate()

    def test_new_neighbour_is_heard_by_a_swapping_pair(self):
        # the pair {1,2} swaps its token, and node 3, a lone token with the
        # greatest score, gains an edge to 1.  A round later 1's state and
        # its row's are those of two rounds back, but that round's step had
        # no edge to 3: (R) waits until E has stood still for two rounds,
        # so 1 is stepped and SELECTs 3
        pair, joined = [(1, 2)], [(1, 2), (1, 3)]
        for start in range(2, 9):
            graph = topology.scripted(range(1, 4), [pair] * start + [joined])
            assert mismatched_rounds(graph, start + 8, seed=0) == [], start

    def test_foreign_endpoint_fails_in_its_round_after_quiet_rounds(self):
        quiet = make_edge_set([(1, 2)])
        schedule = [quiet, quiet, quiet | {(1, 9)}]
        graph = EvolvingGraph(frozenset({1, 2, 3}), lambda i: schedule[i - 1])
        with pytest.raises(EngineError) as caught:
            for _ in engine.iter_run(graph, rounds=3, seed=0):
                pass
        assert str(caught.value) == "round 3: edge {1,9} endpoint 9 is not in the vertex set"
