from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynaforest import topology
from dynaforest.model import make_edge_set
from dynaforest.topology import (
    ContactRecord,
    EdgeMarkovParams,
    edge_markov,
    mean_instantaneous_degree,
    parse_contact_trace,
    read_contact_file,
    scripted,
)


class TestScripted:
    def test_single_empty_round_repeats_forever(self):
        graph = scripted([1, 2], [[]])
        for i in (1, 2, 50):
            assert graph.schedule(i) == frozenset()

    def test_tail_repeats_last_edge_set(self):
        graph = scripted([1, 2], [[(1, 2)], []])
        assert graph.schedule(1) == make_edge_set([(1, 2)])
        assert graph.schedule(2) == frozenset()
        assert graph.schedule(3) == frozenset()

    def test_endpoint_outside_vertices_rejected(self):
        with pytest.raises(ValueError, match="outside the vertex set"):
            scripted([1, 2], [[(1, 3)]])

    def test_round_zero_rejected(self):
        graph = scripted([1, 2], [[(1, 2)]])
        with pytest.raises(ValueError):
            graph.schedule(0)


class TestEdgeMarkov:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            EdgeMarkovParams(n=5, p_birth=1.2, p_death=0.5, seed=0)

    def test_absorbing_empty(self):
        graph = edge_markov(EdgeMarkovParams(n=6, p_birth=0.0, p_death=1.0, seed=1))
        assert all(graph.schedule(i) == frozenset() for i in range(1, 20))

    def test_immediately_complete(self):
        n = 6
        graph = edge_markov(EdgeMarkovParams(n=n, p_birth=1.0, p_death=0.0, seed=1))
        complete = make_edge_set(
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        )
        assert all(graph.schedule(i) == complete for i in range(1, 20))

    def test_reproducible_and_rewindable(self):
        params = EdgeMarkovParams(n=8, p_birth=0.3, p_death=0.4, seed=77)
        g1, g2 = edge_markov(params), edge_markov(params)
        forward = [g1.schedule(i) for i in range(1, 30)]
        assert [g2.schedule(i) for i in range(1, 30)] == forward
        # backward query replays deterministically
        assert g1.schedule(5) == forward[4]
        assert g1.schedule(29) == forward[28]
        # repeated query of the same round is stable
        assert g1.schedule(29) == forward[28]

    def test_unchanged_edge_set_is_the_same_object(self):
        params = EdgeMarkovParams(n=6, p_birth=0.05, p_death=0.1, seed=3)
        graph = edge_markov(params)
        reference = edge_markov(params)
        kept = renewed = 0
        previous = graph.schedule(1)
        for i in range(2, 200):
            edges = graph.schedule(i)
            if edges == previous:
                assert edges is previous
                kept += 1
            else:
                renewed += 1
            previous = edges
        assert kept > 20 and renewed > 20
        # a backward query replays the chain and still gives the same sets
        assert [graph.schedule(i) for i in range(1, 200)] == [
            reference.schedule(i) for i in range(1, 200)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 80), min_size=1, max_size=12),
    )
    def test_flip_mask_advance_matches_pairwise_chain(self, n, p_birth, p_death, seed, queries):
        # the chain computed pair by pair: each pair's next presence from its draw
        rng = np.random.Generator(np.random.PCG64(seed))
        iu, jv = np.triu_indices(n, k=1)
        pairs = list(zip((iu + 1).tolist(), (jv + 1).tolist()))
        present = rng.random(len(pairs)) < p_birth
        expected = []
        for _ in range(80):
            expected.append(frozenset(pairs[k] for k in np.flatnonzero(present)))
            draws = rng.random(len(pairs))
            present = np.where(present, draws >= p_death, draws < p_birth)
        graph = edge_markov(EdgeMarkovParams(n=n, p_birth=p_birth, p_death=p_death, seed=seed))
        # forward, repeated and backward queries, in the drawn order
        for i in queries + queries[::-1] + list(range(1, 81)):
            assert graph.schedule(i) == expected[i - 1], f"round {i}"

    def test_long_run_density_matches_stationary_law(self):
        # two-state chain: stationary presence = p_birth / (p_birth + p_death)
        params = EdgeMarkovParams(n=10, p_birth=0.5, p_death=0.5, seed=123)
        graph = edge_markov(params)
        rounds = 10_000
        total = sum(len(graph.schedule(i)) for i in range(1, rounds + 1))
        density = total / (45 * rounds)
        assert 0.48 <= density <= 0.52


class TestParseContactTrace:
    def test_half_open_discretization_at_one_round_per_second(self):
        graph = parse_contact_trace([ContactRecord(1, 2, 0, 240)], 1)
        assert graph.rounds == 240
        assert graph.schedule(1) == make_edge_set([(1, 2)])
        assert graph.schedule(239) == make_edge_set([(1, 2)])
        assert graph.schedule(240) == frozenset()

    def test_ten_rounds_per_second_scaling(self):
        graph = parse_contact_trace([ContactRecord(1, 2, 0, 240)], 10)
        assert graph.rounds == 2400
        assert graph.schedule(2399) == make_edge_set([(1, 2)])
        assert graph.schedule(2400) == frozenset()

    def test_fractional_rate(self):
        # one round every 120 seconds
        graph = parse_contact_trace([ContactRecord(1, 2, 120, 360)], Fraction(1, 120))
        assert graph.rounds == 3
        assert graph.schedule(1) == make_edge_set([(1, 2)])
        assert graph.schedule(2) == make_edge_set([(1, 2)])
        assert graph.schedule(3) == frozenset()

    def test_empty_records(self):
        graph = parse_contact_trace([], 1)
        assert graph.vertices == frozenset()
        assert graph.schedule(5) == frozenset()
        assert graph.rounds == 0

    def test_malformed_records_rejected_with_location(self):
        with pytest.raises(ValueError, match="line 7"):
            parse_contact_trace([ContactRecord(1, 1, 0, 10, line=7)], 1)
        with pytest.raises(ValueError, match="end after it starts"):
            parse_contact_trace([ContactRecord(1, 2, 10, 10)], 1)

    def test_vertices_are_all_ids_seen(self):
        records = [ContactRecord(1, 2, 0, 10), ContactRecord(3, 9, 5, 20)]
        assert parse_contact_trace(records, 1).vertices == frozenset({1, 2, 3, 9})

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 6),
                st.integers(1, 6),
                st.integers(0, 40),
                st.integers(1, 40),
            ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
            min_size=1,
            max_size=8,
        ).filter(lambda recs: all(a != b for a, b, _, _ in recs)),
        st.sampled_from([1, 2, Fraction(1, 3)]),
    )
    def test_order_insensitive_and_split_equivalent(self, raw, rps):
        records = [ContactRecord(a, b, s, e) for a, b, s, e in raw]
        shuffled = list(reversed(records))
        split = []
        for rec in records:
            if rec.end - rec.start >= 2:
                mid = (rec.start + rec.end) // 2
                split.append(ContactRecord(rec.a, rec.b, rec.start, mid))
                split.append(ContactRecord(rec.a, rec.b, mid, rec.end))
            else:
                split.append(rec)
        g0 = parse_contact_trace(records, rps)
        g1 = parse_contact_trace(shuffled, rps)
        g2 = parse_contact_trace(split, rps)
        assert g0.rounds == g1.rounds == g2.rounds
        for i in range(1, (g0.rounds or 1) + 1):
            assert g0.schedule(i) == g1.schedule(i) == g2.schedule(i)


    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5),
                st.integers(1, 5),
                st.integers(0, 30),
                st.integers(1, 30),
            ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3])),
            min_size=1,
            max_size=10,
        ).filter(lambda recs: all(a != b for a, b, _, _ in recs)),
        st.sampled_from([1, 2, Fraction(1, 3), Fraction(3, 2)]),
        st.randoms(use_true_random=False),
    )
    def test_schedule_matches_definition_in_any_query_order(self, raw, rps, rnd):
        records = [ContactRecord(a, b, s, e) for a, b, s, e in raw]
        graph = parse_contact_trace(records, rps)
        rounds = range(1, graph.rounds + 4)

        def by_definition(i):
            t = Fraction(i) / rps
            return make_edge_set((r.a, r.b) for r in records if r.start <= t < r.end)

        forward = [graph.schedule(i) for i in rounds]
        assert forward == [by_definition(i) for i in rounds]
        for previous, edges in zip(forward, forward[1:]):
            if edges == previous:
                assert edges is previous  # one frozenset serves a whole stretch
        shuffled = list(rounds)
        rnd.shuffle(shuffled)
        for i in shuffled + list(reversed(rounds)):
            assert graph.schedule(i) == by_definition(i)


class TestContactFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "contacts.txt"
        path.write_text("# demo\n1 2 0 120\n2 3 60 240  # overlap\n\n")
        records = read_contact_file(path)
        assert records == [
            ContactRecord(1, 2, 0, 120, line=2),
            ContactRecord(2, 3, 60, 240, line=3),
        ]

    def test_field_count_diagnostic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_contact_file(path)

    def test_non_integer_diagnostic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 zero 10\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_contact_file(path)

    def test_mean_degree_helper(self):
        records = [ContactRecord(1, 2, 0, 10), ContactRecord(2, 3, 0, 5)]
        graph = parse_contact_trace(records, 1)
        # rounds 1..4: two edges; 5..9: one edge; round 10: none
        expected = (4 * 2 + 5 * 1 + 0) * 2 / (3 * 10)
        assert mean_instantaneous_degree(graph) == pytest.approx(expected)
