import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynaforest.markov import holding_times, stay_log
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
from per_round_chain import per_round_edge_markov


def per_pair_event_loop(n, p_birth, p_death, seed, rounds):
    """E_1..E_rounds of the edge-Markov chain, by its draw order, pair by pair."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    present = dict.fromkeys(pairs, False)
    stay = {False: stay_log(p_birth), True: stay_log(p_death)}
    due = {pair: float(holding_times(rng.random(), stay[False])) for pair in pairs}
    sets = []
    for r in range(1, rounds + 1):
        for pair in pairs:
            if due[pair] == r:
                present[pair] = not present[pair]
                due[pair] = r + float(holding_times(rng.random(), stay[present[pair]]))
        sets.append(frozenset(pair for pair in pairs if present[pair]))
    return sets


def flip_statistics(graph, n, rounds):
    """Per state (present or not): ((flip frequency, its standard error),
    (mean completed holding time, its standard error)) over rounds 1..rounds."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    states = np.zeros((rounds + 1, len(pairs)), dtype=bool)  # round 0: empty
    for i in range(1, rounds + 1):
        edges = graph.schedule(i)
        states[i] = [pair in edges for pair in pairs]
    flips = states[1:] != states[:-1]
    held = {False: [], True: []}
    for k in range(len(pairs)):
        rounds_of_flips = np.concatenate([[0], np.flatnonzero(flips[:, k]) + 1])
        for start, length in zip(rounds_of_flips, np.diff(rounds_of_flips)):
            held[bool(states[start, k])].append(length)
    stats = {}
    for state in (False, True):
        exposed = states[:-1] == state
        f = flips[exposed].mean()
        h = np.array(held[state], dtype=float)
        stats[state] = (
            (f, math.sqrt(f * (1 - f) / exposed.sum())),
            (h.mean(), h.std(ddof=1) / math.sqrt(len(h))),
        )
    return stats


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
        with pytest.raises(ValueError, match="is not in the vertex set"):
            scripted([1, 2], [[(1, 3)]])

    def test_round_zero_rejected(self):
        graph = scripted([1, 2], [[(1, 2)]])
        with pytest.raises(ValueError):
            graph.schedule(0)

    def test_empty_schedule_has_no_edges(self):
        graph = scripted([1, 2], [])
        assert graph.params["script_length"] == 0
        assert graph.schedule(1) == graph.schedule(7) == frozenset()


class TestEdgeMarkov:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            EdgeMarkovParams(n=5, p_birth=1.2, p_death=0.5, seed=0)

    def test_node_count_validated(self):
        with pytest.raises(ValueError, match="node count must be >= 1, got 0"):
            EdgeMarkovParams(n=0, p_birth=0.5, p_death=0.5, seed=0)

    def test_round_zero_rejected(self):
        graph = edge_markov(EdgeMarkovParams(n=3, p_birth=0.5, p_death=0.5, seed=0))
        with pytest.raises(ValueError, match="round index must be >= 1, got 0"):
            graph.schedule(0)

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
    def test_event_chain_matches_per_pair_event_loop(self, n, p_birth, p_death, seed, queries):
        expected = per_pair_event_loop(n, p_birth, p_death, seed, 80)
        graph = edge_markov(EdgeMarkovParams(n=n, p_birth=p_birth, p_death=p_death, seed=seed))
        # forward, repeated and backward queries, in the drawn order
        for i in queries + queries[::-1] + list(range(1, 81)):
            assert graph.schedule(i) == expected[i - 1], f"round {i}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flip_law_matches_per_round_chain(self, seed):
        # per state: how often a pair leaves it per round, and how long it stays
        params = EdgeMarkovParams(n=10, p_birth=0.2, p_death=0.5, seed=seed)
        event = flip_statistics(edge_markov(params), params.n, 4000)
        reference = flip_statistics(per_round_edge_markov(params), params.n, 4000)
        for state in (False, True):
            for (a, se_a), (b, se_b) in zip(event[state], reference[state]):
                assert abs(a - b) <= 5 * math.hypot(se_a, se_b), (state, a, b)

    def test_single_node_has_no_pairs(self):
        graph = edge_markov(EdgeMarkovParams(n=1, p_birth=0.5, p_death=0.5, seed=0))
        assert [graph.schedule(i) for i in (1, 2, 7, 3)] == [frozenset()] * 4

    @pytest.mark.parametrize("p", [0.0, 1.0, 1e-18, 1e-300, 5e-324, 0.3])
    def test_holding_times_edge_probabilities(self, p):
        u = np.array([0.0, 0.25, 0.5, 1 - 2**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = holding_times(u, stay_log(p))
        if p == 0.0:
            assert np.all(k == np.inf)  # never left
        elif p == 1.0:
            assert np.all(k == 1.0)  # left every round
        else:
            # whole rounds >= 1, non-decreasing in u, and never wrapped below 1
            assert k[0] == 1.0 and np.all(k[1:] >= k[:-1])
            assert np.all((k == np.floor(k)) | (k == np.inf))
        if 0.0 < p <= 1e-18:
            assert k[-1] > 2.0**63  # past int64: saturated, not wrapped

    def test_p_one_flips_every_round(self):
        n = 5
        complete = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        graph = edge_markov(EdgeMarkovParams(n=n, p_birth=1.0, p_death=1.0, seed=4))
        assert [graph.schedule(i) for i in range(1, 9)] == [complete, frozenset()] * 4

    def test_tiny_birth_probability_never_wraps(self):
        graph = edge_markov(EdgeMarkovParams(n=6, p_birth=1e-300, p_death=0.5, seed=5))
        for i in (1, 2, 1000, 2**62, 2**63 + 5, 2**70):
            assert graph.schedule(i) == frozenset(), f"round {i}"

    @pytest.mark.parametrize("p_birth", [0.0, 1.0])
    @pytest.mark.parametrize("p_death", [0.0, 1.0])
    def test_p_zero_and_one_give_the_per_round_edge_sets(self, p_birth, p_death):
        params = EdgeMarkovParams(n=5, p_birth=p_birth, p_death=p_death, seed=9)
        graph, reference = edge_markov(params), per_round_edge_markov(params)
        for i in list(range(1, 21)) + [3, 20, 1]:
            assert graph.schedule(i) == reference.schedule(i), f"round {i}"

    def test_construction_draws_nothing(self, monkeypatch):
        made = []
        real = np.random.Generator
        monkeypatch.setattr(np.random, "Generator", lambda bits: made.append(bits) or real(bits))
        graph = edge_markov(EdgeMarkovParams(n=30, p_birth=0.1, p_death=0.1, seed=2))
        assert made == []
        graph.schedule(1)
        assert len(made) == 1

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

    def test_float_rate_reads_as_its_decimal(self):
        graph = parse_contact_trace([ContactRecord(1, 2, 0, 3)], 0.5)
        assert graph.params["rounds_per_second"] == "1/2"
        assert graph.rounds == 2

    def test_round_zero_rejected(self):
        graph = parse_contact_trace([ContactRecord(1, 2, 0, 10)], 1)
        with pytest.raises(ValueError, match="round index must be >= 1, got 0"):
            graph.schedule(0)

    def test_empty_records(self):
        graph = parse_contact_trace([], 1)
        assert graph.vertices == frozenset()
        assert graph.schedule(5) == frozenset()
        assert graph.rounds == 0

    def test_malformed_records_rejected_with_location(self, tmp_path):
        # a record checks itself at construction; the file reader adds the location
        path = tmp_path / "contacts.txt"
        path.write_text("1 2 0 5\n1 1 0 10\n")
        with pytest.raises(ValueError) as info:
            read_contact_file(path)
        assert str(info.value) == f"{path}: line 2: (1, 1, 0, 10): contact endpoints must differ"

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


class TestContactRecord:
    @pytest.mark.parametrize(
        "fields, message",
        [((3, 3, 0, 5), "contact endpoints must differ"),
         ((0, 2, 0, 5), "contact endpoints must be positive ids"),
         ((1, -2, 0, 5), "contact endpoints must be positive ids"),
         ((1, 2, 9, 5), "contact must end after it starts"),
         ((1, 2, 5, 5), "contact must end after it starts"),
         ((1, 2, -1, 5), "contact cannot start before time 0")],
        ids=["self-contact", "zero-id", "negative-id", "ends-before-start", "empty",
             "negative-start"],
    )
    def test_rejects_bad_fields_at_construction(self, fields, message):
        with pytest.raises(ValueError) as info:
            ContactRecord(*fields)
        assert str(info.value) == f"({', '.join(map(str, fields))}): {message}"

    def test_accepts_a_contact_from_time_zero(self):
        assert ContactRecord(2, 1, 0, 1) == ContactRecord(a=2, b=1, start=0, end=1)


class TestContactFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "contacts.txt"
        path.write_text("# demo\n1 2 0 120\n2 3 60 240  # overlap\n\n")
        records = read_contact_file(path)
        assert records == [ContactRecord(1, 2, 0, 120), ContactRecord(2, 3, 60, 240)]

    def test_crlf_line_endings_read_the_same(self, tmp_path):
        path = tmp_path / "contacts.txt"
        path.write_bytes(b"# demo\r\n1 2 0 120\r\n\r\n2 3 60 240  # overlap\r\n")
        records = [ContactRecord(1, 2, 0, 120), ContactRecord(2, 3, 60, 240)]
        assert read_contact_file(path) == records

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2 0 5\n1 3\xff 0 5\n")
        with pytest.raises(ValueError) as info:
            read_contact_file(path)
        assert str(info.value).startswith(f"{path}: line 2: 'utf-8' codec can't decode byte 0xff")

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

    def test_mean_degree_needs_a_length(self):
        graph = scripted([1, 2], [[(1, 2)]])
        with pytest.raises(ValueError, match="pass rounds explicitly"):
            mean_instantaneous_degree(graph)
        assert mean_instantaneous_degree(graph, rounds=4) == 1.0
        assert mean_instantaneous_degree(scripted([], []), rounds=4) == 0.0

    def test_mean_degree_rejects_zero_rounds(self):
        graph = scripted([1, 2], [[(1, 2)]])
        with pytest.raises(ValueError, match=r"^rounds must be >= 1, got 0$"):
            mean_instantaneous_degree(graph, rounds=0)

    def test_mean_degree_rejects_negative_rounds(self):
        graph = scripted([1, 2], [[(1, 2)]])
        with pytest.raises(ValueError, match=r"^rounds must be >= 1, got -3$"):
            mean_instantaneous_degree(graph, rounds=-3)
