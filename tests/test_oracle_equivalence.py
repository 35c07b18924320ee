"""Exhaustive cross-check of the engine against the naive line-by-line
interpreter, compared configuration for configuration: every 3-round edge
schedule on 3 nodes (8 edge subsets per round, 512 schedules) and every
2-round edge schedule on 4 nodes (64 edge subsets per round, 4096 schedules).
"""

import itertools

from dynaforest import engine, topology
from dynaforest.protocol import LAZY_REST_PROBABILITY

from naive_oracle import NaiveSimulation, engine_snapshot


def edge_subsets(vertices):
    all_edges = list(itertools.combinations(vertices, 2))
    return [
        frozenset(combo)
        for size in range(len(all_edges) + 1)
        for combo in itertools.combinations(all_edges, size)
    ]


def run_schedule_both_ways(vertices, schedule, seed, lazy, rest_probability):
    graph = topology.scripted(vertices, [sorted(es) for es in schedule])
    naive = NaiveSimulation(vertices, seed=seed, lazy=lazy, rest_probability=rest_probability)
    mismatches = []
    for i, edges, config in engine.iter_run(
        graph, rounds=len(schedule), seed=seed, lazy=lazy, rest_probability=rest_probability
    ):
        naive.round(edges)
        if engine_snapshot(config) != naive.snapshot():
            mismatches.append((i, engine_snapshot(config), naive.snapshot()))
    return mismatches


def sweep(seed, lazy, vertices=(1, 2, 3), rounds=3, rest_probability=LAZY_REST_PROBABILITY):
    failures = []
    for schedule in itertools.product(edge_subsets(vertices), repeat=rounds):
        mismatches = run_schedule_both_ways(vertices, schedule, seed, lazy, rest_probability)
        if mismatches:
            failures.append((schedule, mismatches))
    return failures


def test_all_512_schedules_match_naive_interpreter():
    failures = sweep(seed=0, lazy=False)
    assert failures == [], f"{len(failures)} schedules diverged, first: {failures[0]}"


def test_all_512_schedules_match_with_lazy_walk():
    failures = sweep(seed=3, lazy=True)
    assert failures == [], f"{len(failures)} schedules diverged, first: {failures[0]}"


def test_second_seed_sweep_matches():
    failures = sweep(seed=1, lazy=False)
    assert failures == []


def test_lazy_sweep_matches_at_non_default_rest_probability():
    # under seed 0 the first draws of nodes 1 and 3 (0.34, 0.37) fall between
    # 0.2 and the default 0.5, so resting differs between the two values
    failures = sweep(seed=0, lazy=True, rest_probability=0.2)
    assert failures == [], f"{len(failures)} schedules diverged, first: {failures[0]}"


def test_all_4096_four_node_schedules_match():
    failures = sweep(seed=0, lazy=False, vertices=(1, 2, 3, 4), rounds=2)
    assert failures == [], f"{len(failures)} schedules diverged, first: {failures[0]}"


def test_all_4096_four_node_schedules_match_with_lazy_walk():
    failures = sweep(seed=3, lazy=True, vertices=(1, 2, 3, 4), rounds=2)
    assert failures == [], f"{len(failures)} schedules diverged, first: {failures[0]}"
