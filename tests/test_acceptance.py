"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The invariant sweep
(criterion 1) and the 78-node experiment analogue (criterion 5) dominate the
runtime; the whole suite finishes in a few minutes.
"""

import functools
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from dynaforest import analysis, cli, engine, topology
from dynaforest.analysis import run_all_checks, trees_per_component
from dynaforest.model import Action, Status, make_edge
from dynaforest.topology import ContactRecord, EdgeMarkovParams

from invariant_run import check_run
from test_engine import run_history
from test_oracle_equivalence import sweep


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


# -- 1. invariant suite ------------------------------------------------------

P_GRID = (0.05, 0.3, 0.9)
SEEDS_PER_N = {5: 6, 20: 4, 50: 2, 100: 1}  # 9 * 2 * (6+4+2+1) = 234 runs
ROUNDS = 1000
CRITERION_1_WORKERS = 4  # at most; each holds its own interpreter and numpy


@criterion(1, "invariant suite")
def test_criterion_1_invariant_suite():
    settings = []
    for n, seed_count in SEEDS_PER_N.items():
        for p_birth, p_death in itertools.product(P_GRID, P_GRID):
            for lazy in (False, True):
                for offset in range(seed_count):
                    seed = len(settings)  # distinct, deterministic seed per run
                    settings.append((n, p_birth, p_death, lazy, seed, ROUNDS))
    # the runs are independent; each worker imports numpy and dynaforest afresh
    workers = min(CRITERION_1_WORKERS, os.cpu_count() or 1)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        failures = list(pool.map(check_run, *zip(*settings)))
    runs = len(failures)
    for failure in failures:
        assert failure is None, failure
    assert runs >= 200, f"only {runs} (seed, adversary) pairs exercised"


# -- 2. instant regeneration -------------------------------------------------

@criterion(2, "instant regeneration")
def test_criterion_2_instant_regeneration():
    n, warmup = 32, 40
    complete = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for k in (1, 5, 20):
        # phase 1: converge to a single spanning tree on the complete graph
        probe = topology.scripted(range(1, n + 1), [complete])
        configurations, _ = run_history(probe, warmup, seed=0)
        settled = configurations[-1]
        roots = [u for u, st in settled.states.items() if st.status is Status.T]
        assert len(roots) == 1, "warmup did not reach a single tree"
        arcs = sorted(
            (u, st.parent) for u, st in settled.states.items() if st.parent is not None
        )
        assert len(arcs) >= k
        severed = {make_edge(u, v) for u, v in arcs[:k]}

        # phase 2: identical run, then the adversary severs k tree edges at once
        script = [complete] * warmup + [[e for e in complete if e not in severed]]
        configurations, edge_sets = run_history(
            topology.scripted(range(1, n + 1), script), warmup + 1, seed=0
        )
        assert configurations[warmup] == settled  # determinism replayed phase 1
        cut_round = configurations[warmup + 1]
        cut_edges = edge_sets[warmup]

        assert run_all_checks(cut_round, cut_edges) == []
        roots_after = [u for u, st in cut_round.states.items() if st.status is Status.T]
        assert len(roots_after) == 1 + k, (
            f"severing {k} tree edges left {len(roots_after)} roots"
        )
        # every severed child regenerated in that same round
        for child, parent in arcs[:k]:
            assert cut_round.states[child].status is Status.T


# -- 3. score-swap oracle ----------------------------------------------------

@criterion(3, "score-swap oracle")
def test_criterion_3_score_swap_oracle():
    harvested = 0
    for seed in range(10):
        graph = topology.edge_markov(
            EdgeMarkovParams(n=40, p_birth=0.15, p_death=0.15, seed=seed)
        )
        prev = engine.initial_configuration(graph.vertices)
        ids = sorted(prev.states)
        for i, edges, config in engine.iter_run(graph, rounds=600, seed=seed):
            for u, st in prev.states.items():
                if st.action is not Action.FLIP:
                    continue
                v = st.target
                if make_edge(u, v) not in edges:
                    continue
                before = (st.score, prev.states[v].score)
                after = (config.states[u].score, config.states[v].score)
                assert after == (min(before), max(before)), (
                    f"seed {seed} round {i}: flip {u}->{v} scores {before} -> {after}"
                )
                harvested += 1
            assert sorted(s.score for s in config.states.values()) == ids
            prev = config
    assert harvested >= 10_000, f"only {harvested} successful FLIPs harvested"
    print(f"  ({harvested} successful FLIPs checked)", end="")


# -- 4. convergence on static graphs ----------------------------------------

def connected_nonbipartite_edges(n, p, seed):
    import random

    rng = random.Random(seed)
    while True:
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
        ]
        adjacency = {u: set() for u in range(1, n + 1)}
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        color = {1: 0}
        stack = [1]
        bipartite = True
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False
        if len(color) == n and not bipartite:
            return edges


@criterion(4, "convergence on static graphs")
def test_criterion_4_convergence_static_lazy():
    n, limit, wanted = 16, 5000, 19
    converged = 0
    for seed in range(20):
        edges = connected_nonbipartite_edges(n, p=0.3, seed=1000 + seed)
        graph = topology.scripted(range(1, n + 1), [edges])
        for i, es, config in engine.iter_run(graph, rounds=limit, seed=seed, lazy=True):
            if trees_per_component(config, es).ratio == 1.0:
                converged += 1
                break
    assert converged >= wanted, f"{converged}/20 seeds converged within {limit} rounds"
    print(f"  ({converged}/20 seeds converged)", end="")


# -- 5. experiment replication (synthetic analogue; dataset not shipped) -----

MEAN_DEGREE_TARGET = 1.3
STATIONARY_DENSITY = MEAN_DEGREE_TARGET / 77  # mean degree 1.3 on 78 nodes
SLOW_P_DEATH = 2e-4  # edge lifetimes ~5000 rounds: contact-trace timescales
SLOW_P_BIRTH = SLOW_P_DEATH * STATIONARY_DENSITY / (1 - STATIONARY_DENSITY)


@criterion(5, "78-node experiment analogue")
def test_criterion_5_synthetic_experiment_analogue():
    for seed in (1, 2, 3):
        graph = topology.edge_markov(
            EdgeMarkovParams(n=78, p_birth=SLOW_P_BIRTH, p_death=SLOW_P_DEATH, seed=seed)
        )
        acc = analysis.MetricsAccumulator()
        for i, edges, config in engine.iter_run(graph, rounds=30_000, seed=seed, lazy=True):
            acc(i, edges, config)
        summary = acc.summary()
        assert summary.mean_trees_per_component < 1.3, (
            f"seed {seed}: mean {summary.mean_trees_per_component:.4f}"
        )
        assert summary.fraction_optimal_rounds > 0.2, (
            f"seed {seed}: optimal fraction {summary.fraction_optimal_rounds:.4f}"
        )


INFOCOMM_ENV = "DYNAFOREST_INFOCOMM"


@pytest.mark.skipif(INFOCOMM_ENV not in os.environ, reason="real dataset not supplied")
def test_criterion_5_real_dataset_when_available():
    """Full replication against the real contact trace (set DYNAFOREST_INFOCOMM).

    Heavy: 100 seeds at 10 rounds/s and 1 round/s.  Dial the seed count down
    with DYNAFOREST_INFOCOMM_SEEDS when exploring.
    """
    path = os.environ[INFOCOMM_ENV]
    seeds = int(os.environ.get("DYNAFOREST_INFOCOMM_SEEDS", "100"))
    records = topology.read_contact_file(path)
    graph = topology.parse_contact_trace(records, 10)
    assert len(graph.vertices) == 78
    assert abs(topology.mean_instantaneous_degree(graph) - 1.3) <= 0.2

    for rps, mean_expected, optimal_expected in ((10, 1.027, 0.47), (1, 1.080, 0.3268)):
        graph = topology.parse_contact_trace(records, rps)
        means, optima = [], []
        for seed in range(seeds):
            acc = analysis.MetricsAccumulator()
            for i, edges, config in engine.iter_run(graph, graph.rounds, seed=seed):
                acc(i, edges, config)
            summary = acc.summary()
            means.append(summary.mean_trees_per_component)
            optima.append(summary.fraction_optimal_rounds)
        mean = sum(means) / len(means)
        optimal = sum(optima) / len(optima)
        assert abs(mean - mean_expected) <= 0.05
        assert abs(optimal - optimal_expected) <= 0.05


# -- 6. determinism ----------------------------------------------------------

@criterion(6, "byte-identical reruns")
def test_criterion_6_determinism(tmp_path):
    args = [
        "run", "--adversary", "edge-markov", "--nodes", "20", "--p-birth", "0.3",
        "--p-death", "0.3", "--rounds", "300", "--seeds", "0-4", "--lazy",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# -- 7. small-instance oracle equivalence ------------------------------------

@criterion(7, "exhaustive 3-node oracle equivalence")
def test_criterion_7_small_instance_equivalence():
    failures = sweep(seed=0, lazy=False)
    assert failures == [], f"{len(failures)} schedules diverged"
