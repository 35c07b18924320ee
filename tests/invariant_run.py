"""One run of acceptance criterion 1, importable by a spawned worker process.

`check_run(n, p_birth, p_death, lazy, seed, rounds)` simulates `rounds`
rounds of the edge-Markov adversary with those settings, graph and protocol
seeded alike, and checks every invariant in every round.  It returns None,
or the failure text of the first round with a violation, which names the
settings, the seed and the round.
"""

from dynaforest import engine, topology
from dynaforest.analysis import run_all_checks
from dynaforest.topology import EdgeMarkovParams


def check_run(n, p_birth, p_death, lazy, seed, rounds):
    graph = topology.edge_markov(
        EdgeMarkovParams(n=n, p_birth=p_birth, p_death=p_death, seed=seed)
    )
    for i, edges, config in engine.iter_run(graph, rounds=rounds, seed=seed, lazy=lazy):
        violations = run_all_checks(config, edges)
        if violations:
            return (
                f"n={n} p=({p_birth},{p_death}) lazy={lazy} seed={seed} "
                f"round {i}: {[str(v) for v in violations]}"
            )
    return None
