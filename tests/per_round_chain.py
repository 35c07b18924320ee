"""The edge-Markov chain drawn one uniform per pair per round (dynaforest 0.1.0).

`per_round_edge_markov(params)` is an `EvolvingGraph` with the same vertices
and params as `topology.edge_markov(params)`.  Round i draws one uniform per
pair, in pair order, and a present pair dies when its draw is below p_death,
an absent one is born when its draw is below p_birth.  Its edge sets follow
the same law as the event-driven chain, from a different random stream, so
it reproduces every edge-Markov output of version 0.1.0.  It keeps each
round's set, for the short runs of the tests.
"""

import numpy as np

from dynaforest.model import EvolvingGraph


class _PerRoundChain:
    def __init__(self, params):
        self._params = params
        iu, jv = np.triu_indices(params.n, k=1)
        self._pairs = list(zip((iu + 1).tolist(), (jv + 1).tolist()))
        self._rng = np.random.Generator(np.random.PCG64(params.seed))
        self._present = np.zeros(len(self._pairs), dtype=bool)
        self._sets = []  # round i's edge set at index i - 1

    def __call__(self, i):
        if i < 1:
            raise ValueError(f"round index must be >= 1, got {i}")
        p = self._params
        while len(self._sets) < i:
            draws = self._rng.random(len(self._pairs))
            self._present = np.where(self._present, draws >= p.p_death, draws < p.p_birth)
            edges = frozenset(self._pairs[k] for k in np.flatnonzero(self._present))
            if self._sets and edges == self._sets[-1]:
                edges = self._sets[-1]  # an unchanged E_i is the same object
            self._sets.append(edges)
        return self._sets[i - 1]


def per_round_edge_markov(params) -> EvolvingGraph:
    return EvolvingGraph(
        vertices=frozenset(range(1, params.n + 1)),
        schedule=_PerRoundChain(params),
        params={
            "adversary": "edge-markov",
            "n": params.n,
            "p_birth": params.p_birth,
            "p_death": params.p_death,
            "graph_seed": params.seed,
        },
    )
