"""Characterisation tests: what the protocol does today, not what it must do.

The paper claims that the trees per component converge to one once the
network stops changing.  On a sparse static graph the implementation shows
that only for the lazy variant: the non-lazy one can keep two tokens in one
component for as long as it runs.  These tests pin both behaviours on one
fixed 12-node tree and seed, so that a change to either shows up here.  A
failure means the behaviour moved, which may well be a fix; update the
pinned figures together with the protocol docstring and `run --help`.
"""

import random

from dynaforest import engine, topology
from dynaforest.analysis import trees_per_component

NODES = 12
SEED = 7
ROUNDS = 5000


def random_tree(n, rng):
    """Edges of a tree on 1..n: the parent of v is uniform in 1..v-1."""
    return [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]


TREE = random_tree(NODES, random.Random(0))


def token_counts(lazy):
    """The number of trees after each round of the static tree."""
    graph = topology.scripted(range(1, NODES + 1), [TREE])
    return [
        trees_per_component(config, edges).trees
        for _, edges, config in engine.iter_run(graph, ROUNDS, SEED, lazy)
    ]


def test_characterisation_non_lazy_keeps_two_trees_on_a_static_tree():
    trees = token_counts(lazy=False)
    # two trees from round 38 to the last round; never one
    assert trees.index(2) == 37
    assert set(trees[37:]) == {2}


def test_characterisation_lazy_converges_on_the_same_tree():
    trees = token_counts(lazy=True)
    # one tree from round 63 on
    assert trees.index(1) == 62
    assert set(trees[62:]) == {1}
