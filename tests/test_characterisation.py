"""Characterisation tests: what the protocol does today, not what it must do.

The paper claims that the trees per component converge to one once the
network stops changing.  On a sparse static graph the implementation shows
that only for the lazy variant: the non-lazy one can keep two or more tokens
in one component for as long as it runs.  These tests pin both behaviours on
three fixed static trees:

- the 4-node path 3-1-2-4, the smallest witness.  In round 1 node 1 SELECTs
  3 and node 2 SELECTs 4; from round 2 on the trees {3, 1} and {4, 2} swap
  their tokens in lockstep, so whenever the tokens sit on the adjacent nodes
  1 and 2, each scans a previous round in which the other was N.  No random
  draw decides this, so every seed keeps two trees;
- a 12-node random recursive tree, where the non-lazy run keeps two trees;
- a 78-node random recursive tree, the paper's network size, where the
  non-lazy run still holds 15 trees at round 20 000.

A failure means the behaviour moved, which may well be a fix; update the
pinned figures together with the protocol docstring and `run --help`.
"""

import random

import pytest

from dynaforest import engine, topology
from dynaforest.analysis import trees_per_component


def random_tree(n, rng):
    """Edges of a tree on 1..n: the parent of v is uniform in 1..v-1."""
    return [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]


PATH = [(1, 2), (1, 3), (2, 4)]  # the path 3-1-2-4
TREE = random_tree(12, random.Random(0))
TREE_78 = random_tree(78, random.Random(0))


def token_counts(n, tree, rounds, seed, lazy):
    """The number of trees after each round of the static graph `tree`."""
    graph = topology.scripted(range(1, n + 1), [tree])
    return [
        trees_per_component(config, edges).trees
        for _, edges, config in engine.iter_run(graph, rounds, seed, lazy)
    ]


def test_characterisation_non_lazy_keeps_two_trees_on_a_static_tree():
    trees = token_counts(12, TREE, 5000, seed=7, lazy=False)
    # two trees from round 38 to the last round; never one
    assert trees.index(2) == 37
    assert set(trees[37:]) == {2}


def test_characterisation_lazy_converges_on_the_same_tree():
    trees = token_counts(12, TREE, 5000, seed=7, lazy=True)
    # one tree from round 63 on
    assert trees.index(1) == 62
    assert set(trees[62:]) == {1}


@pytest.mark.parametrize("seed", range(5))
def test_characterisation_non_lazy_path_of_four_keeps_two_trees(seed):
    trees = token_counts(4, PATH, 10_000, seed, lazy=False)
    # four trees after round 1, then two in every round through 10 000
    assert trees[0] == 4
    assert set(trees[1:]) == {2}


@pytest.mark.parametrize("seed, first", [(0, 14), (1, 8), (2, 18), (3, 9), (4, 5)])
def test_characterisation_lazy_path_of_four_converges(seed, first):
    trees = token_counts(4, PATH, 1000, seed, lazy=True)
    assert trees.index(1) == first - 1
    assert set(trees[first - 1:]) == {1}


def test_characterisation_non_lazy_keeps_many_trees_on_a_78_node_tree():
    trees = token_counts(78, TREE_78, 20_000, seed=1, lazy=False)
    assert trees[-1] == 15


def test_characterisation_lazy_converges_on_the_78_node_tree():
    trees = token_counts(78, TREE_78, 3000, seed=1, lazy=True)
    # one tree from round 1914 to the last round
    assert trees.index(1) == 1913
    assert set(trees[1913:]) == {1}
