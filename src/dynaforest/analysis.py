"""Executable forms of the proved properties plus the experiment metrics.

Every checker returns violations as data (all of them, not just the first);
an empty list certifies the property.  On engine-produced runs all six
properties hold after every round, whatever the adversary does -- that is
the whole point, and the checkers are how the test suite enforces it.

The trees-per-component metric counts components by a flood fill over
`model.adjacency`, the same adjacency the engine builds for E_i.  Each E_i
is therefore walked once per round, summed over the engine and the metrics:
the builder's one-slot memo returns the engine's adjacency when the metrics
ask for the same edge-set object over an equal vertex set.  That is exact
because both are immutable, and the memo is dropped when its edge set is
freed, so no other set can match it by identity.

The checkers certify first and diagnose only on failure: each first runs the
cheapest test whose success implies an empty verdict, and builds the
diagnostics (sorted lists, union-find, messages) only when that test fails.
Three of those tests need an argument:
- `check_forest_consistency` returns [] when every parent arc u -> v has u
  among v's children and the arcs are as many as the child entries.  Each
  arc then names its own entry (a node has one parent), so the arcs account
  for every entry and no entry is stale.
- `check_score_permutation` returns [] when the set of scores equals the set
  of ids.  There is one score per node and the ids are unique, so the two
  multisets are then equal.
- `check_correct_forest` returns [] when every parent chain reaches a root.
  Parent arcs come from a dict, so each node has out-degree <= 1.  In such a
  graph a weakly connected part with no directed cycle is a tree of k nodes
  and k - 1 arcs, so it has exactly one root: `MultiRootPseudotree` cannot
  fire either.  Otherwise the union-find and the chain diagnostics run as
  before, so the kinds, details and order of the violations are unchanged.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import Configuration, EdgeSet, Status, adjacency


# Enum members read in per-node loops, bound once.  On CPython 3.11 a lookup
# such as `Status.T` costs about 0.17 us, a module global about 0.02 us.
_T = Status.T


class ViolationKind(enum.Enum):
    ForestConsistency = "ForestConsistency"
    GraphConsistency = "GraphConsistency"
    StateConsistency = "StateConsistency"
    ScorePermutation = "ScorePermutation"
    MultiRootPseudotree = "MultiRootPseudotree"
    CyclicPseudotree = "CyclicPseudotree"


@dataclass(frozen=True)
class Violation:
    round: int
    kind: ViolationKind
    detail: str

    def __str__(self):
        return f"round {self.round}: {self.kind.value}: {self.detail}"


class RoundMetrics(NamedTuple):
    """(components, trees, ratio) for one round."""

    components: int
    trees: int
    ratio: float


@dataclass(frozen=True)
class MetricsSummary:
    """Per-round and aggregate trees-per-component statistics."""

    per_round: tuple
    mean_trees_per_component: float
    fraction_optimal_rounds: float


def check_forest_consistency(config: Configuration) -> list:
    """parent(u) = v must hold exactly when u is in children(v)."""
    states = config.states
    arcs = 0
    for u, st in states.items():
        v = st.parent
        if v is not None:
            partner = states.get(v)
            if partner is None or u not in partner.children:
                break
            arcs += 1
    else:
        if arcs == sum(len(st.children) for st in states.values()):
            return []  # each arc is listed once, and no child entry is left over

    violations = []
    for u in sorted(states):
        st = states[u]
        v = st.parent
        if v is not None:
            partner = states.get(v)
            if partner is None or u not in partner.children:
                violations.append(
                    Violation(
                        config.round,
                        ViolationKind.ForestConsistency,
                        f"node {u} has parent {v} but is not among its children",
                    )
                )
        if not st.children:
            continue
        for c in sorted(st.children):
            child = states.get(c)
            if child is None or child.parent != u:
                violations.append(
                    Violation(
                        config.round,
                        ViolationKind.ForestConsistency,
                        f"node {u} lists child {c} whose parent is "
                        f"{child.parent if child else 'missing'}",
                    )
                )
    return violations


def check_graph_consistency(config: Configuration, edges: EdgeSet) -> list:
    """Every parent pointer must sit on a physically present edge."""
    violations = []
    states = config.states
    for u in sorted(states):
        v = states[u].parent
        # the canonical edge, built without `make_edge`'s checks: a parent
        # that is no valid id is reported here, not raised
        if v is not None and ((u, v) if u < v else (v, u)) not in edges:
            violations.append(
                Violation(
                    config.round,
                    ViolationKind.GraphConsistency,
                    f"node {u} has parent {v} but edge {{{u},{v}}} is absent",
                )
            )
    return violations


def check_state_consistency(config: Configuration) -> list:
    """Holding a token and having no parent must coincide."""
    violations = []
    states = config.states
    for u in sorted(states):
        st = states[u]
        if (st.status is _T) != (st.parent is None):
            violations.append(
                Violation(
                    config.round,
                    ViolationKind.StateConsistency,
                    f"node {u} has status {st.status.value} with parent {st.parent}",
                )
            )
    return violations


def check_score_permutation(config: Configuration) -> list:
    """The multiset of scores must equal the multiset of node ids."""
    states = config.states
    scores = [st.score for st in states.values()]
    if set(scores) == states.keys():
        return []  # one score per node and unique ids: the multisets are equal
    scores = Counter(scores)
    ids = Counter(states.keys())
    extra = sorted((scores - ids).elements())
    missing = sorted((ids - scores).elements())
    holders = sorted(u for u in states if states[u].score in set(extra))
    return [
        Violation(
            config.round,
            ViolationKind.ScorePermutation,
            f"scores {extra} duplicated/foreign (held by nodes {holders}), "
            f"ids {missing} unaccounted for",
        )
    ]


def check_correct_forest(config: Configuration, edges: EdgeSet) -> list:
    """Each pseudotree must contain exactly one root and no cycle.

    Works on the resulting pseudoforest: parent arcs present in E_i (a no-op
    filter on graph-consistent configurations) whose parent is a vertex; an
    arc to a non-vertex is ForestConsistency's to report.  Empty output
    certifies every node's parent chain ends at a root.
    """
    states = config.states
    parent_of = {}
    for u, st in states.items():
        v = st.parent
        if v is not None and v in states and ((u, v) if u < v else (v, u)) in edges:
            parent_of[u] = v
    vertices = sorted(states)

    # Every parent chain must reach a root within |V| hops.
    cyclic = []
    reaches_root: dict = {}
    limit = len(vertices)
    for u in vertices:
        path = []
        cur = u
        while cur in parent_of and cur not in reaches_root and len(path) <= limit:
            path.append(cur)
            cur = parent_of[cur]
        ok = cur not in parent_of or reaches_root.get(cur, False)
        for node in path:
            reaches_root[node] = ok
        if not ok:
            cyclic.append(u)
    if not cyclic:
        return []  # out-degree <= 1 and acyclic: one root per pseudotree

    violations = []
    # Partition into weakly connected pseudotrees via union-find.
    leader = {u: u for u in vertices}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for child, parent in parent_of.items():
        a, b = find(child), find(parent)
        if a != b:
            leader[max(a, b)] = min(a, b)

    roots_by_tree: dict = {}
    members_by_tree: dict = {}
    for u in vertices:
        tree = find(u)
        members_by_tree.setdefault(tree, []).append(u)
        if u not in parent_of:
            roots_by_tree.setdefault(tree, []).append(u)

    for tree, members in sorted(members_by_tree.items()):
        roots = roots_by_tree.get(tree, [])
        if len(roots) != 1:
            violations.append(
                Violation(
                    config.round,
                    ViolationKind.MultiRootPseudotree,
                    f"pseudotree of nodes {members} has {len(roots)} roots {roots}",
                )
            )

    for u in cyclic:
        violations.append(
            Violation(
                config.round,
                ViolationKind.CyclicPseudotree,
                f"parent chain from node {u} never reaches a root",
            )
        )
    return violations


def run_all_checks(config: Configuration, edges: EdgeSet) -> list:
    """All six properties at once; empty means the round is certified."""
    return (
        check_forest_consistency(config)
        + check_graph_consistency(config, edges)
        + check_state_consistency(config)
        + check_score_permutation(config)
        + check_correct_forest(config, edges)
    )


def connected_components(vertices: Iterable, edges: EdgeSet) -> tuple:
    """Undirected components, canonically ordered by smallest member id.

    A flood fill over `model.adjacency`, which the engine has usually built
    for the same round already.  Raises ValueError for an edge endpoint
    outside `vertices`.
    """
    neighbours = adjacency(vertices, edges)
    seen: set = set()
    parts = []
    for u in sorted(neighbours):
        if u in seen:
            continue
        part = {u}
        frontier = neighbours[u] - part
        while frontier:
            part |= frontier
            frontier = set().union(*map(neighbours.__getitem__, frontier)) - part
        seen |= part
        parts.append(frozenset(part))
    return tuple(parts)


def trees_per_component(
    config: Configuration, edges: EdgeSet, components: Optional[int] = None
) -> RoundMetrics:
    """Count tokens and physical components; ratio 1.0 is the optimum.

    Every component hosts at least one token on valid configurations, so the
    ratio is >= 1 whenever there is a component at all.  An empty vertex set
    counts as vacuously optimal.  `components`, when given, is the known
    component count of (V, edges) and is not recomputed.
    """
    trees = sum(1 for st in config.states.values() if st.status is _T)
    if components is None:
        components = len(connected_components(config.states.keys(), edges))
    ratio = trees / components if components else 1.0
    return RoundMetrics(components, trees, ratio)


class MetricsAccumulator:
    """Streaming per-round metrics of one run, fed (i, E_i, C_i) once per round.

    The component count is reused while the round's `edges` is the same
    object as the previous round's, and a round whose metrics equal the
    previous round's stores that same `RoundMetrics` object, so quiet
    stretches of a long run cost one reference per round.
    """

    def __init__(self):
        self.per_round: list = []
        self._edges = None

    def __call__(self, i: int, edges: EdgeSet, config: Configuration) -> None:
        last = self.per_round[-1] if self.per_round else None
        known = last.components if edges is self._edges else None
        metrics = trees_per_component(config, edges, known)
        self.per_round.append(last if metrics == last else metrics)
        self._edges = edges

    def summary(self) -> MetricsSummary:
        if not self.per_round:
            raise ValueError("no rounds observed")
        ratios = [m.ratio for m in self.per_round]
        optimal = sum(1 for m in self.per_round if m.trees == m.components)
        return MetricsSummary(
            per_round=tuple(self.per_round),
            mean_trees_per_component=sum(ratios) / len(ratios),
            fraction_optimal_rounds=optimal / len(self.per_round),
        )


def round_csv_lines(summary: MetricsSummary) -> list:
    """CSV rows for one run: round,components,trees,ratio."""
    lines = ["round,components,trees,ratio"]
    for i, m in enumerate(summary.per_round, start=1):
        lines.append(f"{i},{m.components},{m.trees},{m.ratio!r}")
    return lines


def aggregate_csv_lines(rows: Sequence[tuple]) -> list:
    """CSV rows across seeds: seed,meanTreesPerComponent,fractionOptimalRounds."""
    lines = ["seed,meanTreesPerComponent,fractionOptimalRounds"]
    for seed, summary in rows:
        lines.append(
            f"{seed},{summary.mean_trees_per_component!r},"
            f"{summary.fraction_optimal_rounds!r}"
        )
    return lines
