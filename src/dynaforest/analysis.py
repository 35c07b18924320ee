"""Executable forms of the proved properties plus the experiment metrics.

Every checker returns violations as data (all of them, not just the first);
an empty list certifies the property.  On engine-produced runs all six
properties hold after every round, whatever the adversary does -- that is
the whole point, and the checkers are how the test suite enforces it.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .engine import RoundHook, Trace
from .model import Configuration, EdgeSet, NodeId, make_edge, resulting_forest
from .model import Status


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
    violations = []
    states = config.states
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
    for u in sorted(config.states):
        v = config.states[u].parent
        if v is not None and make_edge(u, v) not in edges:
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
    for u in sorted(config.states):
        st = config.states[u]
        if (st.status is Status.T) != (st.parent is None):
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
    scores = Counter(st.score for st in states.values())
    ids = Counter(states.keys())
    if scores == ids:
        return []
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

    Works on the resulting pseudoforest (parent arcs filtered by E_i; the
    filter is a no-op on graph-consistent configurations).  Empty output
    certifies every node's parent chain ends at a root.
    """
    violations = []
    forest = resulting_forest(config, edges)
    parent_of = dict(forest.arcs)
    vertices = sorted(config.states)

    # Partition into weakly connected pseudotrees via union-find.
    leader = {u: u for u in vertices}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for child, parent in forest.arcs:
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

    # Every parent chain must reach a root within |V| hops.
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


class InvariantViolation(AssertionError):
    """Raised by the checker hook; carries the violations for diagnostics."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = list(violations)


def checker_hook() -> RoundHook:
    """A RoundHook that aborts the run on the first violating round."""

    def hook(i: int, edges: EdgeSet, config: Configuration) -> None:
        violations = run_all_checks(config, edges)
        if violations:
            raise InvariantViolation(violations)

    return hook


def connected_components(vertices: Iterable, edges: EdgeSet) -> tuple:
    """Undirected components, canonically ordered by smallest member id."""
    vertex_list = sorted(vertices)
    vertex_set = set(vertex_list)
    leader = {u: u for u in vertex_list}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for u, v in edges:
        if u not in vertex_set or v not in vertex_set:
            raise ValueError(f"edge {{{u},{v}}} has an endpoint outside the vertices")
        a, b = find(u), find(v)
        if a != b:
            leader[max(a, b)] = min(a, b)

    groups: dict = {}
    for u in vertex_list:
        groups.setdefault(find(u), []).append(u)
    return tuple(frozenset(members) for _, members in sorted(groups.items()))


def trees_per_component(
    config: Configuration, edges: EdgeSet, components: Optional[int] = None
) -> RoundMetrics:
    """Count tokens and physical components; ratio 1.0 is the optimum.

    Every component hosts at least one token on valid configurations, so the
    ratio is >= 1 whenever there is a component at all.  An empty vertex set
    counts as vacuously optimal.  `components`, when given, is the known
    component count of (V, edges) and is not recomputed.
    """
    trees = sum(1 for st in config.states.values() if st.status is Status.T)
    if components is None:
        components = len(connected_components(config.states.keys(), edges))
    ratio = trees / components if components else 1.0
    return RoundMetrics(components, trees, ratio)


class MetricsAccumulator:
    """Streaming per-round metrics of one run; usable directly as a RoundHook.

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


def summarize(trace: Trace) -> MetricsSummary:
    """Aggregate a retained trace (rounds 1..k; C_0 is not a round)."""
    if not trace.edge_sets:
        raise ValueError("trace holds no rounds")
    acc = MetricsAccumulator()
    for i, edges in enumerate(trace.edge_sets, start=1):
        acc(i, edges, trace.configurations[i])
    return acc.summary()


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
