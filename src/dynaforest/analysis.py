"""Executable forms of the proved properties plus the experiment metrics.

Every checker returns violations as data (all of them, not just the first);
an empty list certifies the property.  On engine-produced runs all six
properties hold after every round, whatever the adversary does -- that is
the whole point, and the checkers are how the test suite enforces it.

`run_all_checks` certifies before it diagnoses.  One certifier,
`_certified`, tests all six properties in a single pass over the states and
holds exactly when the five checkers would all return [].  Only when it
fails do the five checkers run, each building its diagnostics (sorted
lists, chain groups, messages) in full.

The trees-per-component metric counts components with `component_count`, a
union-find over E_i that needs no adjacency and stops once V is a single
component.  It trusts that E_i lies within V, which the engine has already
checked for every E_i a run yields (see `component_count`).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import _T, Configuration, EdgeSet, foreign_endpoint


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
    scores = Counter(st.score for st in states.values())
    ids = Counter(states.keys())
    extra = sorted((scores - ids).elements())
    missing = sorted((ids - scores).elements())
    if not extra and not missing:
        return []
    extra_scores = set(extra)
    holders = sorted(u for u in states if states[u].score in extra_scores)
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

    Each node has at most one parent arc, so a weakly connected pseudotree
    of k nodes and r roots has k - r arcs.  Being connected, it has at least
    k - 1 arcs, so r <= 1.  With r = 1 it has k - 1 arcs and is a tree: every
    chain in it reaches the root.  With r = 0 it has k arcs and one cycle,
    and no chain in it reaches a root.  So the pseudotrees without exactly
    one root are the groups of nodes whose chains never reach a root, one
    group per cycle those chains enter, and each has 0 roots.
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
    cycle_of: dict = {}  # node whose chain never reaches a root -> its cycle's key
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
            # `cur` was keyed by an earlier walk, or else this walk went
            # round the cycle and `cur` is on it
            key = cycle_of.get(cur, cur)
            for node in path:
                cycle_of[node] = key
            cyclic.append(u)
    if not cyclic:
        return []  # out-degree <= 1 and acyclic: one root per pseudotree

    # `cyclic` ascends, so the groups come ordered by smallest member
    groups: dict = {}
    for u in cyclic:
        groups.setdefault(cycle_of[u], []).append(u)
    violations = [
        Violation(
            config.round,
            ViolationKind.MultiRootPseudotree,
            f"pseudotree of nodes {members} has 0 roots []",
        )
        for members in groups.values()
    ]
    for u in cyclic:
        violations.append(
            Violation(
                config.round,
                ViolationKind.CyclicPseudotree,
                f"parent chain from node {u} never reaches a root",
            )
        )
    return violations


def _certified(config: Configuration, edges: EdgeSet) -> bool:
    """True exactly when the five checkers would all return [].

    One pass over the states tests, for each node u with parent v: v is a
    vertex listing u among its children, the edge {u,v} is in E_i, and u
    holds no token; and for each node without a parent, that it holds one.
    Then:
    - Forest consistency: the parent arcs are as many as the child entries.
      Each arc names its own entry (a node has one parent), so the arcs
      account for every entry and no entry is stale.
    - Score permutation: the set of scores equals the set of ids.  There is
      one score per node and the ids are unique, so the two multisets are
      then equal.
    - Correct forest: every parent chain reaches a root within |V| hops.
      With the entries exact, a child entry is a parent arc read backwards,
      so a walk down the children from the roots reaches each node once,
      exactly the nodes whose chain ends at a root.  All nodes are reached
      only when no chain enters a cycle.  The arcs all lie in E_i, so the
      checker's filter on them changes nothing.
    """
    states = config.states
    roots = []
    arcs = entries = 0
    for u, st in states.items():
        v = st.parent
        if v is None:
            if st.status is not _T:
                return False
            roots.append(u)
        else:
            partner = states.get(v)
            if (
                st.status is _T
                or partner is None
                or u not in partner.children
                or ((u, v) if u < v else (v, u)) not in edges
            ):
                return False
            arcs += 1
        entries += len(st.children)
    if arcs != entries or {st.score for st in states.values()} != states.keys():
        return False
    reached = 0
    level = roots
    while level:
        reached += len(level)
        level = [c for u in level for c in states[u].children]
    return reached == len(states)


def run_all_checks(config: Configuration, edges: EdgeSet) -> list:
    """All six properties at once; empty means the round is certified."""
    if _certified(config, edges):
        return []
    return (
        check_forest_consistency(config)
        + check_graph_consistency(config, edges)
        + check_state_consistency(config)
        + check_score_permutation(config)
        + check_correct_forest(config, edges)
    )


def component_count(vertices: Iterable, edges: EdgeSet) -> int:
    """The number of components of (V, edges): a union-find with path halving.

    Each edge that joins two components lowers the count by one, and the
    walk stops at the first edge that leaves V a single component.

    Precondition: every edge endpoint lies in V.  A foreign endpoint met
    before the stop raises ValueError with `model.foreign_endpoint`'s text;
    the edges after the stop are not looked at.  `iter_run` guarantees the
    precondition, because `run_round` raises EngineError with that text
    before the metrics see that E_i.  Checking the rest of the edges again
    would cost 300-330 us instead of 80-90 us per round of a churny 100-node
    edge-Markov run, which is one component with about 2460 edges (CPython
    3.11, 2 shared vCPUs).
    """
    leader = {u: u for u in vertices}
    count = len(leader)
    try:
        for u, v in edges:
            while (up := leader[u]) != u:  # path halving
                leader[u] = u = leader[up]
            while (vp := leader[v]) != v:
                leader[v] = v = leader[vp]
            if u != v:
                leader[u] = v
                count -= 1
                if count == 1:
                    break
    except KeyError:
        raise ValueError(foreign_endpoint(leader, edges)) from None
    return count


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
        components = component_count(config.states.keys(), edges)
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
            mean_trees_per_component=mean(ratios),
            fraction_optimal_rounds=optimal / len(self.per_round),
        )


def mean(values: Sequence[float]) -> float:
    """The mean of `values`, added left to right, one float addition at a time.

    Not `sum()`: since Python 3.12 it compensates the rounding of a float sum
    (Neumaier), so the same run would write other last digits on 3.12 than on
    3.10 and 3.11.  Plain addition gives the 3.10/3.11 bytes on every version.
    """
    return reduce(add, values) / len(values)


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
