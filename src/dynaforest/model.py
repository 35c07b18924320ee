"""Shared domain types: node state, messages, edge sets, evolving graphs.

Everything here is plain data.  Values are immutable snapshots once a round
completes and are safe to share read-only across parallel experiment runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

NodeId = int
Score = int

# Unordered edge, stored canonically with the smaller id first.
Edge = tuple[NodeId, NodeId]
EdgeSet = frozenset


class Status(enum.Enum):
    """T = holds a token (is a root), N = ordinary node."""

    T = "T"
    N = "N"


class Action(enum.Enum):
    FLIP = "FLIP"
    SELECT = "SELECT"
    HELLO = "HELLO"


@dataclass(frozen=True, slots=True)
class Message:
    """The five-field wire unit exchanged each round.

    Invariants enforced at construction: a SELECT announces status N, a FLIP
    announces status T, and only FLIP/SELECT carry a target.
    """

    sender: NodeId
    sender_status: Status
    action: Action
    target: Optional[NodeId]
    score: Score

    def __post_init__(self):
        if self.sender <= 0:
            raise ValueError(f"sender id must be positive, got {self.sender}")
        if self.score <= 0:
            raise ValueError(f"score must be positive, got {self.score}")
        if self.action is Action.HELLO:
            if self.target is not None:
                raise ValueError("HELLO messages carry no target")
        else:
            if self.target is None:
                raise ValueError(f"{self.action.value} messages need a target")
            if self.target == self.sender:
                raise ValueError("a node never targets itself")
            if self.action is Action.SELECT and self.sender_status is not Status.N:
                raise ValueError("SELECT messages announce status N")
            if self.action is Action.FLIP and self.sender_status is not Status.T:
                raise ValueError("FLIP messages announce status T")


@dataclass(frozen=True, slots=True)
class NodeState:
    """Per-node protocol state after a round: what the next round reads.

    `out_message` is the message the node sends at the start of the next
    round; everything else a step computes is local to that step.
    """

    id: NodeId
    status: Status
    parent: Optional[NodeId]
    children: frozenset
    score: Score
    out_message: Message

    def __post_init__(self):
        if self.id <= 0:
            raise ValueError(f"node id must be positive, got {self.id}")
        if self.parent == self.id:
            raise ValueError(f"node {self.id} cannot be its own parent")
        if self.parent is not None and self.parent in self.children:
            raise ValueError(f"node {self.id}: parent {self.parent} is also a child")


@dataclass(frozen=True, slots=True)
class Configuration:
    """The union of all node states after a round (round 0 = initial state).

    `states` is keyed by node id and iterates in ascending id order so that
    simulations are byte-for-byte reproducible.
    """

    round: int
    states: Mapping[NodeId, NodeState]

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round index cannot be negative")
        for nid, st in self.states.items():
            if nid != st.id:
                raise ValueError(f"states key {nid} holds state of node {st.id}")

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.states)


def make_edge(u: NodeId, v: NodeId) -> Edge:
    """Canonical unordered edge: smaller id first, self-loops rejected."""
    if u == v:
        raise ValueError(f"self-loop {{{u},{v}}} is not a valid edge")
    if u <= 0 or v <= 0:
        raise ValueError(f"edge endpoints must be positive ids, got {{{u},{v}}}")
    return (u, v) if u < v else (v, u)


def make_edge_set(pairs: Iterable) -> EdgeSet:
    """Build an EdgeSet from (u, v) pairs given in either order."""
    return frozenset(make_edge(u, v) for u, v in pairs)


@dataclass
class EvolvingGraph:
    """Static vertex set plus a round-indexed edge-set producer (the adversary).

    `schedule(i)` yields E_i for round i >= 1 and is deterministic given the
    generator's construction parameters and seed.  `rounds` is the adversary's
    natural length when it has one (contact traces); None means unbounded.
    """

    vertices: frozenset
    schedule: Callable[[int], EdgeSet]
    params: dict = field(default_factory=dict)
    rounds: Optional[int] = None


@dataclass(frozen=True)
class PseudoForest:
    """Directed parent arcs (child, parent), outdegree <= 1 per vertex.

    `dangling` records parent pointers whose physical edge was absent in the
    round's edge set: a graph-consistency violation reported as data rather
    than silently dropped.
    """

    arcs: frozenset
    dangling: tuple = ()


def resulting_forest(config: Configuration, edges: EdgeSet) -> PseudoForest:
    """The pseudoforest a round leaves behind: parent arcs filtered by E_i.

    Nodes with no parent contribute no arc.  A parent arc without a matching
    edge lands in `dangling` instead of `arcs`.
    """
    arcs = []
    dangling = []
    for nid in sorted(config.states):
        parent = config.states[nid].parent
        if parent is None:
            continue
        if make_edge(nid, parent) in edges:
            arcs.append((nid, parent))
        else:
            dangling.append((nid, parent))
    return PseudoForest(arcs=frozenset(arcs), dangling=tuple(dangling))
