"""Shared domain types: node state, messages, edge sets, evolving graphs.

Everything here is plain data.  Values are immutable snapshots once a round
completes and are safe to share read-only across parallel experiment runs.
"""

from __future__ import annotations

import enum
import weakref
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


# Enum members `Message.__post_init__` reads on every message, bound once.  On
# CPython 3.11 a lookup such as `Action.HELLO` costs about 0.17 us, a module
# global about 0.02 us.
_T = Status.T
_N = Status.N
_FLIP = Action.FLIP
_SELECT = Action.SELECT
_HELLO = Action.HELLO


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
        if self.action is _HELLO:
            if self.target is not None:
                raise ValueError("HELLO messages carry no target")
        else:
            if self.target is None:
                raise ValueError(f"{self.action.value} messages need a target")
            if self.target == self.sender:
                raise ValueError("a node never targets itself")
            if self.action is _SELECT and self.sender_status is not _N:
                raise ValueError("SELECT messages announce status N")
            if self.action is _FLIP and self.sender_status is not _T:
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


# The last adjacency built from a frozenset: (vertex frozenset, weak reference
# to the edge set, adjacency).  Dropped when that edge set is freed.
_last_adjacency: Optional[tuple] = None


def _forget_adjacency(edges_ref: weakref.ref) -> None:
    global _last_adjacency
    if _last_adjacency is not None and _last_adjacency[1] is edges_ref:
        _last_adjacency = None


def adjacency(vertices: Iterable, edges: EdgeSet) -> dict:
    """Each vertex's neighbour set in `edges`, in one pass over the edges.

    Raises ValueError naming the first endpoint outside `vertices`.  The
    result is shared: callers read it and never mutate it.  The last result
    built from a frozenset is kept and returned again for the same edge-set
    object and an equal vertex set.  Both are immutable, and while the edge
    set lives no other object has its id, so a hit returns exactly what a
    fresh pass would.  The memo refers to the edge set weakly and is dropped
    with it, so a finished run leaves nothing behind.  The vertex set is
    compared by value, because one edge set can serve different graphs.
    """
    global _last_adjacency
    vertex_set = frozenset(vertices)
    last = _last_adjacency
    if last is not None and last[1]() is edges and vertex_set == last[0]:
        return last[2]
    neighbours = {u: set() for u in vertex_set}
    for u, v in edges:
        try:
            neighbours[u].add(v)
            neighbours[v].add(u)
        except KeyError:
            missing = u if u not in vertex_set else v
            raise ValueError(
                f"edge {{{u},{v}}} endpoint {missing} is not in the vertex set"
            ) from None
    if isinstance(edges, frozenset):
        _last_adjacency = (vertex_set, weakref.ref(edges, _forget_adjacency), neighbours)
    return neighbours


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
