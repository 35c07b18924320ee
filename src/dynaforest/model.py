"""Shared domain types: node state, messages, edge sets, evolving graphs;
and `numbered_lines`, the one rule by which every line-oriented file is
read, with `read_lines` on top of it for the input files.

A node's message is a view of its state: `NodeState` stores the pending
action and target, and `NodeState.out_message` derives the rest.

Everything here is plain data: the module keeps no state of its own, and
`adjacency` builds a fresh dict on every call.  Values are immutable
snapshots once a round completes and are safe to share read-only across
parallel experiment runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

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


# Enum members bound once, here for every module whose per-node loops read
# them.  On CPython 3.11 (2 vCPUs) a lookup such as `Status.T` costs about
# 130 ns, a module global about 10 ns.
_T = Status.T
_N = Status.N
_FLIP = Action.FLIP
_SELECT = Action.SELECT
_HELLO = Action.HELLO


class Message(NamedTuple):
    """The five-field wire unit a node sends at the start of a round.

    Never stored: `NodeState.out_message` builds it from the state on demand.
    """

    sender: NodeId
    sender_status: Status
    action: Action
    target: Optional[NodeId]
    score: Score


@dataclass(frozen=True, slots=True)
class NodeState:
    """Per-node protocol state after a round: what the next round reads.

    `action` and `target` are the FLIP/SELECT the node prepared for the next
    round, or HELLO with no target.  The message the node sends is a view of
    the state (`out_message`); everything else a step computes is local to
    that step.

    Invariants enforced at construction: positive id and score, no parent
    that is the node itself or one of its children, and a target, never the
    node itself, exactly when the action is FLIP or SELECT.
    """

    id: NodeId
    status: Status
    parent: Optional[NodeId]
    children: frozenset
    score: Score
    action: Action = _HELLO
    target: Optional[NodeId] = None

    def __post_init__(self):
        if self.id <= 0:
            raise ValueError(f"node id must be positive, got {self.id}")
        if self.score <= 0:
            raise ValueError(f"score must be positive, got {self.score}")
        if self.parent == self.id:
            raise ValueError(f"node {self.id} cannot be its own parent")
        if self.parent is not None and self.parent in self.children:
            raise ValueError(f"node {self.id}: parent {self.parent} is also a child")
        if self.action is _HELLO:
            if self.target is not None:
                raise ValueError("HELLO messages carry no target")
        elif self.target is None:
            raise ValueError(f"{self.action.value} messages need a target")
        elif self.target == self.id:
            raise ValueError("a node never targets itself")

    @property
    def out_message(self) -> Message:
        """The message this state sends: a SELECT announces status N, a FLIP
        status T, a HELLO the node's status."""
        action = self.action
        if action is _SELECT:
            status = _N
        elif action is _FLIP:
            status = _T
        else:
            status = self.status
        return Message(self.id, status, action, self.target, self.score)


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


def foreign_endpoint(vertices, edges: Iterable) -> Optional[str]:
    """The report of the smallest edge with an endpoint outside `vertices`
    (anything that supports `in`), naming that endpoint, or None.  Every
    reader of an edge set gives a stray endpoint this text after its prefix."""
    stray = [(u, v) for u, v in edges if u not in vertices or v not in vertices]
    if not stray:
        return None
    u, v = min(stray)
    return f"edge {{{u},{v}}} endpoint {u if u not in vertices else v} is not in the vertex set"


def numbered_lines(fh) -> Iterator[tuple]:
    """(line number, text) for each line of the binary file `fh`, numbered
    from 1, the text decoded as UTF-8 without its line ending.  A byte that
    is not UTF-8 raises ValueError `line <n>: <message>`."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield lineno, text.removesuffix("\n").removesuffix("\r")


def read_lines(path, parse: Callable[[str], object]) -> list:
    """`parse(text)` for each of `numbered_lines` that holds more than a `#`
    comment, `text` being the line before any `#`, stripped.  Any ValueError,
    a byte that is not UTF-8 included, is raised again as
    `<path>: line <n>: <message>`."""
    parsed = []
    with open(path, "rb") as fh:
        try:
            for lineno, text in numbered_lines(fh):
                text = text.split("#", 1)[0].strip()
                if text:
                    try:
                        parsed.append(parse(text))
                    except ValueError as exc:
                        raise ValueError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return parsed


def adjacency(vertices: Iterable, edges: EdgeSet) -> dict:
    """Each vertex's neighbour set in `edges`, in one pass over the edges.

    A stray endpoint raises ValueError with `foreign_endpoint`'s text.
    """
    neighbours = {u: set() for u in vertices}
    try:
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
    except KeyError:
        raise ValueError(foreign_endpoint(neighbours, edges)) from None
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
