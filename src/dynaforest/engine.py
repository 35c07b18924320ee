"""Synchronous round scheduler: send, receive, compute.

A node's message is a view of its state, so the engine hands `node_step`
the pre-round snapshot itself: no message is built, copied or stored.  A
stepped node reads its sender set, which is its row of the round's
adjacency: an edge delivers both ways or not at all (reciprocity).  It reads
the senders' states from the snapshot and the states whose FLIP/SELECT
targets it from a grouping the round builds once.  New states are computed
from the pre-round snapshot alone; no node ever sees a same-round update of
another node.

A round steps only its dirty nodes.  Node u is dirty in round i+1 when
- (E) its row of the adjacency differs between E_i and E_{i+1};
- (A) it holds a token in C_i and has children or a FLIP/SELECT pending;
- (B) it is the target of a FLIP/SELECT pending in C_i; or
- (H) it holds a token in C_i and a neighbour's state changed in round i.

Skipping a clean node is exact, by induction over the rounds.  A step reads
only the node's own state, its senders (its row), the senders' states, the
states aimed at it and, for a token holder with children, its random
stream.  Let u be clean in round i+1 and let round j <= i be the last one
that stepped it.  Its row is the same in E_j through E_{i+1}, or (E) would
have marked it in between.
- u has no FLIP/SELECT pending (A), so it commits nothing, and nothing is
  aimed at it (B), so it adopts no one.
- If u is an N node, its children are a subset of its round-j senders, as
  every step leaves them, and its parent is one of them: a step that ends
  in N either kept a parent that was a sender or committed to a target that
  was.  The row is unchanged, so no child is dropped and no token is
  regenerated; an N node prepares a HELLO.  The step returns `prev`.
- If u holds a token, it has no children (A), so it draws no randomness and
  cannot FLIP, and its round-j scan over the announcements of C_{j-1} found
  no merge contender, or it would have a SELECT pending.  A neighbour that
  changed in round j or later would have marked u by (H) in the round after
  it, so its neighbours' states in C_i are those of C_{j-1}.  The scan again
  finds no contender and the step returns `prev`.
`node_step` is pure, so the node keeps its `NodeState` object instead.
`run_round` without a carried `RoundCarry` treats every node as dirty: the
full round.

The FLIP/SELECTs are grouped by target over the dirty nodes alone.  A node
with a FLIP/SELECT pending is always dirty: it was stepped by the round that
prepared it, which marked it by (A); a node that is not stepped keeps its
state, so no clean node has one.  In a full round every node is dirty.

(H) reads only a neighbour's announcement (status, action, score), but a
change to any field marks: the step counts are the same in the sparse
regime, and the marking is cheaper.  The (H) neighbours are collected in
one set per round and filtered to the token holders once, at the round's
end.  Once that set covers V, the round marks every node dirty instead.
Over-marking is exact, since a full round steps every node, and in churny
rounds it saves the marking work of the rest of the round and (E)'s row
comparison in the next.

The engine builds its adjacency with `model.adjacency` when E_i changes and
keeps it in `RoundCarry`; nothing else reads it.

Inside a round, `node_step` hands back the previous `NodeState` exactly when
the new one would be equal, so the engine tells "changed" by identity alone.
A step that returned an equal copy would only mark nodes dirty that need not
be; an over-marked node is stepped as in a full round, so the result stays
exact.

The engine itself consumes no randomness: one master seed derives a private
stream per node, so reordering node computation cannot perturb outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Iterator, Mapping, Optional

from .model import _HELLO, _T, Configuration, EdgeSet, EvolvingGraph, NodeId, adjacency
from .protocol import LAZY_REST_PROBABILITY, initial_state, node_rng, node_step


class EngineError(RuntimeError):
    """Configuration errors that abort a run (e.g. an edge endpoint outside V)."""


def initial_configuration(vertices) -> Configuration:
    """C_0: every node the root of its own tree, in ascending id order."""
    return Configuration(round=0, states={u: initial_state(u) for u in sorted(vertices)})


def make_node_rngs(seed: int, vertices) -> dict:
    return {u: node_rng(seed, u) for u in sorted(vertices)}


@dataclass
class RoundCarry:
    """What a round leaves for the next one: E_i, its adjacency, and the dirty set.

    Empty until the first round fills it; `run_round` updates it in place.
    """

    edges: Optional[EdgeSet] = None
    adjacency: Optional[dict] = None  # `model.adjacency(V, edges)`
    dirty: Optional[set] = None  # nodes the next round must step


def run_round(
    config: Configuration,
    edges: EdgeSet,
    rngs: Mapping[NodeId, random.Random],
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
    *,
    carry: Optional[RoundCarry] = None,
) -> Configuration:
    """Advance one round: step the dirty nodes on the messages sent over `edges`.

    Without `carry` every node is dirty.  With it, the round reads what the
    previous round left there and leaves what the next round needs; one
    carry serves the consecutive rounds of one run.
    """
    states = config.states
    # In churny rounds every node soon turns dirty; past that point, marking
    # more nodes dirty is wasted work, so it stops.
    everyone = len(states)
    fresh = carry is None or carry.adjacency is None
    if not fresh and (edges is carry.edges or edges == carry.edges):
        neighbours, dirty = carry.adjacency, carry.dirty
    else:
        try:
            neighbours = adjacency(states.keys(), edges)
        except ValueError as exc:
            raise EngineError(f"round {config.round + 1}: {exc}") from None
        if fresh:
            dirty = states.keys()
        else:
            previous, dirty = carry.adjacency, carry.dirty
            if len(dirty) < everyone:  # (E), the rows compared in C, not in a Python loop
                rows = map(ne, neighbours.values(), map(previous.__getitem__, neighbours))
                dirty = dirty.union(compress(neighbours, rows))
    order = sorted(dirty)
    # The pending FLIP/SELECTs by target: only dirty nodes have one.
    aimed = {}
    for u in order:
        st = states[u]
        if st.target is not None:
            aimed.setdefault(st.target, []).append(st)
    new_states = dict(states)
    next_dirty = set()
    heard = set()  # (H): the neighbours of the nodes that changed
    for u in order:
        prev = states[u]
        senders = neighbours[u]
        st = new_states[u] = node_step(
            prev, senders, states, aimed.get(u, ()), rngs[u], lazy, rest_probability
        )
        if len(next_dirty) == everyone:
            continue
        if st.action is not _HELLO:  # (A) and (B)
            next_dirty.add(u)
            next_dirty.add(st.target)
        elif st.status is _T and st.children:  # (A)
            next_dirty.add(u)
        if st is not prev:  # node_step returns `prev` exactly when equal
            heard.update(senders)
            if len(heard) == everyone:
                next_dirty.update(states)  # over-marking is exact
    if heard and len(next_dirty) < everyone:
        next_dirty.update(v for v in heard - next_dirty if new_states[v].status is _T)
    if carry is not None:
        carry.edges, carry.adjacency, carry.dirty = edges, neighbours, next_dirty
    return Configuration(round=config.round + 1, states=new_states)


def iter_run(
    graph: EvolvingGraph,
    rounds: int,
    seed: int,
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
) -> Iterator[tuple]:
    """Yield (i, E_i, C_i) for i = 1..rounds without retaining the full history.

    The initial configuration is not yielded; build it with
    `initial_configuration(graph.vertices)` when needed.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    config = initial_configuration(graph.vertices)
    rngs = make_node_rngs(seed, graph.vertices)
    carry = RoundCarry()
    for i in range(1, rounds + 1):
        edges = graph.schedule(i)
        config = run_round(config, edges, rngs, lazy, rest_probability, carry=carry)
        yield i, edges, config

