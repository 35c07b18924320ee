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

In round i+1, `node_step` returns `prev`, the node's state in C_i, exactly
when equal; otherwise it returns C_{i-1}'s state when equal to that.  A
non-lazy token in a two-node tree swaps the same two states, so such a tree
soon stops building `NodeState`s.  C_{i-1}'s state is not `prev` when the
step changed the node, so the engine still tells "changed" by identity alone
and the dirty rule is untouched.  A step that returned an equal copy would
only mark nodes dirty that need not be; an over-marked node is stepped as in
a full round, so the result stays exact.

Rule (R) takes a dirty node's state from C_{i-1} instead of stepping it.
Let the run be non-lazy, let u be dirty in round i+1, let E_{i+1} = E_i =
E_{i-1} (`RoundCarry.still` is at least 1), and let C_i[u] and C_i[v], for
every v in u's row, be the same objects as in C_{i-2}.  A step reads the
node's own state, its row, the states of its row (a FLIP/SELECT aimed at it
from outside the row is ignored) and its random stream.  The row is the
same in E_{i+1} as in E_{i-1}, and the states read are those of C_{i-2}, so
round i+1's step has round i-1's inputs.
- Same inputs give the same values: the step's value is C_{i-1}[u]'s.  A
  round i-1 that skipped u is no exception: skipping is exact, so its step
  would have returned `prev`, C_{i-2}[u], which is C_{i-1}[u].
- The step also returns that same object.  It returns `prev`, C_i[u], when
  the value equals it; no round builds an equal copy of a node's last
  state, so C_i[u] is then C_{i-1}[u].  Otherwise it returns `older`,
  C_{i-1}[u].
- The random stream is the one input that differs, being further along.  A
  non-lazy step draws only to FLIP, so only when C_{i-1}[u] has a FLIP
  pending.  A FLIP to the only child is replayed: the engine calls
  `choose_flip_target` on that child, which takes the bits from the stream
  that the step would.  A FLIP among two or more children is stepped, since
  there the draw picks the value.  Any other state drew nothing and is
  taken as it is.
The object taken is the one `node_step` would return, so the dirty marking
and the identity rules above are unchanged.  The nodes whose state in C_i is
not their C_{i-2} object are found in C, once in each round (R) can apply.
In a non-lazy contact replay most tokens sit in two-node trees, and most of
a round's dirty nodes are taken so.  A lazy run steps every dirty node: each
token with children draws whether to rest, so (R) could take only the other
states, about 5 % of the steps in the sparse lazy regime, and finding them
cost more than those steps.

The engine itself draws nothing: one master seed derives a private stream
per node, so reordering node computation cannot perturb outcomes.  A draw
that (R) replays is the node's own, made in place of its step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import is_not, ne
from typing import Iterator, Mapping, Optional

from .model import _FLIP, _HELLO, _T, Configuration, EdgeSet, EvolvingGraph, NodeId, adjacency
from .protocol import (
    LAZY_REST_PROBABILITY,
    choose_flip_target,
    initial_state,
    node_rng,
    node_step,
)


class EngineError(RuntimeError):
    """Configuration errors that abort a run (e.g. an edge endpoint outside V)."""


def initial_configuration(vertices) -> Configuration:
    """C_0: every node the root of its own tree, in ascending id order."""
    return Configuration(round=0, states={u: initial_state(u) for u in sorted(vertices)})


def make_node_rngs(seed: int, vertices) -> dict:
    return {u: node_rng(seed, u) for u in sorted(vertices)}


@dataclass
class RoundCarry:
    """What a round leaves for the next one: E_i, its adjacency, the dirty set,
    the states of the two rounds before, C_{i-1} and C_{i-2}, and how many
    rounds E has stood still.

    Empty until the first round fills it; `run_round` updates it in place.
    `before` and `before2` cost nothing to keep, being the `config.states` of
    the last two calls.  `before` lets a step return a node's state from two
    rounds back instead of building an equal one: a non-lazy token in a
    two-node tree swaps the same two states.  With `before2` and `still`,
    rule (R) hands such a node its state from C_{i-1} without a step.
    """

    edges: Optional[EdgeSet] = None
    adjacency: Optional[dict] = None  # `model.adjacency(V, edges)`
    dirty: Optional[set] = None  # nodes the next round must step
    before: Optional[Mapping] = None  # C_{i-1}'s states, by node id
    before2: Optional[Mapping] = None  # C_{i-2}'s states, by node id
    still: int = 0  # rounds E has stood still: E_i = E_{i-1} = ... = E_{i-still}


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
    # a fresh round offers each node its own state: `node_step` skips it
    before = states if fresh else carry.before
    same = not fresh and (edges is carry.edges or edges == carry.edges)
    if same:
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
    # (R), non-lazy: E_{i+1} = E_i = E_{i-1}; `moved` holds the nodes whose
    # state in C_i is not the same object as in C_{i-2}.  The dicts share
    # their key order.
    replay = same and carry.still > 0 and not lazy
    if replay:
        moved = set(compress(states, map(is_not, states.values(), carry.before2.values())))
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
        st = before[u]  # (R) hands back C_{i-1}'s state when it applies
        if replay and u not in moved and moved.isdisjoint(senders) and not (
            st.action is _FLIP and len(st.children) > 1  # a draw that picks the value
        ):
            if st.action is _FLIP:  # to its one child: the draw is replayed
                choose_flip_target(st.children, rngs[u])
        else:
            st = node_step(
                prev, senders, states, aimed.get(u, ()), rngs[u], lazy, rest_probability, st
            )
        new_states[u] = st
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
        carry.before2, carry.before = carry.before, states
        carry.still = carry.still + 1 if same else 0
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

