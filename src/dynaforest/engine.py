"""Synchronous round scheduler: send, receive, compute.

Each round the engine delivers every node's prepared message across every
present edge in both directions (reciprocity: an edge delivers both ways or
not at all), then computes the new states from the pre-round snapshot.  No
node ever sees a same-round update of another node.

A round steps only its dirty nodes.  Node u is dirty in round i+1 when
- its state changed in round i;
- its incident edges differ between E_i and E_{i+1};
- a neighbour's out_message changed in round i; or
- it ended round i holding a token with children (it will draw randomness)
  or with a FLIP/SELECT pending.

Skipping a clean node is exact, by induction over the rounds.  Its state
did not change in round i, so stepping it on round i's inputs returned (or,
for a node skipped there too, would have returned) that same state.  Round
i+1 gives it the same inputs: the same neighbours send the same messages,
and it draws no randomness.  `node_step` is pure, so stepping it again would
return an equal state; the node keeps its `NodeState` object instead.
`run_round` without a carried `RoundCarry` treats every node as dirty: the
full round.

One adjacency serves each E_i.  The engine gets it from `model.adjacency`,
which walks the edges once and keeps its last result; the metrics'
`connected_components` asks for the same (V, E_i) in the same round and gets
that result back instead of walking E_i again.  The memo is exact: it hits
only for the very edge-set object it was built from (frozen, and still
alive, so no other set has its id) together with an equal vertex set, and
nobody mutates the adjacency it returns.  Inside a round, `node_step`
hands back the previous `NodeState` (or its out message) exactly when the new
one would be equal, so the engine tells "changed" by identity alone.  A step
that returned an equal copy would only mark nodes dirty that need not be; an
over-marked node is stepped as in a full round, so the result stays exact.

The engine itself consumes no randomness: one master seed derives a private
stream per node, so reordering node computation cannot perturb outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .model import Action, Configuration, EdgeSet, EvolvingGraph, NodeId, Status, adjacency
from .protocol import LAZY_REST_PROBABILITY, NodeRng, initial_state, node_step

# Enum members `run_round` reads for every stepped node, bound once.  On
# CPython 3.11 a lookup such as `Status.T` costs about 0.17 us, a module
# global about 0.02 us.
_T = Status.T
_HELLO = Action.HELLO


class EngineError(RuntimeError):
    """Configuration errors that abort a run (e.g. an edge endpoint outside V)."""


def initial_configuration(vertices) -> Configuration:
    """C_0: every node the root of its own tree, in ascending id order."""
    return Configuration(round=0, states={u: initial_state(u) for u in sorted(vertices)})


def make_node_rngs(seed: int, vertices) -> dict:
    return {u: NodeRng(seed, u) for u in sorted(vertices)}


@dataclass
class RoundCarry:
    """What a round leaves for the next one: E_i, its adjacency, and the dirty set.

    Empty until the first round fills it; `run_round` updates it in place.
    """

    edges: Optional[EdgeSet] = None
    adjacency: Optional[dict] = None  # `model.adjacency(V, edges)`: shared, read-only
    dirty: Optional[set] = None  # nodes the next round must step


def run_round(
    config: Configuration,
    edges: EdgeSet,
    rngs: Mapping[NodeId, NodeRng],
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
    *,
    carry: Optional[RoundCarry] = None,
) -> Configuration:
    """Advance one round: deliver the prepared messages over `edges`, step the dirty nodes.

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
            if len(dirty) < everyone:
                dirty = dirty.union(u for u, vs in neighbours.items() if vs != previous[u])
    new_states = dict(states)
    next_dirty = set()
    for u in sorted(dirty):
        prev = states[u]
        received = [states[v].out_message for v in neighbours[u]]
        st = new_states[u] = node_step(prev, received, rngs[u], lazy, rest_probability)
        if len(next_dirty) == everyone:
            continue
        # node_step returns `prev`, or keeps its out message, exactly when equal
        if st is not prev:
            next_dirty.add(u)
            if st.out_message is not prev.out_message:
                next_dirty.update(neighbours[u])
        if (st.status is _T and st.children) or st.out_message.action is not _HELLO:
            next_dirty.add(u)
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

