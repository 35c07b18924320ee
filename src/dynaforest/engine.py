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

The engine itself consumes no randomness: one master seed derives a private
stream per node, so adding hooks or reordering node computation cannot
perturb outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .model import Action, Configuration, EdgeSet, EvolvingGraph, NodeId, Status
from .protocol import LAZY_REST_PROBABILITY, NodeRng, initial_state, node_step

# Called after each round with (round index, E_i, C_i).  Hooks observe, never
# mutate; a hook exception aborts the run.
RoundHook = Callable[[int, EdgeSet, Configuration], None]


class EngineError(RuntimeError):
    """Configuration errors that abort a run (e.g. an edge endpoint outside V)."""


@dataclass(frozen=True)
class Trace:
    """A completed run: C_0..C_k, E_1..E_k, and what produced them."""

    configurations: tuple
    edge_sets: tuple
    seed: int
    parameters: dict

    def __post_init__(self):
        if len(self.configurations) != len(self.edge_sets) + 1:
            raise ValueError(
                f"{len(self.configurations)} configurations do not match "
                f"{len(self.edge_sets)} edge sets"
            )


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
    adjacency: Optional[dict] = None  # node -> set of its neighbours in `edges`
    dirty: Optional[set] = None  # nodes the next round must step


def _adjacency(config: Configuration, edges: EdgeSet) -> dict:
    """Each node's neighbour set in `edges`, in one pass over the edges."""
    adjacency = {u: set() for u in config.states}
    for u, v in edges:
        try:
            adjacency[u].add(v)
            adjacency[v].add(u)
        except KeyError:
            missing = u if u not in config.states else v
            raise EngineError(
                f"round {config.round + 1}: edge {{{u},{v}}} endpoint {missing} "
                f"is not in the vertex set"
            ) from None
    return adjacency


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
        adjacency, dirty = carry.adjacency, carry.dirty
    else:
        adjacency = _adjacency(config, edges)
        if fresh:
            dirty = states.keys()
        else:
            previous, dirty = carry.adjacency, carry.dirty
            if len(dirty) < everyone:
                dirty = dirty.union(
                    u for u, neighbours in adjacency.items() if neighbours != previous[u]
                )
    new_states = dict(states)
    next_dirty = set()
    for u in sorted(dirty):
        prev = states[u]
        received = [states[v].out_message for v in adjacency[u]]
        st = new_states[u] = node_step(prev, received, rngs[u], lazy, rest_probability)
        if len(next_dirty) == everyone:
            continue
        if st != prev:
            next_dirty.add(u)
            if st.out_message != prev.out_message:
                next_dirty.update(adjacency[u])
        if (st.status is Status.T and st.children) or st.out_message.action is not Action.HELLO:
            next_dirty.add(u)
    if carry is not None:
        carry.edges, carry.adjacency, carry.dirty = edges, adjacency, next_dirty
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


def run(
    graph: EvolvingGraph,
    rounds: int,
    seed: int,
    lazy: bool = False,
    hooks: Sequence[RoundHook] = (),
    rest_probability: float = LAZY_REST_PROBABILITY,
) -> Trace:
    """Run the full configuration sequence C_0..C_rounds and keep it.

    Fully deterministic given (graph parameters, seed, lazy).  All hooks are
    invoked after every round, in order.
    """
    configurations = [initial_configuration(graph.vertices)]
    edge_sets = []
    for i, edges, config in iter_run(graph, rounds, seed, lazy, rest_probability):
        configurations.append(config)
        edge_sets.append(edges)
        for hook in hooks:
            hook(i, edges, config)
    parameters = {"rounds": rounds, "lazy": lazy, **graph.params}
    return Trace(
        configurations=tuple(configurations),
        edge_sets=tuple(edge_sets),
        seed=seed,
        parameters=parameters,
    )
