"""Adversary implementations: scripted schedules, a two-state Markov edge
model, and discretization of real-world contact traces into round-indexed
edge sets.

Only the edge-Markov adversary needs numpy: its chain lives in `markov`,
which `edge_markov` imports when called, so scripted and contact-trace runs
never load numpy.

A contact-trace file holds one `ContactRecord` `a b start end` per line
(ids and seconds), read by `model.read_lines`.  A contact [start, end) makes
the edge {a,b} present in every round i whose instant
t = i / rounds_per_second satisfies start <= t < end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .model import (
    EdgeSet, EvolvingGraph, NodeId, foreign_endpoint, make_edge, make_edge_set, read_lines
)

Rational = Union[int, float, Fraction, str]


@dataclass(frozen=True)
class ContactRecord:
    """One contact [start, end) between two distinct positive ids, in
    seconds, with 0 <= start < end; construction rejects any other."""

    a: NodeId
    b: NodeId
    start: int
    end: int

    def __post_init__(self):
        problem = (
            "contact endpoints must differ" if self.a == self.b
            else "contact endpoints must be positive ids" if self.a <= 0 or self.b <= 0
            else "contact must end after it starts" if self.end <= self.start
            else "contact cannot start before time 0" if self.start < 0
            else None
        )
        if problem:
            raise ValueError(f"({self.a}, {self.b}, {self.start}, {self.end}): {problem}")


@dataclass(frozen=True)
class EdgeMarkovParams:
    """Independent per-edge birth/death chain.

    An absent edge appears next round with probability p_birth; a present one
    disappears with probability p_death, each round independently.  So a
    pair holds a state it leaves with probability p for more than t rounds
    with probability (1 - p)^t, and the long-run density is
    p_birth / (p_birth + p_death).  `seed` fixes the edge sets through the
    draw order that `markov._MarkovSchedule` states; since version 0.2.0 each pair
    draws one uniform per flip instead of one per round.
    """

    n: int
    p_birth: float
    p_death: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        for name, p in (("p_birth", self.p_birth), ("p_death", self.p_death)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


def scripted(vertices: Iterable, schedule: Sequence[EdgeSet]) -> EvolvingGraph:
    """Fixed schedule; past its end the last edge set repeats forever.  A
    stray endpoint in entry k (from 0) raises ValueError: `schedule entry k: `
    and `model.foreign_endpoint`'s text."""
    vertex_set = frozenset(vertices)
    script = [make_edge_set(es) for es in schedule]
    for idx, edges in enumerate(script):
        stray = foreign_endpoint(vertex_set, edges)
        if stray:
            raise ValueError(f"schedule entry {idx}: {stray}")
    empty = frozenset()

    def produce(i: int) -> EdgeSet:
        if i < 1:
            raise ValueError(f"round index must be >= 1, got {i}")
        if not script:
            return empty
        return script[i - 1] if i <= len(script) else script[-1]

    return EvolvingGraph(
        vertices=vertex_set,
        schedule=produce,
        params={"adversary": "scripted", "script_length": len(script)},
    )


def edge_markov(params: EdgeMarkovParams) -> EvolvingGraph:
    """Stochastic adversary over nodes 1..n, deterministic given the seed."""
    from .markov import _MarkovSchedule  # numpy loads here, for this adversary alone

    return EvolvingGraph(
        vertices=frozenset(range(1, params.n + 1)),
        schedule=_MarkovSchedule(params),
        params={
            "adversary": "edge-markov",
            "n": params.n,
            "p_birth": params.p_birth,
            "p_death": params.p_death,
            "graph_seed": params.seed,
        },
    )


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def parse_contact_trace(
    records: Sequence[ContactRecord], rounds_per_second: Rational
) -> EvolvingGraph:
    """Discretize contact intervals into per-round edge sets.

    Round i happens at instant t = i / rounds_per_second; an edge is present
    iff some record covers t with start <= t < end.  The vertex set is every
    id appearing in a record, and the natural run length is
    ceil(max end * rounds_per_second).
    """
    rps = _as_fraction(rounds_per_second)
    if rps <= 0:
        raise ValueError(f"rounds_per_second must be positive, got {rounds_per_second}")

    intervals: dict = {}
    last_round = 0
    for rec in records:
        # start <= i/rps < end  <=>  ceil(start*rps) <= i <= ceil(end*rps) - 1
        first = max(1, math.ceil(rec.start * rps))
        last = math.ceil(rec.end * rps) - 1
        last_round = max(last_round, math.ceil(rec.end * rps))
        if last < first:
            continue  # contact too short to cover any round instant
        intervals.setdefault(make_edge(rec.a, rec.b), []).append((first, last))

    merged: dict = {}
    for edge, spans in intervals.items():
        spans.sort()
        out = [spans[0]]
        for first, last in spans[1:]:
            if first <= out[-1][1] + 1:
                out[-1] = (out[-1][0], max(out[-1][1], last))
            else:
                out.append((first, last))
        merged[edge] = out

    vertices = frozenset(v for rec in records for v in (rec.a, rec.b))
    # Rounds at which the edge set differs from the round before, with the
    # edges born and the edges that die there.  A stretch runs from one
    # change to the next, and one frozenset serves all of it.  A query
    # applies the changes up to its stretch in order; a backward query
    # replays from the empty set before the first change.
    born: dict = {}
    died: dict = {}
    for edge, spans in merged.items():
        for first, last in spans:
            born.setdefault(first, []).append(edge)
            died.setdefault(last + 1, []).append(edge)
    changes = sorted(born.keys() | died.keys())
    served = [0, frozenset()]  # [stretch index, its edge set]

    def produce(i: int) -> EdgeSet:
        if i < 1:
            raise ValueError(f"round index must be >= 1, got {i}")
        stretch = bisect.bisect_right(changes, i)
        if stretch != served[0]:
            if stretch < served[0]:
                served[:] = [0, frozenset()]
            edges = set(served[1])
            for change in changes[served[0]:stretch]:
                edges.difference_update(died.get(change, ()))
                edges.update(born.get(change, ()))
            served[:] = [stretch, frozenset(edges)]
        return served[1]

    return EvolvingGraph(
        vertices=vertices,
        schedule=produce,
        params={
            "adversary": "trace",
            "rounds_per_second": str(rps),
            "contacts": len(records),
        },
        rounds=last_round,
    )


def _parse_contact(text: str) -> ContactRecord:
    fields = text.split()
    if len(fields) != 4:
        raise ValueError(f"expected 'a b start end', got {text!r}")
    try:
        a, b, start, end = map(int, fields)
    except ValueError:
        raise ValueError(f"non-integer field in {text!r}") from None
    return ContactRecord(a, b, start, end)


def read_contact_file(path) -> list:
    """The records of a contact-trace file, in file order (module docstring)."""
    return read_lines(path, _parse_contact)


def mean_instantaneous_degree(graph: EvolvingGraph, rounds: Optional[int] = None) -> float:
    """Average of 2|E_i| / |V| over the graph's rounds (a dataset sanity metric)."""
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    total_rounds = rounds if rounds is not None else graph.rounds
    if not total_rounds:
        raise ValueError("graph has no natural length; pass rounds explicitly")
    n = len(graph.vertices)
    if n == 0:
        return 0.0
    total = sum(len(graph.schedule(i)) for i in range(1, total_rounds + 1))
    return 2.0 * total / (n * total_rounds)
