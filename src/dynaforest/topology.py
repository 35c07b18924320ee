"""Adversary implementations: scripted schedules, a two-state Markov edge
model, and discretization of real-world contact traces into round-indexed
edge sets.

Contact-trace files are ASCII lines `a b start end` (ids and seconds,
whitespace separated, `#` comments).  A contact [start, end) makes the edge
{a,b} present in every round i whose instant t = i / rounds_per_second
satisfies start <= t < end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .model import EdgeSet, EvolvingGraph, NodeId, make_edge, make_edge_set

Rational = Union[int, float, Fraction, str]


@dataclass(frozen=True)
class ContactRecord:
    """One contact interval between two nodes, in seconds.

    `line` carries the source line number when the record came from a file,
    so malformed records can be reported usefully.
    """

    a: NodeId
    b: NodeId
    start: int
    end: int
    line: Optional[int] = None


@dataclass(frozen=True)
class EdgeMarkovParams:
    """Independent per-edge birth/death chain.

    An absent edge appears next round with probability p_birth; a present one
    disappears with probability p_death.  The long-run density is
    p_birth / (p_birth + p_death).
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
    """Fixed schedule; past its end the last edge set repeats forever."""
    vertex_set = frozenset(vertices)
    script = [make_edge_set(es) for es in schedule]
    for idx, edges in enumerate(script):
        for u, v in edges:
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(
                    f"schedule entry {idx}: edge {{{u},{v}}} has an endpoint "
                    f"outside the vertex set"
                )
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


class _MarkovSchedule:
    """Sequential two-state chain over all node pairs, numpy-vectorized.

    Each round draws one uniform number per pair.  A present pair dies when
    its draw is below p_death, an absent one is born when its draw is below
    p_birth: a pair flips exactly when its draw is below its threshold,
    `where(present, p_death, p_birth)`.  So the chain advances by a flip
    mask, `present ^= draws < threshold`, which makes the same draws and the
    same comparisons as computing the next presence pair by pair, and gives
    the same E_i.  The threshold changes only with the present set, so it is
    recomputed only after a round with a flip; a quiet round costs the draws,
    one comparison and a test for any flip.

    Forward queries advance the chain; a backward query replays from round
    one, so any access order yields the same deterministic schedule.  While
    no pair flips, queries return the same `frozenset` object, so callers
    can tell an unchanged E_i by identity.
    """

    def __init__(self, params: EdgeMarkovParams):
        self._params = params
        iu, jv = np.triu_indices(params.n, k=1)
        self._pairs = list(zip((iu + 1).tolist(), (jv + 1).tolist()))
        self._reset()

    def _reset(self):
        self._rng = np.random.Generator(np.random.PCG64(self._params.seed))
        self._present = np.zeros(len(self._pairs), dtype=bool)
        self._threshold = np.full(len(self._pairs), self._params.p_birth)
        self._round = 0
        self._cached: Optional[EdgeSet] = None  # None: stale, rebuild on the next query

    def _advance(self):
        flips = self._rng.random(len(self._pairs)) < self._threshold
        if flips.any():
            self._present ^= flips
            p = self._params
            self._threshold = np.where(self._present, p.p_death, p.p_birth)
            self._cached = None
        self._round += 1

    def __call__(self, i: int) -> EdgeSet:
        if i < 1:
            raise ValueError(f"round index must be >= 1, got {i}")
        if i < self._round:
            self._reset()
        while self._round < i:
            self._advance()
        if self._cached is None:
            present = np.flatnonzero(self._present).tolist()
            self._cached = frozenset(map(self._pairs.__getitem__, present))
        return self._cached


def edge_markov(params: EdgeMarkovParams) -> EvolvingGraph:
    """Stochastic adversary over nodes 1..n, deterministic given the seed."""
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


def _describe(record: ContactRecord) -> str:
    where = f"line {record.line}" if record.line is not None else "record"
    return f"{where}: ({record.a}, {record.b}, {record.start}, {record.end})"


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
        if rec.a == rec.b:
            raise ValueError(f"{_describe(rec)}: contact endpoints must differ")
        if rec.end <= rec.start:
            raise ValueError(f"{_describe(rec)}: contact must end after it starts")
        if rec.start < 0:
            raise ValueError(f"{_describe(rec)}: contact cannot start before time 0")
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


def read_contact_file(path) -> list:
    """Parse a contact-trace file into records, with line-number diagnostics."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'a b start end', got {raw.strip()!r}"
                )
            try:
                a, b, start, end = (int(f) for f in fields)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer field in {raw.strip()!r}"
                ) from None
            records.append(ContactRecord(a=a, b=b, start=start, end=end, line=lineno))
    return records


def mean_instantaneous_degree(graph: EvolvingGraph, rounds: Optional[int] = None) -> float:
    """Average of 2|E_i| / |V| over the graph's rounds (a dataset sanity metric)."""
    total_rounds = rounds if rounds is not None else graph.rounds
    if not total_rounds:
        raise ValueError("graph has no natural length; pass rounds explicitly")
    n = len(graph.vertices)
    if n == 0:
        return 0.0
    total = sum(len(graph.schedule(i)) for i in range(1, total_rounds + 1))
    return 2.0 * total / (n * total_rounds)
