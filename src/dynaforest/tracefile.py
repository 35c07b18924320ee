"""The trace file: each round of a run, as `run` writes it and `check` reads
it back.  This docstring is the format's one description.

A trace is UTF-8 text, one record per line, each line ending in a newline
(the reader also takes CRLF, and a last line without one).  No line is
blank, and `#` is an ordinary character, not a comment: the lines are read
by `model.numbered_lines` alone, without `read_lines`' comment rule.

The header is five lines: the magic, then one line per `trace_header`
argument, each rendered and parsed by its entry in `_HEADER_LINES`:

    dynaforest-trace 1        TRACE_MAGIC, the format and its version
    vertices 1 2 3 ...        the vertex set, ascending ids
    seed <int>                the protocol seed
    lazy <0|1>                whether roots rest at random
    params k=v k=v ...        the adversary's parameters by ascending key, or `-`

Then each round i = 1, 2, ... is two lines:

    the edge line    E_i as `u-v` tokens, each edge once, u < v, the edges in
                     ascending order; a single `-` when E_i is empty
    the node line    C_i as one `id:status:parent:score:children` tuple per
                     node, space-separated, in ascending id order; status is
                     T (holds a token) or N, `-` stands for no parent or no
                     children, and children are comma-separated, ascending

A round's pending actions are not stored: `check` never reads them, and the
reader rebuilds each state with HELLO.

The canonical form.  There is one way to write each header and round: the
reader accepts a line only if it reads exactly as the writer formats what was
parsed from it, and otherwise raises TraceFormatError naming the line.  So a
trace that parses is, line for line, one that `run` could have written.

Why the writer and the reader keep two rounds.  The engine keeps a node's
`NodeState` object when its state did not change, and hands back its state
from the round before last when the node returned to it: a non-lazy token in
a two-node tree swaps the same two states every round.  `TraceWriter` keeps
each node's state and tuple for the last two rounds, and formats only a state
that is neither object again.  The reader keeps the states it parsed from the
last two node lines by tuple text, and gives a tuple that reads exactly as
one there the same object back, so the writer's check of that tuple costs no
formatting; likewise an edge line that repeats the one before.  That text
already matched the file, so the check stays exact.
"""

from itertools import compress, islice
from operator import is_not
from typing import Iterator, Optional

from .model import _T, Configuration, EdgeSet, NodeState, Status, foreign_endpoint, make_edge_set
from .model import numbered_lines

TRACE_MAGIC = "dynaforest-trace 1"


class TraceFormatError(ValueError):
    """A stored trace file that cannot be parsed."""


def format_edges(edges: EdgeSet) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges)) or "-"


def parse_edges(text: str) -> EdgeSet:
    """An edge line, or a line of a script file: 'u-v u-v ...', or '-'."""
    if text == "-":
        return frozenset()
    pairs = []
    for token in text.split():
        u, sep, v = token.partition("-")
        if not sep:
            raise ValueError(f"bad edge token {token!r}")
        pairs.append((int(u), int(v)))
    return make_edge_set(pairs)


def _format_node(st: NodeState) -> str:
    """A node's 'id:status:parent:score:children' tuple, children ascending."""
    # an identity test costs about 0.03 us; `.value` about 0.22 us, and a
    # dict keyed by the member about 0.16 us (Enum hashes in Python)
    status = "T" if st.status is _T else "N"
    parent = "-" if st.parent is None else st.parent
    children = ",".join(map(str, sorted(st.children))) if st.children else "-"
    return f"{st.id}:{status}:{parent}:{st.score}:{children}"


# header lines 2-5, one per `trace_header` argument: how the argument
# renders as its line, and how the line parses back to it
_HEADER_LINES = (
    (lambda vertices: "vertices " + " ".join(map(str, sorted(vertices))),
     lambda line: frozenset(map(int, line.split()[1:]))),
    (lambda seed: f"seed {seed}", lambda line: int(line.partition(" ")[2])),
    (lambda lazy: f"lazy {int(lazy)}", lambda line: bool(int(line.partition(" ")[2]))),
    (lambda params: "params " + (" ".join(f"{k}={params[k]}" for k in sorted(params)) or "-"),
     lambda line: dict(word.split("=", 1) for word in line.split()[1:] if word != "-")),
)
_HEADER_SIZE = 1 + len(_HEADER_LINES)


def trace_header(vertices, seed: int, lazy: bool, params: dict) -> list:
    arguments = (vertices, seed, lazy, params)
    return [TRACE_MAGIC, *(render(value) for (render, _), value in zip(_HEADER_LINES, arguments))]


def _parse_header(lines: list) -> frozenset:
    """The vertex set named by a trace's header lines."""
    if not lines or lines[0] != TRACE_MAGIC:
        raise TraceFormatError(f"not a {TRACE_MAGIC!r} file")
    if len(lines) < _HEADER_SIZE:
        raise TraceFormatError(f"header cut short after line {len(lines)} of {_HEADER_SIZE}")
    values = []
    for lineno, (line, (_, parse)) in enumerate(zip(lines[1:], _HEADER_LINES), start=2):
        try:
            values.append(parse(line))
        except ValueError:
            raise TraceFormatError(f"line {lineno}: malformed header line {line!r}") from None
    for lineno, (got, want) in enumerate(zip(lines, trace_header(*values)), 1):
        if got != want:
            raise TraceFormatError(
                f"line {lineno}: header not in canonical form (expected {want!r})"
            )
    return values[0]


def trace_round_lines(edges: EdgeSet, config: Configuration) -> list:
    """One round's edge line and node line, formatted from scratch."""
    return TraceWriter().round_lines(edges, config)


class TraceWriter:
    """`trace_round_lines` for the consecutive rounds of one run, reusing text.

    It keeps the last two rounds' `NodeState`s in ascending id order with
    their tuples, and the last edge set with its line.  A round starts from
    the tuples of the round before last and formats again only the positions
    whose state is not the same object as there, found in C; such a state
    that is the same object as last round's takes last round's tuple.  Both
    are immutable, so the same object always formats to the same text.  A
    round whose states are not keyed by the last round's ids, in that order,
    is formatted from scratch in ascending id order.
    """

    def __init__(self):
        self._edges: Optional[EdgeSet] = None
        self._edge_line = ""
        self._ids: tuple = ()  # the node ids of the last two rounds, ascending
        # (states, tuples) of the last round and of the round before
        self._last: tuple = ((), [])
        self._older: tuple = ((), [])

    def round_lines(self, edges: EdgeSet, config: Configuration) -> list:
        if edges is not self._edges:
            self._edges, self._edge_line = edges, format_edges(edges)
        states = config.states
        if tuple(states) == self._ids:
            values = list(states.values())
            older_values, tokens = self._older
            last_values, last_tokens = self._last
            tokens = tokens.copy()
            for k in compress(range(len(values)), map(is_not, values, older_values)):
                st = values[k]
                tokens[k] = last_tokens[k] if st is last_values[k] else _format_node(st)
        else:
            self._ids = tuple(sorted(states))
            values = [states[u] for u in self._ids]
            tokens = list(map(_format_node, values))
            self._last = (values, tokens)  # the rounds kept are this one twice
        self._older, self._last = self._last, (values, tokens)
        return [self._edge_line, " ".join(tokens)]


def _parse_nodes_line(text: str, lineno: int, round_index: int, known: tuple) -> tuple:
    """Rebuild a checkable configuration from one node line, each state with
    HELLO.  The states keep the line's order, which `read_trace_file`
    requires to ascend.

    `known` holds the states parsed from the line before and from the line
    before that, each by token: a token that reads exactly as one there gets
    the same `NodeState` object back, which is the state a parse would give,
    since a token's parse depends on its text alone.  Returns the
    configuration and `known` for the next line."""
    previous, before = known
    states = {}
    by_token = {}
    for token in text.split():
        state = previous.get(token) or before.get(token)
        if state is None:
            fields = token.split(":")
            if len(fields) != 5:
                raise TraceFormatError(f"line {lineno}: bad node tuple {token!r}")
            try:
                nid = int(fields[0])
                status = Status(fields[1])
                parent = None if fields[2] == "-" else int(fields[2])
                score = int(fields[3])
                children = () if fields[4] == "-" else fields[4].split(",")
                state = NodeState(nid, status, parent, frozenset(map(int, children)), score)
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: bad node tuple {token!r}: {exc}") from None
        if state.id in states:
            raise TraceFormatError(f"line {lineno}: node {state.id} is listed twice")
        states[state.id] = by_token[token] = state
    return Configuration(round=round_index, states=states), (by_token, previous)


def read_trace_file(path) -> Iterator[tuple]:
    """Yield each round of a stored trace as (round, E_i, C_i), one edge line and
    node line at a time.  The header and each round must be in the canonical
    form, or a TraceFormatError names the path and the line.  One `TraceWriter`
    formats the whole read, and parsed objects are reused across the last two
    rounds (see the module docstring)."""
    writer = TraceWriter()
    last_edge_text = edges = None
    known: tuple = ({}, {})
    with open(path, "rb") as fh:
        lines = numbered_lines(fh)
        try:
            vertices = _parse_header([text for _, text in islice(lines, _HEADER_SIZE)])
            for round_index, (lineno, text) in enumerate(lines, start=1):
                if text != last_edge_text:
                    try:
                        edges = parse_edges(text)
                    except ValueError as exc:
                        raise TraceFormatError(f"line {lineno}: {exc}") from None
                    stray = foreign_endpoint(vertices, edges)
                    if stray:
                        raise TraceFormatError(f"line {lineno}: {stray}")
                    last_edge_text = text
                node_lineno, node_text = next(lines, (None, None))
                if node_text is None:
                    raise TraceFormatError(f"line {lineno}: round {round_index} has no node line")
                config, known = _parse_nodes_line(node_text, node_lineno, round_index, known)
                if config.vertices != vertices:
                    raise TraceFormatError(
                        f"line {node_lineno}: round {round_index} nodes do not match the header"
                    )
                edge_line, node_line = writer.round_lines(edges, config)
                if text != edge_line:
                    raise TraceFormatError(
                        f"line {lineno}: edges not in canonical form "
                        "(each edge once, smaller id first, in ascending order)"
                    )
                if node_text != node_line:
                    raise TraceFormatError(
                        f"line {node_lineno}: nodes not in canonical form "
                        "(tuples in ascending id order, children ascending)"
                    )
                yield round_index, edges, config
            if edges is None:  # `run` never writes a trace of zero rounds
                raise TraceFormatError("no round after the header")
        except ValueError as exc:  # a TraceFormatError, or a byte that is not UTF-8
            raise TraceFormatError(f"{path}: {exc}") from None
