"""The per-node automaton: a pure function from (previous state, this
round's senders and their messages, per-node randomness) to the node's next
state.

`node_step` is the one implementation of the protocol's rules.  It reads a
round's messages in three pieces the engine builds once per round, none of
them copied per node:

- `senders`: the node's neighbours in E_i, the engine's adjacency row.  By
  reciprocity these are exactly the nodes it hears this round.
- `outbox`: every node's message prepared in the previous round, by sender.
- `aimed`: the outbox messages whose target is this node.  A sender outside
  `senders` lost its edge this round, so its message is ignored.

Each round a node, in this order:

1. drops the children that are not senders (their edge vanished);
2. regenerates a token if its parent is not a sender;
3. commits its own pending FLIP/SELECT if its target is a sender; a FLIP
   also takes the smaller of the two swapped scores, read from the outbox;
4. adopts the senders of the FLIP/SELECTs aimed at it as children (a FLIP
   also hands over the token and the larger score);
5. prepares the next message: a token holder SELECTs the merge contender
   (of the senders announcing a token, the one with the greatest score, if
   that score is greater than its own), else FLIPs to a random child (a
   lazy root may rest instead); any other node sends a HELLO.

The status is final after step 4 and only a token holder can SELECT, so a
node that ends step 4 without a token skips the contender scan: the scan
could not change its message.  A FLIP aimed at the node never makes its
sender the contender, because step 4 already raised the node's score to at
least the FLIP's.  Scores are unique network-wide, so the scan never meets a
tie and the order of the senders does not matter.

A step whose message or state equals the previous one returns the previous
object, so callers can tell "unchanged" by identity; every new object is
still built, and validated, as usual.
"""

from __future__ import annotations

import hashlib
import random
from typing import AbstractSet, Iterable, Mapping, Optional

from .model import Action, Message, NodeId, NodeState, Status

# Canonical probability that a root holding the token rests for a round
# instead of circulating it (the lazy-walk variant).
LAZY_REST_PROBABILITY = 0.5

# Enum members `node_step` reads on every call, bound once.  On CPython 3.11
# a lookup such as `Status.T` or `Action.HELLO` costs about 0.17 us, a module
# global about 0.02 us; a step would otherwise make five lookups.
_T = Status.T
_N = Status.N
_FLIP = Action.FLIP
_SELECT = Action.SELECT
_HELLO = Action.HELLO


class ProtocolFault(RuntimeError):
    """An impossible-by-invariant situation: signals an engine bug, not data."""


def _substream_seed(seed: int, node_id: NodeId) -> int:
    # Stable across processes and platforms; never Python's randomized hash().
    digest = hashlib.sha256(f"{seed}/{node_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class NodeRng:
    """Per-node random stream, a deterministic function of (run seed, node id).

    Same (seed, node id, consumption sequence) => same outputs, regardless of
    how other nodes or the engine consume randomness.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed: int, node_id: NodeId):
        self._rng = random.Random(_substream_seed(seed, node_id))

    def random(self) -> float:
        return self._rng.random()

    def choice(self, seq):
        return self._rng.choice(seq)


def initial_state(node_id: NodeId) -> NodeState:
    """Uniform initial state: every node is the root of its own tree."""
    return NodeState(
        id=node_id,
        status=Status.T,
        parent=None,
        children=frozenset(),
        score=node_id,
        out_message=Message(node_id, Status.T, Action.HELLO, None, node_id),
    )


def choose_flip_target(children: frozenset, rng: NodeRng) -> NodeId:
    """Uniformly random child, drawn from the node's own seeded stream."""
    if not children:
        raise ValueError("cannot pick a flip target from an empty children set")
    return rng.choice(sorted(children))


def node_step(
    prev: NodeState,
    senders: AbstractSet[NodeId],
    outbox: Mapping[NodeId, Message],
    aimed: Iterable[Message],
    rng: NodeRng,
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
) -> NodeState:
    """One compute phase.  Pure: depends only on the arguments.

    - `senders`: this node's neighbours in E_i, exactly the nodes it hears
      this round (the engine guarantees reciprocity).
    - `outbox`: maps at least every sender to the message it prepared in
      the previous round.
    - `aimed`: the outbox messages whose target is this node.  Those from
      nodes outside `senders` are ignored: their edge vanished.

    `prev.out_message` is the message this node sent at the start of the
    round.  No argument is mutated; the engine shares them between steps.

    Only a node that holds a token after adopting its children scans the
    senders for a merge contender.  That is exact: adoption is the last
    change to the status, and only a token holder prepares a SELECT, so any
    other node's message does not depend on the scan.

    Returns `prev` itself when the new state equals it, and keeps
    `prev.out_message` when the new message equals it.
    """
    nid = prev.id
    children = {c for c in prev.children if c in senders}
    status = prev.status
    parent = prev.parent
    score = prev.score

    # Regenerate a token if the parent link is lost.
    if status is _N and parent not in senders:
        status = _T
        parent = None

    # Commit our own FLIP/SELECT if it was successful.
    out = prev.out_message
    if out.action is not _HELLO and out.target in senders:
        status = _N
        parent = out.target
        if out.action is _FLIP:
            children.discard(parent)
            announced = outbox[parent].score
            if announced < score:
                score = announced

    # Adopt the senders of the FLIP/SELECTs aimed at us.
    for msg in aimed:
        if msg.sender not in senders:
            continue  # the edge vanished: the sender commits nothing either
        if msg.action is _FLIP:
            status = _T
            parent = None
            children.add(msg.sender)
            if msg.score > score:
                score = msg.score
        elif msg.action is _HELLO:
            raise ProtocolFault(
                f"node {nid}: received a HELLO targeted at itself from {msg.sender}"
            )
        else:
            children.add(msg.sender)

    # Prepare the next message.  Only a token holder SELECTs, so only it
    # scans; a FLIP aimed at us already raised our score to its own.
    action, target = _HELLO, None
    if status is _T:
        contender: Optional[NodeId] = None
        best_score = score
        for v in senders:
            msg = outbox[v]
            if msg.score > best_score and msg.sender_status is _T:
                contender = msg.sender
                best_score = msg.score
        if contender is not None:
            action, target = _SELECT, contender
        elif children:
            if lazy and rng.random() < rest_probability:
                pass  # hold the token this round
            else:
                action, target = _FLIP, choose_flip_target(children, rng)
    # A SELECT announces N, a FLIP announces T, a HELLO the node's status.
    if action is _SELECT:
        sender_status = _N
    elif action is _FLIP:
        sender_status = _T
    else:
        sender_status = status

    # Reuse the previous message and state when they are equal to the new ones.
    if (
        out.action is action
        and out.target == target
        and out.score == score
        and out.sender_status is sender_status
        and out.sender == nid
    ):
        out_msg = out
        if (
            status is prev.status
            and parent == prev.parent
            and score == prev.score
            and children == prev.children
        ):
            return prev
    else:
        out_msg = Message(nid, sender_status, action, target, score)

    return NodeState(
        id=nid,
        status=status,
        parent=parent,
        children=frozenset(children),
        score=score,
        out_message=out_msg,
    )
