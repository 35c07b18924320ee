"""The per-node automaton: a pure function from (previous state, received
messages, per-node randomness) to the node's next state.

`node_step` is the one implementation of the protocol's rules.  Each round a
node, in this order:

1. drops the children it heard nothing from (their edge vanished);
2. regenerates a token if its parent link vanished;
3. commits its own pending FLIP/SELECT if the target edge survived; a FLIP
   also takes the smaller of the two swapped scores;
4. processes the received messages in ascending sender id: the sender of a
   FLIP/SELECT aimed at it becomes a child (a FLIP also hands over the token
   and the larger score); among the others, the token holder with the
   greatest score is the merge contender;
5. prepares the next message: a SELECT to a contender with a greater score,
   else a FLIP to a random child (a lazy root may rest instead), else a HELLO.

The mailbox and the contender live only for one step.  Scores are unique
network-wide, so the contender scan never meets a tie.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence

from .model import Action, Message, NodeId, NodeState, Status

# Canonical probability that a root holding the token rests for a round
# instead of circulating it (the lazy-walk variant).
LAZY_REST_PROBABILITY = 0.5


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


def _make_message(
    nid: NodeId, status: Status, score: int, action: Action, target: Optional[NodeId]
) -> Message:
    if action is Action.SELECT:
        return Message(nid, Status.N, Action.SELECT, target, score)
    if action is Action.FLIP:
        return Message(nid, Status.T, Action.FLIP, target, score)
    return Message(nid, status, Action.HELLO, None, score)


def node_step(
    prev: NodeState,
    received: Sequence[Message],
    rng: NodeRng,
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
) -> NodeState:
    """One compute phase.  Pure: depends only on the arguments.

    `received` holds exactly one message per physical neighbor this round
    (the engine guarantees reciprocity); `prev.out_message` is the message
    this node sent at the start of the round.
    """
    nid = prev.id
    status_t = Status.T
    status_n = Status.N
    act_flip = Action.FLIP
    act_hello = Action.HELLO

    mailbox = {m.sender: m for m in received}
    children = {c for c in prev.children if c in mailbox}
    status = prev.status
    parent = prev.parent
    score = prev.score

    # Regenerate a token if the parent link is lost.
    if status is status_n and parent not in mailbox:
        status = status_t
        parent = None

    # Commit our own FLIP/SELECT if it was successful.
    out = prev.out_message
    if out.action is not act_hello and out.target in mailbox:
        status = status_n
        parent = out.target
        if out.action is act_flip:
            children.discard(parent)
            announced = mailbox[parent].score
            if announced < score:
                score = announced

    # Process the mailbox: adopt children, scan for a contender.
    contender: Optional[NodeId] = None
    best_score = 0
    for sender, msg in sorted(mailbox.items()):
        if msg.target == nid:
            if msg.action is act_flip:
                status = status_t
                parent = None
                children.add(sender)
                if msg.score > score:
                    score = msg.score
            elif msg.action is act_hello:
                raise ProtocolFault(
                    f"node {nid}: received a HELLO targeted at itself from {sender}"
                )
            else:
                children.add(sender)
        elif msg.sender_status is status_t and msg.score > best_score:
            contender = sender
            best_score = msg.score

    # Prepare the next message.
    out_msg = None
    if status is status_t:
        if best_score > score:
            out_msg = _make_message(nid, status, score, Action.SELECT, contender)
        elif children:
            if lazy and rng.random() < rest_probability:
                pass  # hold the token this round
            else:
                target = choose_flip_target(children, rng)
                out_msg = _make_message(nid, status, score, act_flip, target)
    if out_msg is None:
        out_msg = _make_message(nid, status, score, act_hello, None)

    return NodeState(
        id=nid,
        status=status,
        parent=parent,
        children=frozenset(children),
        score=score,
        out_message=out_msg,
    )
