"""The per-node automaton: a pure function from (previous state, this
round's senders and their states, per-node randomness) to the node's next
state.

A node's message is its pre-round state, so `node_step` reads the
senders' states directly.  It reads a round's input in three pieces the
engine builds once per round, none of them copied per node:

- `senders`: the node's neighbours in E_i, the engine's adjacency row.  By
  reciprocity these are exactly the nodes it hears this round.
- `states`: every node's state after the previous round, by id.
- `aimed`: the pre-round states whose target is this node.  A sender
  outside `senders` lost its edge this round, so its FLIP/SELECT is ignored.

Each round a node, in this order:

1. drops the children that are not senders (their edge vanished);
2. regenerates a token if its parent is not a sender;
3. commits its own pending FLIP/SELECT if its target is a sender; a FLIP
   also takes the smaller of the two swapped scores, the target's score;
4. adopts the senders of the FLIP/SELECTs aimed at it as children (a FLIP
   also hands over the token and the larger score);
5. prepares its next action: a token holder SELECTs the merge contender
   (of the senders that announce a token, the one with the greatest score,
   if that score is greater than its own), else FLIPs to a random child (a
   lazy root may rest instead); any other node sends a HELLO.

The announcement rule: a sender announces a token, and so can be a merge
contender, while it holds one and has no SELECT pending.  A SELECT announces
N, a FLIP announces T (only a token holder prepares one), and a HELLO
announces the sender's status.  Step 5's contender scan is the rule's one
implementation: nothing else in the package stores or derives an
announced status.

The status is final after step 4 and only a token holder can SELECT, so a
node that ends step 4 without a token skips the contender scan: the scan
could not change its action.  A FLIP aimed at the node never makes its
sender the contender, because step 4 already raised the node's score to at
least the FLIP's.  Scores are unique network-wide, so the scan never meets a
tie and the order of the senders does not matter.

A step whose new state equals the previous one returns the previous object,
so callers can tell "unchanged" by identity.  Otherwise, a step whose new
state equals `older`, the node's state from the round before last, returns
that object: a non-lazy token in a two-node tree swaps the same two states,
so in a non-lazy contact run most changed states are such a return.
`older` is not `prev` when it is returned, so "changed" is still told by
identity alone.  Any other new state is built, and validated, as usual; a
reused object was validated when it was built.

A token holder with children draws from its own stream (`node_rng`): a lazy
root whether to rest (`rng.random()`), and then the child it FLIPs to
(`choose_flip_target`).  That draw takes the same bits, and gives the same
child, as `rng.choice(sorted(children))`; a single child still takes its
bits.  When a node's inputs in a non-lazy run repeat those of two rounds
back, the engine's rule (R) skips its step and calls `choose_flip_target`
alone for a FLIP to its only child, so the stream stays where the step
would leave it.

The paper's convergence claim -- one tree per component once the network
stops changing -- is shown here for the lazy variant only.  Without rests,
a token with children FLIPs every round, and on a sparse static graph two
or more tokens can stay in one component for good.  `test_characterisation`
pins three static trees.  On the path 3-1-2-4 every non-lazy seed keeps two
trees through round 10 000, since no draw is involved.  On a 12-node tree
the non-lazy run keeps two trees through round 5000, and the lazy run has
one from round 63.  On a 78-node tree the non-lazy run still holds 15 trees
at round 20 000, and the lazy run has one from round 1914.
"""

from __future__ import annotations

import hashlib
import random
from typing import AbstractSet, Iterable, Mapping, Optional

from .model import _FLIP, _HELLO, _N, _SELECT, _T, NodeId, NodeState

# Canonical probability that a root holding the token rests for a round
# instead of circulating it (the lazy-walk variant).
LAZY_REST_PROBABILITY = 0.5


def node_rng(seed: int, node_id: NodeId) -> random.Random:
    """Per-node random stream, a deterministic function of (run seed, node id).

    Same (seed, node id, consumption sequence) => same outputs, regardless of
    how other nodes or the engine consume randomness.
    """
    # Stable across processes and platforms; never Python's randomized hash().
    digest = hashlib.sha256(f"{seed}/{node_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def initial_state(node_id: NodeId) -> NodeState:
    """Uniform initial state: every node is the root of its own tree."""
    return NodeState(
        id=node_id, status=_T, parent=None, children=frozenset(), score=node_id
    )


def choose_flip_target(children: AbstractSet[NodeId], rng: random.Random) -> NodeId:
    """Uniformly random child, drawn from the node's own seeded stream.

    The draw is `rng.choice(sorted(children))` as CPython 3.10-3.12 define
    it, `seq[_randbelow(len(seq))]`, with the same `getrandbits` calls: k
    random bits, k the bit length of the number of children, drawn until
    they read below it.  A single child takes no sort, and it still
    consumes its bits, so the node's stream stays where `choice` leaves it.
    """
    n = len(children)
    if n == 1:
        while rng.getrandbits(1):
            pass
        (child,) = children
        return child
    if not n:
        raise ValueError("cannot pick a flip target from an empty children set")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return sorted(children)[r]


def node_step(
    prev: NodeState,
    senders: AbstractSet[NodeId],
    states: Mapping[NodeId, NodeState],
    aimed: Iterable[NodeState],
    rng: random.Random,
    lazy: bool = False,
    rest_probability: float = LAZY_REST_PROBABILITY,
    older: Optional[NodeState] = None,
) -> NodeState:
    """One compute phase.  Pure: depends only on the arguments.

    - `senders`: this node's neighbours in E_i, exactly the nodes it hears
      this round (the engine guarantees reciprocity).
    - `states`: maps at least every sender to its state after the previous
      round, which holds the message it sends this round.
    - `aimed`: the pre-round states whose target is this node.  Those of
      nodes outside `senders` are ignored: their edge vanished.

    `prev.action` and `prev.target` are what this node sent at the start of
    the round.  No argument is mutated; the engine shares them between steps.

    Only a node that holds a token after adopting its children scans the
    senders for a merge contender.  That is exact: adoption is the last
    change to the status, and only a token holder prepares a SELECT, so any
    other node's action does not depend on the scan.

    Returns `prev` itself when the new state equals it; otherwise `older`
    itself when the new state equals that.  The engine passes the node's
    state from the round before last as `older`.
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
    if prev.action is not _HELLO and prev.target in senders:
        status = _N
        parent = prev.target
        if prev.action is _FLIP:
            children.discard(parent)
            announced = states[parent].score
            if announced < score:
                score = announced

    # Adopt the senders of the FLIP/SELECTs aimed at us.
    for st in aimed:
        sender = st.id
        if sender not in senders:
            continue  # the edge vanished: the sender commits nothing either
        children.add(sender)
        if st.action is _FLIP:
            status = _T
            parent = None
            if st.score > score:
                score = st.score

    # Prepare the next action.  Only a token holder SELECTs, so only it
    # scans; a FLIP aimed at us already raised our score to its own.
    action, target = _HELLO, None
    if status is _T:
        contender: Optional[NodeId] = None
        best_score = score
        for v in senders:
            st = states[v]
            # announces T: holds a token and has no SELECT pending
            if st.score > best_score and st.status is _T and st.action is not _SELECT:
                contender = v
                best_score = st.score
        if contender is not None:
            action, target = _SELECT, contender
        elif children:
            if lazy and rng.random() < rest_probability:
                pass  # hold the token this round
            else:
                action, target = _FLIP, choose_flip_target(children, rng)

    # Keep the previous object when nothing changed, else the older one when
    # the step went back to it.  Written out twice: on CPython 3.11 a loop
    # over the two took 0.35 us a step against 0.18 us (timeit).
    if (
        status is prev.status
        and parent == prev.parent
        and score == prev.score
        and action is prev.action
        and target == prev.target
        and children == prev.children
    ):
        return prev
    if (
        older is not prev
        and older is not None
        and status is older.status
        and parent == older.parent
        and score == older.score
        and action is older.action
        and target == older.target
        and children == older.children
        and older.id == nid
    ):
        return older
    return NodeState(nid, status, parent, frozenset(children), score, action, target)
