import copy
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynaforest.model import Action, NodeState, Status
from dynaforest.protocol import choose_flip_target, initial_state, node_rng, node_step

from naive_oracle import Message, Msg, NaiveNode, engine_snapshot, message_of
from test_model import make_config, make_state

T, N = Status.T, Status.N
FLIP, SELECT, HELLO = Action.FLIP, Action.SELECT, Action.HELLO


def hello(sender, status, score):
    return Message(sender, status, HELLO, None, score)


def sender_state(m):
    """A state that sends `m`: status T for a SELECT/FLIP, else the announced one."""
    status = m.sender_status if m.action is HELLO else T
    return NodeState(m.sender, status, None, frozenset(), m.score, m.action, m.target)


def delivery(prev, received):
    """The engine's view of a message list, as `node_step` reads it.

    (senders, states, aimed): the set of senders, each sender's state, and
    the states whose target is `prev`'s node.
    """
    states = {m.sender: sender_state(m) for m in received}
    return set(states), states, [st for st in states.values() if st.target == prev.id]


def step(prev, received):
    """One non-lazy node_step with the node's own stream for seed 0."""
    return node_step(prev, *delivery(prev, received), node_rng(0, prev.id))


class TestInitialState:
    def test_score_and_greeting(self):
        st4 = initial_state(4)
        assert st4.score == 4
        assert st4.status is T
        assert message_of(st4) == Message(4, T, HELLO, None, 4)

    def test_empty_relations(self):
        st1 = initial_state(1)
        assert st1.parent is None
        assert st1.children == frozenset()

    @given(st.integers(1, 10_000))
    def test_state_consistency_holds(self, nid):
        state = initial_state(nid)
        assert (state.status is T) == (state.parent is None)


class TestBecomeRoot:
    """Token regeneration: a node whose parent sent nothing becomes a root."""

    def test_keeps_children(self):
        state = make_state(1, status=N, parent=8, children={5})
        out = step(state, [hello(5, N, 5)])
        assert out.status is T and out.parent is None
        assert out.children == frozenset({5})

    def test_idempotent_on_roots(self):
        state = make_state(3)
        assert step(state, []) == state

    def test_score_untouched(self):
        state = make_state(2, status=N, parent=3, score=7)
        assert step(state, []).score == 7


class TestAdoptParent:
    """Committing our own FLIP/SELECT when its target is still a neighbor."""

    def test_flip_takes_min_score_and_drops_child(self):
        state = make_state(5, children={2, 9}, score=8, action=FLIP, target=2)
        adopted = step(state, [hello(2, N, 2), hello(9, N, 9)])
        assert adopted.status is N and adopted.parent == 2
        assert adopted.children == frozenset({9})
        assert adopted.score == 2

    def test_select_keeps_children_and_score(self):
        state = make_state(2, children={7}, score=2, action=SELECT, target=8)
        adopted = step(state, [hello(7, N, 7), hello(8, T, 8)])
        assert adopted.status is N and adopted.parent == 8
        assert adopted.children == frozenset({7})
        assert adopted.score == 2

    def test_flip_min_identity_when_parent_announces_more(self):
        state = make_state(4, children={9}, score=5, action=FLIP, target=9)
        adopted = step(state, [hello(9, N, 9)])
        assert adopted.score == 5

    def test_flip_cancelled_when_target_sent_nothing(self):
        state = make_state(4, children={9}, score=5, action=FLIP, target=9)
        out = step(state, [])
        assert out.status is T and out.parent is None
        assert out.children == frozenset()
        assert message_of(out) == Message(4, T, HELLO, None, 5)


class TestAdoptChild:
    """The sender of a FLIP/SELECT aimed at us becomes a child."""

    def test_flip_takes_max_score(self):
        state = make_state(2, score=2)
        adopted = step(state, [Message(8, T, FLIP, 2, 8)])
        assert 8 in adopted.children
        assert adopted.score == 8

    def test_select_keeps_score(self):
        state = make_state(4, score=4)
        adopted = step(state, [Message(9, N, SELECT, 4, 9)])
        assert 9 in adopted.children
        assert adopted.score == 4

    def test_flip_max_identity_when_sender_announces_less(self):
        state = make_state(6, score=6)
        assert step(state, [Message(3, T, FLIP, 6, 1)]).score == 6


class TestChooseContender:
    """The merge contender, seen through the SELECT a root prepares."""

    def test_picks_greatest_token_score(self):
        out = step(make_state(1), [hello(8, T, 8), hello(4, T, 4)])
        assert message_of(out) == Message(1, N, SELECT, 8, 1)

    def test_no_token_holders_visible(self):
        out = step(make_state(1), [hello(2, N, 2), hello(3, N, 3)])
        assert message_of(out) == Message(1, T, HELLO, None, 1)

    def test_circulating_token_stays_detectable(self):
        # a FLIP aimed at a third node still announces T
        out = step(make_state(1), [Message(7, T, FLIP, 3, 7)])
        assert message_of(out) == Message(1, N, SELECT, 7, 1)

    def test_pending_select_hides_the_token(self):
        # 9 still holds its token, but its SELECT to a third node announces N
        out = step(make_state(1), [Message(9, N, SELECT, 5, 9), hello(4, T, 4)])
        assert message_of(out) == Message(1, N, SELECT, 4, 1)

    def test_messages_targeted_at_us_are_excluded(self):
        # the FLIP aimed at us is a child adoption, not a merge offer
        out = step(make_state(1), [Message(7, T, FLIP, 1, 7), hello(2, T, 2)])
        assert out.children == frozenset({7}) and out.score == 7
        assert message_of(out) == Message(1, T, FLIP, 7, 7)

    @given(
        st.lists(
            st.tuples(st.integers(2, 40), st.booleans(), st.integers(1, 99)),
            unique_by=(lambda t: t[0], lambda t: t[2]),
        ),
        st.integers(1, 99),
    )
    def test_matches_naive_max_scan(self, triples, own_score):
        # scores are unique network-wide, so no two senders tie
        assume(all(score != own_score for _, _, score in triples))
        received = [
            hello(sender, T if is_root else N, score) for sender, is_root, score in triples
        ]
        out = step(make_state(1, score=own_score), received)
        candidates = [(s, sender) for sender, is_root, s in triples if is_root]
        if candidates and max(candidates)[0] > own_score:
            best_sender = max(candidates)[1]
            assert message_of(out) == Message(1, N, SELECT, best_sender, own_score)
        else:
            assert message_of(out) == Message(1, T, HELLO, None, own_score)


class TestChooseFlipTarget:
    def test_singleton(self):
        rng = node_rng(0, 1)
        assert choose_flip_target(frozenset({5}), rng) == 5

    def test_pinned_reproducible_draw(self):
        # frozen from the first run of this generator; must never drift
        rng = node_rng(42, 5)
        assert choose_flip_target(frozenset({3, 7, 9}), rng) == 9
        rng2 = node_rng(42, 5)
        assert choose_flip_target(frozenset({3, 7, 9}), rng2) == 9

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            choose_flip_target(frozenset(), node_rng(0, 1))

    @pytest.mark.parametrize("size", range(1, 10))
    def test_draws_as_choice_over_the_sorted_children(self, size):
        # the same child and the same stream afterwards, draw after draw
        for seed in range(300):
            children = frozenset(random.Random(seed).sample(range(1, 50), size))
            ours, theirs = node_rng(seed, size), node_rng(seed, size)
            for _ in range(5):
                assert choose_flip_target(children, ours) == theirs.choice(sorted(children))
                assert ours.getstate() == theirs.getstate(), (seed, size)

    def test_roughly_uniform_over_two_children(self):
        rng = node_rng(7, 1)
        draws = [choose_flip_target(frozenset({3, 7}), rng) for _ in range(10_000)]
        for value in (3, 7):
            assert 0.47 <= draws.count(value) / 10_000 <= 0.53


class TestPrepareMessage:
    """The fields of the message a step prepares for the next round."""

    def test_select_fields(self):
        out = step(make_state(2, score=2), [hello(8, T, 8)])
        assert message_of(out) == Message(2, N, SELECT, 8, 2)

    def test_flip_fields(self):
        out = step(make_state(8, children={2}, score=8), [hello(2, N, 2)])
        assert message_of(out) == Message(8, T, FLIP, 2, 8)

    def test_hello_copies_status(self):
        out = step(make_state(3, status=N, parent=4, score=3), [hello(4, T, 4)])
        assert message_of(out) == Message(3, N, HELLO, None, 3)


class TestNodeStep:
    def test_isolated_root_falls_through_to_hello(self):
        prev = make_state(1, children={4})  # stale child, no longer a neighbor
        out = node_step(prev, *delivery(prev, []), node_rng(0, 1))
        assert out.status is T and out.parent is None
        assert out.children == frozenset()
        assert message_of(out) == Message(1, T, HELLO, None, 1)

    def test_root_spots_contender_and_prepares_select(self):
        prev = initial_state(1)
        out = node_step(prev, *delivery(prev, [hello(4, T, 4)]), node_rng(0, 1))
        assert message_of(out) == Message(1, N, SELECT, 4, 1)

    def test_token_regeneration_when_parent_disappears(self):
        prev = make_state(3, status=N, parent=8, children={5, 6})
        out = node_step(prev, *delivery(prev, [hello(5, N, 5)]), node_rng(0, 3))
        assert out.status is T and out.parent is None
        assert out.children == frozenset({5})  # pruned to current neighbors

    def test_flip_commit_with_simultaneous_select_arrival(self):
        # hand-executed oracle: we flipped to 2 while 7 selects us
        prev = make_state(5, children={2}, score=9, action=FLIP, target=2)
        received = [hello(2, N, 2), Message(7, N, SELECT, 5, 7)]
        out = node_step(prev, *delivery(prev, received), node_rng(0, 5))
        assert out.status is N and out.parent == 2
        assert out.children == frozenset({7})
        assert out.score == 2
        assert message_of(out) == Message(5, N, HELLO, None, 2)

    def test_purity_same_inputs_same_output(self):
        prev = make_state(2, children={4, 5})
        received = [hello(4, N, 4), hello(5, N, 5), hello(9, T, 9)]
        rng_a, rng_b = node_rng(11, 2), node_rng(11, 2)
        inputs = delivery(prev, received)
        assert node_step(prev, *inputs, rng_a) == node_step(prev, *inputs, rng_b)

    def test_lazy_root_rests_with_certainty_at_probability_one(self):
        prev = make_state(8, children={2})
        inputs = delivery(prev, [hello(2, N, 2)])
        out = node_step(prev, *inputs, node_rng(0, 8), lazy=True, rest_probability=1.0)
        assert out.action is HELLO
        out = node_step(prev, *inputs, node_rng(0, 8), lazy=True, rest_probability=0.0)
        assert out.action is FLIP

    @settings(max_examples=60)
    @given(st.integers(0, 2**32))
    def test_outputs_keep_local_invariants(self, seed):
        import random as pyrandom

        rnd = pyrandom.Random(seed)
        nid = rnd.randint(1, 9)
        others = [i for i in range(1, 10) if i != nid]
        senders = rnd.sample(others, rnd.randint(0, len(others)))
        received = []
        for s in senders:
            roll = rnd.random()
            if roll < 0.6:
                received.append(hello(s, T if rnd.random() < 0.5 else N, rnd.randint(1, 9)))
            elif roll < 0.8:
                target = rnd.choice([x for x in range(1, 10) if x != s])
                received.append(Message(s, T, FLIP, target, rnd.randint(1, 9)))
            else:
                target = rnd.choice([x for x in range(1, 10) if x != s])
                received.append(Message(s, N, SELECT, target, rnd.randint(1, 9)))
        prev = make_state(
            nid,
            status=T if rnd.random() < 0.5 else N,
            parent=None,
            children=set(rnd.sample(others, rnd.randint(0, 3))),
            score=rnd.randint(1, 9),
        )
        if prev.status is N:
            candidates = [x for x in others if x not in prev.children]
            prev = make_state(
                nid, status=N, parent=rnd.choice(candidates), children=prev.children,
                score=prev.score,
            )
            # a SELECT from our own parent aimed at us cannot happen in a
            # forest-consistent run; drafting one trips state validation
            received = [
                m
                for m in received
                if not (m.sender == prev.parent and m.action is SELECT and m.target == nid)
            ]
        lazy = rnd.random() < 0.5
        out = node_step(prev, *delivery(prev, received), node_rng(seed, nid), lazy=lazy)
        # local state consistency
        assert (out.status is T) == (out.parent is None)
        # parent never among children
        assert out.parent is None or out.parent not in out.children
        # no self-messaging
        assert out.target != nid
        # children are drawn from this round's senders
        assert out.children <= frozenset(m.sender for m in received)


@st.composite
def step_inputs(draw):
    """Any valid (prev, received, rng, lazy, rest probability) on nodes 1..4.

    Scores are unique, as in a run; the previous action and target are drawn
    on their own, so a new state often differs from it in a single field.
    """
    ids = [1, 2, 3, 4]
    nid = draw(st.sampled_from(ids))
    others = [v for v in ids if v != nid]
    score_of = dict(zip(ids, draw(st.permutations(ids))))

    def message(sender, score):
        action = draw(st.sampled_from([HELLO, FLIP, SELECT]))
        if action is HELLO:
            return Message(sender, draw(st.sampled_from([T, N])), HELLO, None, score)
        target = draw(st.sampled_from([v for v in ids if v != sender]))
        return Message(sender, T if action is FLIP else N, action, target, score)

    parent = draw(st.sampled_from([None] + others))
    action = draw(st.sampled_from([HELLO, FLIP, SELECT]))
    prev = make_state(
        nid,
        status=draw(st.sampled_from([T, N])),
        parent=parent,
        children=draw(st.sets(st.sampled_from([v for v in others if v != parent]))),
        score=score_of[nid],
        action=action,
        target=None if action is HELLO else draw(st.sampled_from(others)),
    )
    senders = draw(st.lists(st.sampled_from(others), unique=True))
    received = [message(s, score_of[s]) for s in senders]
    rng = node_rng(draw(st.integers(0, 2**16)), nid)
    return prev, received, rng, draw(st.booleans()), draw(st.sampled_from([0.0, 0.5, 1.0]))


def naive_step(prev, received, rng, lazy, rest_probability):
    """One step of the naive interpreter's node, in its comparable view."""

    def naive(m):
        return Msg(m.sender, m.sender_status.value, m.action.value, m.target, m.score)

    node = NaiveNode(prev.id)
    node.status, node.parent = prev.status.value, prev.parent
    node.children, node.score = set(prev.children), prev.score
    node.out_message = naive(message_of(prev))
    node.mailbox = {m.sender: naive(m) for m in received}
    node.compute(rng, lazy, rest_probability)
    return (
        node.status,
        node.parent,
        frozenset(node.children),
        node.score,
        node.out_message.as_tuple(),
    )


def settled(received, nid):
    """The mailbox one round later: senders whose FLIP/SELECT reached `nid` committed."""
    return [hello(m.sender, N, m.score) if m.target == nid else m for m in received]


class TestReuse:
    @settings(max_examples=400)
    @given(step_inputs())
    def test_equal_message_and_state_are_the_previous_objects(self, inputs):
        prev, received, rng, lazy, rest_probability = inputs
        # the drawn step, then a second step on the same mailbox once the
        # senders whose FLIP/SELECT reached this node have committed: the
        # second often changes nothing
        state, mailbox = prev, received
        for _ in range(2):
            inputs = (state, *delivery(state, mailbox), rng, lazy, rest_probability)
            copies = copy.deepcopy(inputs)
            oracle = naive_step(*copy.deepcopy((state, mailbox, rng, lazy, rest_probability)))
            if oracle[1] is not None and oracle[1] in oracle[2]:
                # inputs no run produces: the new state is invalid
                with pytest.raises(ValueError):
                    node_step(*inputs)
                return
            result = node_step(*inputs)
            # the engine shares senders, states and aimed between steps
            assert inputs[1:4] == copies[1:4]
            assert result == node_step(*copies)
            assert engine_snapshot(make_config(1, [result]))[state.id] == oracle
            assert (result is state) == (result == state)
            state, mailbox = result, settled(mailbox, state.id)

    def test_unchanged_node_returns_its_previous_state(self):
        prev = make_state(3, status=N, parent=8, children={5})
        received = [hello(5, N, 5), hello(8, N, 8)]
        assert node_step(prev, *delivery(prev, received), node_rng(0, 3)) is prev

    def test_state_equal_to_the_older_one_is_that_object(self):
        prev = make_state(3, status=N, parent=8, children={5, 6})  # 6 left
        older = make_state(3, status=N, parent=8, children={5})
        received = [hello(5, N, 5), hello(8, N, 8)]
        inputs = (*delivery(prev, received), node_rng(0, 3))
        assert node_step(prev, *inputs, older=older) is older
        # another node's state with the same fields, or a different older
        # state, is not handed back: the step builds its own
        for other in (make_state(4, status=N, parent=8, children={5}, score=3),
                      make_state(3, status=N, parent=8, children={5}, score=9)):
            out = node_step(prev, *inputs, older=other)
            assert out is not other and out == older

    def test_unchanged_state_is_prev_whatever_the_older_one(self):
        prev = make_state(3, status=N, parent=8, children={5})
        received = [hello(5, N, 5), hello(8, N, 8)]
        older = make_state(3, status=N, parent=8, children={5})  # equal, not the same
        assert node_step(prev, *delivery(prev, received), node_rng(0, 3), older=older) is prev

    def test_parent_change_alone_gives_a_new_state(self):
        # a FLIP aimed at a token holder that still names a parent clears the
        # parent; nothing else changes and the lazy node rests
        prev = make_state(3, status=T, parent=8, children={5})
        received = [Message(5, T, FLIP, 3, 1), hello(8, N, 8)]
        out = node_step(
            prev, *delivery(prev, received), node_rng(0, 3), lazy=True, rest_probability=1.0
        )
        assert out.parent is None
        assert message_of(out) == message_of(prev)

    def test_new_state_keeps_the_equal_message(self):
        prev = make_state(3, status=N, parent=8, children={5, 6})  # 6 left
        received = [hello(5, N, 5), hello(8, N, 8)]
        out = node_step(prev, *delivery(prev, received), node_rng(0, 3))
        assert out.children == frozenset({5})
        assert message_of(out) == message_of(prev)
