"""A deliberately naive second interpreter of the forest protocol, used only
as a test oracle.

Mutable node objects execute the per-round procedure line by line; nothing
is shared with the package's implementation except the per-node random
streams (dynaforest.protocol.node_rng), so both sides draw identical flip
targets and the resulting configurations are directly comparable.
"""

from dynaforest.protocol import LAZY_REST_PROBABILITY, node_rng

T = "T"
N = "N"
FLIP = "FLIP"
SELECT = "SELECT"
HELLO = "HELLO"


class Msg:
    def __init__(self, sender, status, action, target, score):
        self.sender = sender
        self.status = status
        self.action = action
        self.target = target
        self.score = score

    def as_tuple(self):
        return (self.sender, self.status, self.action, self.target, self.score)


class NaiveNode:
    def __init__(self, nid):
        self.id = nid
        self.status = T
        self.parent = None
        self.children = set()
        self.neighbors = set()
        self.contender = None
        self.contender_score = 0
        self.score = nid
        self.mailbox = {}
        self.out_message = Msg(nid, T, HELLO, None, nid)

    # -- procedures ---------------------------------------------------------

    def become_root(self):
        self.status = T
        self.parent = None

    def adopt_parent(self, out):
        self.status = N
        self.parent = out.target
        if out.action == FLIP:
            self.children.discard(self.parent)
            self.score = min(self.score, self.mailbox[self.parent].score)

    def adopt_child(self, message):
        self.children.add(message.sender)
        if message.action == FLIP:
            self.score = max(self.score, message.score)

    def prepare_message(self, action, target):
        if action == SELECT:
            self.out_message = Msg(self.id, N, SELECT, target, self.score)
        elif action == FLIP:
            self.out_message = Msg(self.id, T, FLIP, target, self.score)
        else:
            self.out_message = Msg(self.id, self.status, HELLO, None, self.score)

    # -- one compute phase ----------------------------------------------------

    def compute(self, rng, lazy, rest_probability):
        self.neighbors = set(self.mailbox.keys())
        self.children &= self.neighbors

        if self.status == N and self.parent not in self.neighbors:
            self.become_root()

        if self.out_message.action in (FLIP, SELECT) and self.out_message.target in self.neighbors:
            self.adopt_parent(self.out_message)

        self.contender = None
        self.contender_score = 0
        for sender in sorted(self.mailbox):
            message = self.mailbox[sender]
            if message.target == self.id:
                if message.action == FLIP:
                    self.become_root()
                self.adopt_child(message)
            else:
                if message.status == T and message.score > self.contender_score:
                    self.contender = message.sender
                    self.contender_score = message.score

        self.out_message = None
        if self.status == T:
            if self.contender_score > self.score:
                self.prepare_message(SELECT, self.contender)
            elif self.children:
                if lazy and rng.random() < rest_probability:
                    pass
                else:
                    self.prepare_message(FLIP, rng.choice(sorted(self.children)))
        if self.out_message is None:
            self.prepare_message(HELLO, None)


class NaiveSimulation:
    def __init__(self, vertices, seed, lazy=False, rest_probability=LAZY_REST_PROBABILITY):
        self.nodes = {v: NaiveNode(v) for v in sorted(vertices)}
        self.rngs = {v: node_rng(seed, v) for v in sorted(vertices)}
        self.lazy = lazy
        self.rest_probability = rest_probability

    def round(self, edges):
        outgoing = {v: node.out_message for v, node in self.nodes.items()}
        for node in self.nodes.values():
            node.mailbox = {}
        for u, v in edges:
            self.nodes[u].mailbox[v] = outgoing[v]
            self.nodes[v].mailbox[u] = outgoing[u]
        for v in sorted(self.nodes):
            self.nodes[v].compute(self.rngs[v], self.lazy, self.rest_probability)

    def snapshot(self):
        """Comparable view: one tuple per node, over the fields the engine keeps."""
        view = {}
        for v, node in sorted(self.nodes.items()):
            view[v] = (
                node.status,
                node.parent,
                frozenset(node.children),
                node.score,
                node.out_message.as_tuple(),
            )
        return view


def engine_snapshot(config):
    """The same comparable view taken from an engine Configuration."""
    view = {}
    for v, st in sorted(config.states.items()):
        out = st.out_message
        view[v] = (
            st.status.value,
            st.parent,
            frozenset(st.children),
            st.score,
            (out.sender, out.sender_status.value, out.action.value, out.target, out.score),
        )
    return view
