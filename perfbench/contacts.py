"""Synthetic contact-trace files shaped like the paper's 78-node dataset.

The paper's trace has 78 nodes, mean instantaneous degree about 1.3 and
contacts that last thousands of rounds.  `write_contact_file` draws a window
of `duration_s` seconds from a stationary contact process with that shape:

- at time 0, 51 contacts (1.3 * 78 / 2) are in progress: a random perfect
  matching, so every id appears, plus random pairs;
- each contact lives an exponential time with mean `LIFETIME_S`, 500 s, that
  is 1 / p_death = 5000 rounds at 10 rounds/s, the edge lifetime of the
  repo's synthetic analogue of the experiment (criterion 5);
- when a contact ends inside the window, a pair not yet in contact begins
  one at the same second, so 51 contacts are in progress at every instant.

The benchmark's 60 s window is short against the lifetime, so most contacts
span the whole window and only a few begin or end inside it (about 0.02 edge
changes per round).  Contacts still running at the end of the window are cut
there.  Same seed, same bytes.
"""

from __future__ import annotations

import math
import random

from dynaforest import topology

NODES = 78
MEAN_DEGREE = 1.3
DEGREE_TOLERANCE = 0.2
LIFETIME_S = 500  # mean contact length: 5000 rounds at 10 rounds/s


class ContactFileError(RuntimeError):
    """A generated contact file misses the shape the workload promises."""


def write_contact_file(path, seed: int, duration_s: int) -> None:
    rng = random.Random(seed)
    ids = list(range(1, NODES + 1))
    rng.shuffle(ids)
    contacts_at_once = round(MEAN_DEGREE * NODES / 2)
    pairs = {tuple(sorted(ids[k:k + 2])) for k in range(0, NODES - 1, 2)}
    while len(pairs) < contacts_at_once:
        pairs.add(tuple(sorted(rng.sample(ids, 2))))

    def lifetime() -> int:
        return max(1, math.ceil(rng.expovariate(1 / LIFETIME_S)))

    pending = [(a, b, 0, lifetime()) for a, b in sorted(pairs)]
    contacts = []
    while pending:
        a, b, start, end = pending.pop()
        contacts.append((a, b, start, min(end, duration_s)))
        if end < duration_s:
            pair = tuple(sorted(rng.sample(ids, 2)))
            while pair in pairs:
                pair = tuple(sorted(rng.sample(ids, 2)))
            pairs.add(pair)
            pending.append((*pair, end, end + lifetime()))
    contacts.sort(key=lambda c: (c[2], c[0], c[1]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# synthetic contact trace: {NODES} nodes, seed {seed}\n")
        fh.writelines(f"{a} {b} {start} {end}\n" for a, b, start, end in contacts)


def check_contact_file(path, rounds_per_second, duration_s: int) -> None:
    """The file spans `duration_s`, every node appears, mean degree is 1.3 +- 0.2."""
    graph = topology.parse_contact_trace(topology.read_contact_file(path), rounds_per_second)
    if graph.rounds != duration_s * rounds_per_second:
        raise ContactFileError(f"{path}: {graph.rounds} rounds, want {duration_s} s")
    if graph.vertices != frozenset(range(1, NODES + 1)):
        raise ContactFileError(f"{path}: {len(graph.vertices)} of {NODES} nodes appear")
    degree = topology.mean_instantaneous_degree(graph)
    if abs(degree - MEAN_DEGREE) > DEGREE_TOLERANCE:
        raise ContactFileError(
            f"{path}: mean instantaneous degree {degree:.3f}, want {MEAN_DEGREE} "
            f"+- {DEGREE_TOLERANCE}"
        )
