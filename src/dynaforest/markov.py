"""The edge-Markov adversary's chain: per-pair holding times drawn with numpy.

Only the edge-Markov adversary needs numpy, so this module is its only
importer: `topology.edge_markov` imports it when called, and contact,
scripted, `check` and `replay-figure` runs never load numpy.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import EdgeSet
from .topology import EdgeMarkovParams


def stay_log(p: float) -> float:
    """log1p(-p): the log of the chance per round to keep a state that is
    left with probability p; -inf at p == 1."""
    return -math.inf if p == 1.0 else math.log1p(-p)


def holding_times(u: np.ndarray, log_stay) -> np.ndarray:
    """Rounds a pair stays in a state it leaves with probability p per round.

    Inverts the geometric law P(k > t) = (1 - p)^t at the uniforms u in
    [0, 1): k = floor(log1p(-u) / log_stay) + 1, where log_stay is
    `stay_log(p)`, a float or an array shaped like u.  The result is
    float64: where p == 0 (log_stay == 0) the state is never left and k is
    inf, without a division; p == 1 (log_stay == -inf) gives k == 1; and a
    holding time too long for int64 (p below about 1e-18) stays a huge
    float, or inf, instead of wrapping.
    """
    k = np.full(np.shape(u), np.inf)
    with np.errstate(over="ignore"):  # p near 5e-324: the ratio overflows to inf
        np.divide(np.log1p(-u), log_stay, out=k, where=log_stay < 0.0)
    np.floor(k, out=k)
    k += 1.0
    return k


class _MarkovSchedule:
    """Two-state chain over all node pairs, advanced flip by flip.

    Each pair keeps the round of its next flip.  All pairs start absent
    before round 1.  The first query draws one uniform per pair, in pair
    order ((1, 2), (1, 3), ..., (n-1, n)), and turns each into the pair's
    first holding time with `holding_times(u, stay_log(p_birth))`.  At a
    round where some pairs are due, they flip, then draw one uniform each,
    in pair order, and hold for `holding_times(u, stay_log(p))` more
    rounds, p being p_death for a pair now present and p_birth for one now
    absent.  Holding times are geometric, P(a pair holds > t rounds) =
    (1 - p)^t, the law of the per-round chain in `EdgeMarkovParams`, so a
    query runs only through rounds where some pair is due, and a quiet
    round costs one comparison with the earliest due round.  The holding
    time inverts `Generator.random` doubles rather than calling
    `Generator.geometric`, whose algorithm numpy does not promise to keep
    across versions.  Due rounds are float64: exact below 2^53 rounds, inf
    for a state that is never left.

    Construction draws nothing.  Forward queries advance the chain; a
    backward query replays from round one, so any access order yields the
    same deterministic schedule.  While no pair flips, queries return the
    same `frozenset` object, so callers can tell an unchanged E_i by
    identity.
    """

    def __init__(self, params: EdgeMarkovParams):
        self._params = params
        iu, jv = np.triu_indices(params.n, k=1)
        self._pairs = list(zip((iu + 1).tolist(), (jv + 1).tolist()))
        self._round = None  # no query yet: no generator, nothing drawn

    def _start(self):
        p = self._params
        self._rng = np.random.Generator(np.random.PCG64(p.seed))
        self._present = np.zeros(len(self._pairs), dtype=bool)
        self._stay = (stay_log(p.p_birth), stay_log(p.p_death))  # absent, present
        self._due = holding_times(self._rng.random(len(self._pairs)), self._stay[0])
        self._next = float(self._due.min()) if len(self._pairs) else math.inf
        self._round = 0
        self._cached: Optional[EdgeSet] = None  # None: stale, rebuild on the next query

    def _flip(self, r):
        """Flip the pairs due in round r and draw their next flip rounds."""
        hits = np.flatnonzero(self._due == r)
        now = self._present[hits] = ~self._present[hits]
        stay = np.where(now, self._stay[1], self._stay[0])
        self._due[hits] = holding_times(self._rng.random(len(hits)), stay) + r
        self._next = float(self._due.min())
        self._cached = None

    def __call__(self, i: int) -> EdgeSet:
        if i < 1:
            raise ValueError(f"round index must be >= 1, got {i}")
        if self._round is None or i < self._round:
            self._start()
        while self._next <= i:
            self._flip(self._next)
        self._round = i
        if self._cached is None:
            present = np.flatnonzero(self._present).tolist()
            self._cached = frozenset(map(self._pairs.__getitem__, present))
        return self._cached
