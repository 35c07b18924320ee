"""Spanning-forest maintenance over adversarial dynamic networks.

A deterministic round-based simulator for the token-forest protocol, with
invariant checkers for every maintained property and an experiment harness
for trees-per-component measurements.
"""

from .model import (
    Action,
    Configuration,
    EvolvingGraph,
    NodeState,
    Status,
    make_edge,
    make_edge_set,
)
from .engine import initial_configuration, iter_run, run_round
from .protocol import initial_state, node_rng, node_step

__version__ = "0.2.0"

__all__ = [
    "Action",
    "Configuration",
    "EvolvingGraph",
    "NodeState",
    "Status",
    "initial_configuration",
    "initial_state",
    "iter_run",
    "make_edge",
    "make_edge_set",
    "node_rng",
    "node_step",
    "run_round",
    "__version__",
]
