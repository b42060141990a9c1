"""Broadcast capacity and scheduling-policy simulation for directed networks.

The names below are the public API: what the README's library example uses,
the types it takes and returns, and the error classes. Engine internals
(policies, queues, activation families) are imported from their submodules.
"""

from .errors import (CapabilityError, ConstructionError, ParseError,
                     SchedulingError)
from .graph import (Arborescence, Digraph, broadcast_capacity,
                    capacity_bottleneck, parse_graph, tree_packing)
from .sim import (RunResult, Sample, SimConfig, broadcast_rate, random_digraph,
                  run, sweep_k)

__all__ = [
    "Arborescence", "CapabilityError", "ConstructionError", "Digraph",
    "ParseError", "RunResult", "Sample", "SchedulingError", "SimConfig",
    "broadcast_capacity", "broadcast_rate", "capacity_bottleneck",
    "parse_graph", "random_digraph", "run", "sweep_k", "tree_packing",
]

__version__ = "0.1.0"
