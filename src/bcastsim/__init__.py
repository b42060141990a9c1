"""Broadcast capacity and scheduling-policy simulation for directed networks."""

from .errors import (CapabilityError, ConstructionError, ParseError,
                     SchedulingError)
from .graph import (Arborescence, Digraph, broadcast_capacity,
                    capacity_bottleneck, cut_capacity, enumerate_reachable_sets,
                    format_graph, in_edges, is_arborescence, is_reachable_set,
                    mask_from_nodes, max_flow, out_edges, parse_graph,
                    sequence_from_arborescence, set_plus_edge, tree_packing,
                    validate_reachable_sequence)
from .policies import (MultiClassState, RandomizedTable, assign_class,
                       best_transition, build_randomized_table,
                       count_exactly_at, default_eps, max_weight_decide,
                       multiclass_apply, multiclass_decide,
                       multiclass_edge_weight, randomized_decide,
                       sample_reachable_sequences, static_tree_decide)
from .queues import VirtualQueueState
from .sim import (RunResult, Sample, SimConfig, broadcast_rate, random_digraph,
                  run, sweep_k)
from .wireless import (ActivationFamily, choose_activation, edge_weight,
                       make_family, parse_activation_family,
                       primary_interference_family, singleton_family,
                       wireline_family)

__version__ = "0.1.0"
