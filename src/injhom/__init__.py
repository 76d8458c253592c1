"""Locally-injective homomorphisms of oriented graphs to small
tournament targets: polynomial deciders, an exact backtracking solver,
hardness gadgets and reductions, and injective oriented chromatic
numbers."""

from .chromatic import (
    ChiCapError,
    ChiResult,
    canonical_flavour,
    canonical_tournament_key,
    check_Um_forcing,
    chi,
    enumerate_tournaments,
)
from .fileformat import (
    EdgeListError,
    format_edge_list,
    format_undirected_edge_list,
    parse_edge_list,
    parse_undirected_edge_list,
)
from .gadgets import (
    GADGET_BUILDERS,
    Gadget,
    antidirected_cycle,
    apex_cycle,
    equalizer,
    in_star,
    selector_cycle,
    selector_forced_cycle_roles,
)
from .graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    converse,
    directed_cycle,
    directed_path,
    disjoint_union,
    edgeless,
    hat,
    is_tournament,
    max_degrees,
    random_oriented_graph,
    transitive_tournament,
)
from .poly import decide_poly
from .reductions import (
    ReductionInstance,
    SimpleGraph,
    colouring_instance,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_3edge_colouring,
    lift_u4_instance,
    oracle_3col,
    oracle_3edge,
    oracle_k_colouring,
    path_graph,
    prism_graph,
    bridged_cubic_graph,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_u4,
    reduce_3edge_to_um,
    reduce_ios_c3r_to_umr,
    reduce_iot_c3r_to_umr,
    with_random_edge_order,
)
from .solver import Homomorphism, SolveResult, check_hom, enumerate_homs, solve
from .targets import TargetSpec, build_named, label_index, target_labels, u_tournament
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "ChiCapError", "ChiResult", "EdgeListError", "GADGET_BUILDERS", "Gadget",
    "Homomorphism", "Mode", "OrientedGraph", "ReductionInstance",
    "SUITES", "SimpleGraph", "SolveResult", "TargetSpec",
    "all_oriented_graphs", "antidirected_cycle", "apex_cycle", "build_named",
    "canonical_flavour", "canonical_tournament_key", "check_Um_forcing",
    "check_hom", "chi", "colouring_instance", "complete_bipartite",
    "complete_graph", "converse", "cycle_graph",
    "decide_poly", "directed_cycle", "directed_path", "disjoint_union",
    "edgeless", "enumerate_homs", "enumerate_tournaments", "equalizer",
    "find_3edge_colouring", "format_edge_list",
    "format_undirected_edge_list", "hat", "in_star", "is_tournament", "label_index", "lift_u4_instance",
    "max_degrees", "oracle_3col", "oracle_3edge", "oracle_k_colouring",
    "parse_edge_list", "parse_undirected_edge_list", "path_graph",
    "prism_graph", "bridged_cubic_graph",
    "random_oriented_graph", "reduce_3col_to_ios_c3r",
    "reduce_3col_to_iot_c3r", "reduce_3edge_to_t3r", "reduce_3edge_to_u4",
    "reduce_3edge_to_um", "reduce_ios_c3r_to_umr", "reduce_iot_c3r_to_umr",
    "run_suite", "selector_cycle", "selector_forced_cycle_roles", "solve",
    "target_labels", "transitive_tournament", "u_tournament",
    "with_random_edge_order",
]
