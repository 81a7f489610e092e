"""Minimum control-source allocation for target controllability of
directed networks, by reduction to maximum network flow, with numeric
certification of the resulting allocations."""

from .certify import (LtiSystem, NotNumericallyControllable,
                      controllability_gramian, design_input, expm,
                      kalman_target_rank, realize_system, simulate)
from .cover import (CirculationNetwork, DriverAllocation, PathCover,
                    Solution, TargetFlowNetwork, allocate_drivers,
                    build_circulation_network, build_target_network,
                    decompose_cover, extract_cover_edges, solve,
                    solve_via_circulation, verify_cover)
from .experiments import SweepResult, SweepRow, sweep, sweep_to_csv, sweep_to_json
from .flow import (FlowAssignment, InfeasibleFlowError,
                   build_associate_graph, feasible_circulation, max_flow_dinic,
                   min_flow_with_bounds, validate_assignment,
                   verify_optimality)
from .graph import (DiGraph, EdgeListError, format_edge_list, from_adjacency,
                    generate_er, generate_sf, parse_edge_list, to_adjacency)
from .matching import Matching, driver_count, max_matching
from .network import INF, Arc, BoundedFlowNetwork

__version__ = "0.1.0"

__all__ = [
    "Arc", "BoundedFlowNetwork", "CirculationNetwork", "DiGraph",
    "DriverAllocation", "EdgeListError", "FlowAssignment", "INF",
    "InfeasibleFlowError", "LtiSystem", "Matching",
    "NotNumericallyControllable", "PathCover", "Solution", "SweepResult",
    "SweepRow", "TargetFlowNetwork", "allocate_drivers",
    "build_associate_graph", "build_circulation_network",
    "build_target_network", "controllability_gramian", "decompose_cover",
    "design_input", "driver_count", "expm", "extract_cover_edges",
    "feasible_circulation", "format_edge_list", "from_adjacency",
    "generate_er", "generate_sf", "kalman_target_rank", "max_flow_dinic",
    "max_matching", "min_flow_with_bounds", "parse_edge_list",
    "realize_system", "simulate", "solve", "solve_via_circulation", "sweep",
    "sweep_to_csv", "sweep_to_json", "to_adjacency", "validate_assignment",
    "verify_cover", "verify_optimality",
]
