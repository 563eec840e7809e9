"""Deterministic synthetic workload generators for the benchmarks."""

from .graphs import (
    grid_road_network,
    layered_dag_weights,
    random_digraph_weights,
    scale_free_weights,
    weights_to_boolean,
    weights_to_networkx,
)
from .matrices import augmented_system, diagonally_dominant, random_rhs, spd_matrix
from .problems import PROBLEM_SPECS, make_problem

__all__ = [
    "random_digraph_weights",
    "grid_road_network",
    "scale_free_weights",
    "layered_dag_weights",
    "weights_to_boolean",
    "weights_to_networkx",
    "diagonally_dominant",
    "spd_matrix",
    "augmented_system",
    "random_rhs",
    "PROBLEM_SPECS",
    "make_problem",
]
