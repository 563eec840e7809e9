"""Tile kernels: iterative (loop-based) and parametric r-way recursive
divide-&-conquer, plus the simulated OpenMP runtime and the ideal-cache
miss simulator that quantifies their locality difference."""

from ..core.blocked import CASE_FLAGS, case_of
from .cache_model import (
    CacheReport,
    LRUCache,
    iterative_gep_misses,
    recursive_gep_misses,
)
from .iterative import IterativeKernel, gep_tile_update, gep_tile_update_loop
from .openmp import OmpRuntime
from .recursive import RecursiveKernel
from .stats import KernelInvocation, KernelStats

__all__ = [
    "IterativeKernel",
    "RecursiveKernel",
    "gep_tile_update",
    "gep_tile_update_loop",
    "OmpRuntime",
    "KernelStats",
    "KernelInvocation",
    "CASE_FLAGS",
    "case_of",
    "LRUCache",
    "CacheReport",
    "iterative_gep_misses",
    "recursive_gep_misses",
]
