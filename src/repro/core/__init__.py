"""High-level public API for the CEGMA reproduction."""

from .api import (
    DEFAULT_PLATFORMS,
    compare_platforms,
    filtered_similarity_matrix,
    simulate_traces,
    simulate_workload,
)

__all__ = [
    "DEFAULT_PLATFORMS",
    "filtered_similarity_matrix",
    "simulate_workload",
    "simulate_traces",
    "compare_platforms",
]
