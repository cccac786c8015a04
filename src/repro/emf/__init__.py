"""Elastic Matching Filter: XXHash tagging, Algorithm 1, hardware model."""

from .approximate import (
    approximate_matching_filter,
    e2lsh_matching_filter,
    e2lsh_signatures,
    simhash_signatures,
)
from .batch import batch_matching_counts, cross_pair_headroom
from .filter import FilterResult, MatchingPlan, elastic_matching_filter
from .hardware import EMFCycleReport, EMFHardwareModel
from .signatures import node_feature_tags
from .xxhash import (
    FEATURE_QUANTIZATION_DECIMALS,
    hash_feature_matrix,
    hash_feature_vector,
    quantize_features,
    xxh32,
    xxh32_batch,
)

__all__ = [
    "xxh32",
    "xxh32_batch",
    "hash_feature_vector",
    "hash_feature_matrix",
    "quantize_features",
    "FEATURE_QUANTIZATION_DECIMALS",
    "FilterResult",
    "MatchingPlan",
    "elastic_matching_filter",
    "EMFHardwareModel",
    "EMFCycleReport",
    "batch_matching_counts",
    "cross_pair_headroom",
    "node_feature_tags",
    "approximate_matching_filter",
    "simhash_signatures",
    "e2lsh_matching_filter",
    "e2lsh_signatures",
]
