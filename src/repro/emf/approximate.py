"""Approximate (near-duplicate) matching filter — an extension.

The paper's EMF only merges *exactly* equal features, which is lossless
but leaves near-duplicates (nodes whose neighborhoods differ by one
distant edge) unmerged. This extension trades bounded error for more
reduction: nodes are bucketed by a SimHash signature — signs of random
projections of their feature vectors — so nodes within a small angular
distance land in the same bucket with high probability and share one
representative's matching results.

Unlike Algorithm 1 this is *approximate*: the broadcast similarity can
deviate by the angular diameter of a bucket. The
``future_approximate_emf`` experiment measures both sides of that trade
against the exact filter. Setting ``num_bits`` high makes buckets
shrink toward exact duplicates.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .filter import FilterResult, first_occurrence

__all__ = [
    "simhash_signatures",
    "approximate_matching_filter",
    "e2lsh_signatures",
    "e2lsh_matching_filter",
    "NONFINITE_BUCKET",
]

#: E2LSH signature of rows whose projections have no int64 bucket. It is
#: empty, so no finite row (one entry per projection) shares it, and its
#: hash is the same in every process.
NONFINITE_BUCKET: tuple = ()


def simhash_signatures(
    features: np.ndarray,
    num_bits: int = 32,
    seed: int = 0,
    center: bool = True,
) -> np.ndarray:
    """SimHash signature per row: sign pattern of random projections.

    Rows with small angular distance agree on most bits; each bit
    disagrees with probability ``theta / pi`` for angle ``theta``.

    ``center`` subtracts the mean row first. GNN features after several
    ReLU layers are nearly parallel (direction collapse), so raw angular
    hashing puts everything in one bucket; centering measures angles
    around the feature cloud's centroid, where node differences live.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    if num_bits < 1 or num_bits > 64:
        raise ValueError("num_bits must be in [1, 64]")
    if center and features.shape[0]:
        features = features - features.mean(axis=0, keepdims=True)
    rng = np.random.default_rng(seed)
    projections = rng.normal(size=(features.shape[1], num_bits))
    bits = (features @ projections) >= 0.0
    weights = (1 << np.arange(num_bits, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights).sum(axis=1)


def approximate_matching_filter(
    features: np.ndarray,
    num_bits: int = 32,
    seed: int = 0,
    center: bool = True,
) -> FilterResult:
    """Bucket nodes by SimHash signature; first of each bucket is unique.

    Returns the same :class:`FilterResult` structure as the exact
    filter, so :class:`~repro.emf.filter.MatchingPlan` and the
    simulators consume it unchanged. Exact duplicates always share a
    signature, so the approximate filter removes at least as much as
    bucketing-by-equality; with few bits it merges near-duplicates too.
    """
    signatures = simhash_signatures(features, num_bits, seed, center)
    representatives, inverse = first_occurrence(signatures.tolist())
    return FilterResult(
        representatives.tolist(),
        inverse,
        signatures[representatives].astype(np.uint32),
    )


def e2lsh_signatures(
    features: np.ndarray,
    num_projections: int = 8,
    bucket_width: float = 0.1,
    seed: int = 0,
) -> List[tuple]:
    """p-stable (E2LSH) signatures: quantized random projections.

    Rows within euclidean distance ~``bucket_width`` collide with high
    probability. Unlike SimHash this is *distance*-sensitive, which is
    the right family for post-ReLU GNN features: their directions
    collapse and the informative differences are magnitudes (see the
    ``future_approximate_emf`` experiment for the comparison).

    A row with a NaN or infinite projection, or one beyond the int64
    range, gets the signature :data:`NONFINITE_BUCKET`: all such rows
    share one bucket, apart from every finite one.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    if num_projections < 1:
        raise ValueError("num_projections must be positive")
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    rng = np.random.default_rng(seed)
    projections = rng.normal(size=(features.shape[1], num_projections))
    offsets = rng.uniform(0.0, bucket_width, size=num_projections)
    # Non-finite results are expected here and handled just below.
    with np.errstate(invalid="ignore", over="ignore"):
        buckets = np.floor((features @ projections + offsets) / bucket_width)
    # NaN and out-of-range buckets have no int64 value; such rows share
    # one bucket rather than whatever the platform's cast yields.
    exact = np.all(np.abs(buckets) < 2.0**63, axis=1)
    buckets[~exact] = 0.0
    return [
        tuple(row) if ok else NONFINITE_BUCKET
        for row, ok in zip(buckets.astype(np.int64).tolist(), exact.tolist())
    ]


def e2lsh_matching_filter(
    features: np.ndarray,
    num_projections: int = 8,
    bucket_width: float = 0.1,
    seed: int = 0,
) -> FilterResult:
    """Approximate filter over E2LSH buckets (distance-sensitive)."""
    signatures = e2lsh_signatures(features, num_projections, bucket_width, seed)
    representatives, inverse = first_occurrence(signatures)
    # A tuple of ints hashes the same in every process (no hash salt).
    tags = [hash(signatures[index]) & 0xFFFFFFFF for index in representatives]
    return FilterResult(
        representatives.tolist(), inverse, np.array(tags, dtype=np.uint32)
    )
