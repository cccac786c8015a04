"""Graph similarity search — the paper's motivating application.

Section III-A: "searching a graph from an extensive database would
require millions of matching queries ... real-time code clone search
applications require searching within a second". This package wraps the
library into that workload as a staged serving system:

- :mod:`repro.search.requests` — bounded admission with deadlines.
- :mod:`repro.search.scheduler` — request dedup + policy batching.
- :mod:`repro.search.executor` — sharded scoring and top-k merge.
- :mod:`repro.search.results` — the deterministic ranking contract.
- :mod:`repro.search.storage` — versioned persistence + signatures.
- :mod:`repro.search.pipeline` — the stages wired together.

:class:`SimilaritySearchIndex` remains the database handle and the
planning surface (how large a database fits a deadline, on which
platform). Its ``query``/``query_many`` are now thin adapters over a
default :class:`~repro.search.pipeline.ServingPipeline`; the original
flat per-candidate loop survives as :meth:`_query_flat`, the reference
side of the ``search.serve_vs_direct`` differential check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs.pairs import GraphPair
from ..models.base import GMNModel
from ..models.training import LogisticHead
from ..platforms import REGISTRY
from ..trace.profiler import profile_batches
from . import results as results_mod
from .results import SearchResult
from .storage import database_arrays, graphs_from_arrays, sketch_from_arrays

__all__ = ["SearchResult", "SimilaritySearchIndex"]


def _deadline_capacity(deadline_seconds: float, per_pair_seconds: float) -> float:
    """Candidates searchable within the deadline.

    A zero (or negative — clock skew) per-pair estimate means the
    deadline never binds: the capacity is unbounded, not a
    ``ZeroDivisionError``.
    """
    if per_pair_seconds <= 0:
        return float("inf")
    return int(deadline_seconds / per_pair_seconds)


class SimilaritySearchIndex:
    """A database of graphs searchable by GMN similarity.

    Parameters
    ----------
    model:
        The scoring backbone. ``use_emf=True`` models filter their
        matching; rankings are unchanged (the EMF is lossless).
    scorer:
        Optional trained :class:`LogisticHead` applied to the model's
        head features; falls back to the model's own score.
    """

    def __init__(
        self, model: GMNModel, scorer: Optional[LogisticHead] = None
    ) -> None:
        self.model = model
        self.scorer = scorer
        self._graphs: List[Graph] = []
        self._pipeline = None
        self._sketch_store = None

    # ------------------------------------------------------------------
    # Database management
    # ------------------------------------------------------------------
    def add(self, graph: Graph) -> int:
        """Add one graph; returns its database index."""
        if graph.feature_dim != getattr(self.model, "input_dim", graph.feature_dim):
            raise ValueError(
                "graph feature dim does not match the index's model"
            )
        self._graphs.append(graph)
        # The cached default pipeline carries per-database derived state
        # (executor signature/snapshot caches, retriever band buckets);
        # invalidate on mutation so the next query is guaranteed a
        # pipeline consistent with the grown database rather than
        # trusting every cache layer to self-extend.
        self._pipeline = None
        return len(self._graphs) - 1

    def add_many(self, graphs: Sequence[Graph]) -> List[int]:
        return [self.add(graph) for graph in graphs]

    def __len__(self) -> int:
        return len(self._graphs)

    def graph(self, index: int) -> Graph:
        return self._graphs[index]

    def save(self, path, include_sketches: Optional[bool] = None) -> None:
        """Persist the database graphs to a compressed ``.npz`` file.

        The payload is schema-versioned (see
        :data:`repro.search.storage.INDEX_SCHEMA_VERSION`); the
        model/scorer are code, not data — reload them separately and
        pass to :meth:`load`. Sketch signatures ride along when this
        index has materialized a sketch store (or when
        ``include_sketches=True`` forces one), so a reloaded index
        serves ``--retrieval sketch`` without resketching.
        """
        include = (
            self._sketch_store is not None
            if include_sketches is None
            else include_sketches
        )
        sketch = None
        if include:
            store = self.sketch_store()
            sketch = (store.matrix(), store.config.to_params())
        np.savez_compressed(
            path, **database_arrays(self._graphs, sketch=sketch)
        )

    @classmethod
    def load(cls, path, model: GMNModel, scorer=None) -> "SimilaritySearchIndex":
        """Rebuild an index from :meth:`save` output.

        Reads current and legacy (version-less) artifacts; files from a
        newer schema raise an actionable ``ValueError``. Persisted
        sketch signatures (schema v3) preload the sketch store; legacy
        artifacts load sketch-less and sketch lazily on first use (or
        serve flat).
        """
        index = cls(model, scorer)
        with np.load(path, allow_pickle=False) as data:
            index.add_many(graphs_from_arrays(data))
            sketch = sketch_from_arrays(data)
        if sketch is not None:
            from .sketch import SketchConfig, SketchStore

            signatures, params = sketch
            index._sketch_store = SketchStore(
                index._graphs,
                SketchConfig.from_params(params),
                signatures=signatures,
            )
        return index

    def sketch_store(self, config=None):
        """The index's :class:`~repro.search.sketch.SketchStore`.

        Created on first use (with ``config`` or defaults) and shared
        by every sketch-mode pipeline over this index, so signatures
        are computed once per graph. Passing a ``config`` different
        from the live store's rebuilds the store under the new
        parameters (signatures under different parameters are
        incomparable).
        """
        from .sketch import SketchConfig, SketchStore

        if config is not None and not isinstance(config, SketchConfig):
            raise TypeError("config must be a SketchConfig")
        if self._sketch_store is None:
            self._sketch_store = SketchStore(
                self._graphs, config or SketchConfig()
            )
        elif config is not None and config != self._sketch_store.config:
            self._sketch_store = SketchStore(self._graphs, config)
        return self._sketch_store

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _pair_score(self, pair: GraphPair) -> float:
        trace = self.model.forward_pair(pair)
        if self.scorer is not None and trace.head_features is not None:
            return float(
                self.scorer.predict_proba(trace.head_features[None, :])[0]
            )
        return trace.score

    def pipeline(self, **kwargs) -> "object":
        """A fresh :class:`~repro.search.pipeline.ServingPipeline` over
        this index; keyword arguments forward to its constructor."""
        from .pipeline import ServingPipeline

        return ServingPipeline(self, **kwargs)

    def _default_pipeline(self):
        if self._pipeline is None:
            self._pipeline = self.pipeline()
        return self._pipeline

    def _query_flat(self, graph: Graph, top_k: int = 5) -> List[SearchResult]:
        """Reference path: score every candidate in one flat loop.

        This is the pre-pipeline implementation (no dedup, no shards,
        no queue) kept as the ground truth the serving pipeline must
        match bit-for-bit; ties rank by ascending database index.
        """
        self._check_query(top_k)
        scores = [
            self._pair_score(GraphPair(candidate, graph))
            for candidate in self._graphs
        ]
        return results_mod.rank_scores(scores, top_k)

    def _check_query(self, top_k: int) -> None:
        if not self._graphs:
            raise ValueError("the index is empty")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")

    def query(self, graph: Graph, top_k: int = 5) -> List[SearchResult]:
        """Score the query against every candidate; return the top k.

        Thin adapter over the default serving pipeline (kept for
        compatibility — new code serving many queries should construct
        a :meth:`pipeline` and drive it directly for admission control,
        deadlines, and batching). Results are bit-identical to the flat
        reference path.
        """
        self._check_query(top_k)
        response = self._default_pipeline().serve([graph], top_k)[0]
        return list(response.results)

    def query_many(
        self, graphs: Sequence[Graph], top_k: int = 5
    ) -> List[List[SearchResult]]:
        """Batch query mode: rank every query against the database.

        The throughput scenario of Section III-A ("millions of matching
        queries"): results come back in query order. Adapter over the
        default serving pipeline — one submission per graph, one
        coalesced (and deduplicated) execution behind them.
        """
        if not graphs:
            return []
        self._check_query(top_k)
        responses = self._default_pipeline().serve(list(graphs), top_k)
        return [list(response.results) for response in responses]

    # ------------------------------------------------------------------
    # Deadline planning
    # ------------------------------------------------------------------
    def estimate_pair_latency(
        self,
        query: Graph,
        platform: str = "CEGMA",
        sample_size: Optional[int] = None,
        batch_size: int = 8,
        backend: Optional[str] = None,
    ) -> float:
        """Estimated seconds per candidate on the given platform.

        ``platform`` is any registry spec string, so planning against a
        hypothetical part (``"CEGMA@bandwidth_gbps=512"``) works too.

        The estimate models the batched execution backend the serving
        pipeline actually runs (PR 6): the profiled sample is one full
        dense batch — database candidates cycled to fill ``batch_size``
        pairs when the database is smaller — so the extrapolated
        per-pair cost includes cross-pair batch amortization instead of
        the old per-pair serial assumption. ``backend`` forwards to the
        accelerator simulators like
        :func:`repro.core.api.simulate_traces` (default: the
        simulator's own default, ``"batched"``).
        """
        simulator = REGISTRY.build(platform)  # KeyError lists known names
        if not self._graphs:
            raise ValueError("the index is empty")
        if backend is not None and hasattr(simulator, "backend"):
            from ..core.api import _validated_backend

            simulator.backend = _validated_backend(backend)
        if sample_size is None:
            sample_size = batch_size
        sample = [
            self._graphs[i % len(self._graphs)]
            for i in range(max(1, sample_size))
        ]
        pairs = [GraphPair(candidate, query) for candidate in sample]
        traces = profile_batches(self.model, pairs, batch_size=batch_size)
        result = simulator.simulate_batches(traces)
        return result.latency_per_pair

    def estimate_search_seconds(
        self, query: Graph, platform: str = "CEGMA", **kwargs
    ) -> float:
        """Estimated wall time to search the whole database."""
        return self.estimate_pair_latency(query, platform, **kwargs) * len(self)

    def max_database_size(
        self,
        query: Graph,
        deadline_seconds: float,
        platform: str = "CEGMA",
        **kwargs,
    ) -> float:
        """Largest database searchable within the deadline.

        ``float("inf")`` when the per-pair estimate is zero (a
        degenerate profile on a hypothetical platform) — the deadline
        never binds, and dividing by the estimate would raise.
        """
        if deadline_seconds <= 0:
            raise ValueError("deadline must be positive")
        per_pair = self.estimate_pair_latency(query, platform, **kwargs)
        return _deadline_capacity(deadline_seconds, per_pair)

    def plan(
        self,
        query: Graph,
        deadline_seconds: float,
        platforms: Sequence[str] = ("PyG-CPU", "PyG-GPU", "AWB-GCN", "CEGMA"),
        **kwargs,
    ) -> Dict[str, Dict[str, float]]:
        """Deadline feasibility per platform for the current database."""
        report: Dict[str, Dict[str, float]] = {}
        for platform in platforms:
            per_pair = self.estimate_pair_latency(query, platform, **kwargs)
            search_time = per_pair * len(self)
            report[platform] = {
                "per_pair_seconds": per_pair,
                "throughput_pairs_per_second": (
                    1.0 / per_pair if per_pair > 0 else float("inf")
                ),
                "search_seconds": search_time,
                "meets_deadline": float(search_time <= deadline_seconds),
                "max_database_size": _deadline_capacity(
                    deadline_seconds, per_pair
                ),
            }
        return report
