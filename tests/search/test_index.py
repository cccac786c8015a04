"""Tests for the similarity search subsystem."""

import numpy as np
import pytest

from repro.graphs import generate_graph, substitute_edges
from repro.models import build_model, train_scorer
from repro.graphs import load_dataset
from repro.search import SimilaritySearchIndex


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(0)
    return [generate_graph("GITHUB", rng) for _ in range(8)]


@pytest.fixture(scope="module")
def index(database):
    model = build_model("GMN-Li", input_dim=database[0].feature_dim)
    idx = SimilaritySearchIndex(model)
    idx.add_many(database)
    return idx


class TestDatabase:
    def test_add_returns_indices(self, database):
        model = build_model("GMN-Li", input_dim=database[0].feature_dim)
        idx = SimilaritySearchIndex(model)
        assert idx.add_many(database[:3]) == [0, 1, 2]
        assert len(idx) == 3
        assert idx.graph(1) is database[1]

    def test_query_empty_index_rejected(self, database):
        model = build_model("GMN-Li", input_dim=database[0].feature_dim)
        idx = SimilaritySearchIndex(model)
        with pytest.raises(ValueError):
            idx.query(database[0])


class TestQuery:
    def test_planted_clone_ranks_first(self, index, database):
        rng = np.random.default_rng(7)
        query = substitute_edges(database[3], 1, rng)
        results = index.query(query, top_k=3)
        assert results[0].index == 3

    def test_top_k_respected(self, index, database):
        results = index.query(database[0], top_k=2)
        assert len(results) == 2
        assert results[0].score >= results[1].score

    def test_bad_top_k(self, index, database):
        with pytest.raises(ValueError):
            index.query(database[0], top_k=0)

    def test_emf_model_gives_same_ranking(self, database):
        dim = database[0].feature_dim
        dense = SimilaritySearchIndex(build_model("GMN-Li", input_dim=dim))
        filtered = SimilaritySearchIndex(
            build_model("GMN-Li", input_dim=dim, use_emf=True)
        )
        dense.add_many(database)
        filtered.add_many(database)
        rng = np.random.default_rng(3)
        query = substitute_edges(database[5], 1, rng)
        a = [r.index for r in dense.query(query, top_k=4)]
        b = [r.index for r in filtered.query(query, top_k=4)]
        assert a == b

    def test_trained_scorer_used(self, database):
        dim = database[0].feature_dim
        model = build_model("GMN-Li", input_dim=dim)
        train_pairs = load_dataset("GITHUB", seed=2, num_pairs=16)
        head = train_scorer(model, train_pairs, epochs=100)
        idx = SimilaritySearchIndex(model, scorer=head)
        idx.add_many(database)
        results = idx.query(database[0], top_k=2)
        assert all(0.0 <= r.score <= 1.0 for r in results)


class TestPlanning:
    def test_latency_positive(self, index, database):
        latency = index.estimate_pair_latency(database[0], "CEGMA")
        assert latency > 0

    def test_cegma_supports_larger_database(self, index, database):
        query = database[0]
        cegma = index.max_database_size(query, 1.0, "CEGMA")
        gpu = index.max_database_size(query, 1.0, "PyG-GPU")
        assert cegma > gpu

    def test_plan_report_structure(self, index, database):
        report = index.plan(
            database[0], deadline_seconds=1.0, platforms=("CEGMA", "PyG-GPU")
        )
        assert set(report) == {"CEGMA", "PyG-GPU"}
        for row in report.values():
            assert row["search_seconds"] == pytest.approx(
                row["per_pair_seconds"] * len(index)
            )

    def test_unknown_platform(self, index, database):
        with pytest.raises(KeyError):
            index.estimate_pair_latency(database[0], "TPU")

    def test_bad_deadline(self, index, database):
        with pytest.raises(ValueError):
            index.max_database_size(database[0], 0.0)


class TestQueryMany:
    def test_results_in_query_order(self, index, database):
        rng = np.random.default_rng(5)
        queries = [
            substitute_edges(database[1], 1, rng),
            substitute_edges(database[6], 1, rng),
        ]
        results = index.query_many(queries, top_k=1)
        assert len(results) == 2
        assert results[0][0].index == 1
        assert results[1][0].index == 6


@pytest.fixture(scope="module")
def small_database():
    rng = np.random.default_rng(11)
    return [generate_graph("AIDS", rng) for _ in range(6)]


@pytest.fixture(scope="module")
def small_index(small_database):
    model = build_model("GMN-Li", input_dim=small_database[0].feature_dim)
    idx = SimilaritySearchIndex(model)
    idx.add_many(small_database)
    return idx


class TestTieBreaking:
    def test_clone_ties_rank_by_ascending_index(self, small_database):
        """Byte-identical candidates score identically; the tie must
        resolve by database index, deterministically."""
        model = build_model(
            "GMN-Li", input_dim=small_database[0].feature_dim
        )
        idx = SimilaritySearchIndex(model)
        # Database of clones: indices 0..3 all tie on every query.
        idx.add_many([small_database[0]] * 4 + [small_database[1]])
        results = idx.query(small_database[2], top_k=5)
        tied = [r.index for r in results if r.score == results[0].score]
        if len(tied) > 1:
            assert tied == sorted(tied)
        repeat = idx._query_flat(small_database[2], top_k=5)
        assert [(r.index, r.score) for r in results] == [
            (r.index, r.score) for r in repeat
        ]


class TestEdgeCases:
    def test_top_k_larger_than_database(self, small_index, small_database):
        results = small_index.query(small_database[0], top_k=50)
        assert len(results) == len(small_index)
        assert [r.index for r in results[:1]] == [0]

    def test_empty_graph_entries_are_scoreable(self, small_database):
        from repro.graphs import Graph

        dim = small_database[0].feature_dim
        model = build_model("GMN-Li", input_dim=dim)
        idx = SimilaritySearchIndex(model)
        empty = Graph(0, [], np.zeros((0, dim)))
        idx.add_many([small_database[0], empty, small_database[1]])
        results = idx.query(small_database[0], top_k=3)
        assert {r.index for r in results} == {0, 1, 2}
        assert results == idx._query_flat(small_database[0], top_k=3)

    def test_empty_graph_query(self, small_index, small_database):
        from repro.graphs import Graph

        dim = small_database[0].feature_dim
        empty = Graph(0, [], np.zeros((0, dim)))
        results = small_index.query(empty, top_k=2)
        assert len(results) == 2
        assert results == small_index._query_flat(empty, top_k=2)

    def test_query_many_empty_input(self, small_index):
        assert small_index.query_many([]) == []

    def test_save_load_empty_index(self, small_database, tmp_path):
        dim = small_database[0].feature_dim
        model = build_model("GMN-Li", input_dim=dim)
        path = tmp_path / "empty.npz"
        SimilaritySearchIndex(model).save(path)
        restored = SimilaritySearchIndex.load(path, model)
        assert len(restored) == 0
        with pytest.raises(ValueError, match="empty"):
            restored.query(small_database[0])


class TestSchemaVersioning:
    def test_artifact_carries_current_version(
        self, small_index, tmp_path
    ):
        from repro.search import INDEX_SCHEMA_VERSION

        path = tmp_path / "db.npz"
        small_index.save(path)
        with np.load(path) as data:
            assert int(data["schema_version"]) == INDEX_SCHEMA_VERSION

    def test_unknown_version_raises_actionable_error(
        self, small_index, small_database, tmp_path
    ):
        from repro.search.storage import database_arrays

        path = tmp_path / "other.npz"
        # 1 and 2 are retired layouts; a file without a stamp is v1.
        for version in (99, 1, 2, None):
            arrays = database_arrays(small_database)
            if version is None:
                del arrays["schema_version"]
            else:
                arrays["schema_version"] = np.array(version)
            np.savez_compressed(path, **arrays)
            found = "(none)" if version is None else version
            with pytest.raises(ValueError) as info:
                SimilaritySearchIndex.load(path, small_index.model)
            assert f"schema version {found};" in str(info.value)
            assert "this build reads version 3" in str(info.value)

    def test_corrupt_file_names_missing_array(
        self, small_index, small_database, tmp_path
    ):
        from repro.search.storage import database_arrays

        arrays = database_arrays(small_database[:2])
        del arrays["g1/features"]
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="graph 1 of 2"):
            SimilaritySearchIndex.load(path, small_index.model)

    def test_non_index_file_rejected(self, small_index, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a search index"):
            SimilaritySearchIndex.load(path, small_index.model)


class TestBatchedEstimates:
    def test_estimate_tracks_batched_simulation(
        self, small_index, small_database
    ):
        """The extrapolated search estimate must stay within 2x of a
        full batched simulation of the same database — the estimator
        models the batched backend, not the old per-pair serial cost."""
        from repro.graphs import GraphPair
        from repro.platforms import REGISTRY
        from repro.trace.profiler import profile_batches

        query = small_database[0]
        estimate = small_index.estimate_search_seconds(
            query, "CEGMA", batch_size=4
        )
        pairs = [
            GraphPair(candidate, query)
            for candidate in small_database
        ]
        traces = profile_batches(
            small_index.model, pairs, batch_size=4
        )
        measured = REGISTRY.build("CEGMA").simulate_batches(traces)
        ratio = estimate / measured.latency_seconds
        assert 0.5 <= ratio <= 2.0, ratio

    def test_unknown_backend_rejected(self, small_index, small_database):
        # Planning always models the batched engine; there is no switch.
        with pytest.raises(TypeError, match="backend"):
            small_index.estimate_pair_latency(
                small_database[0], "CEGMA", backend="serial"
            )

    def test_empty_index_estimate_rejected(self, small_database):
        model = build_model(
            "GMN-Li", input_dim=small_database[0].feature_dim
        )
        with pytest.raises(ValueError, match="empty"):
            SimilaritySearchIndex(model).estimate_pair_latency(
                small_database[0]
            )

    def test_plan_reports_throughput(self, small_index, small_database):
        report = small_index.plan(
            small_database[0], deadline_seconds=1.0, platforms=("CEGMA",)
        )
        row = report["CEGMA"]
        assert row["throughput_pairs_per_second"] == pytest.approx(
            1.0 / row["per_pair_seconds"]
        )


class TestGrowAfterQuery:
    def test_add_invalidates_cached_pipeline(self, small_database):
        """Regression: ``query`` cached its default pipeline, whose
        retriever/executor state could go stale when the database grew
        between queries; ``add`` must invalidate the cache so the next
        query sees every entry."""
        dim = small_database[0].feature_dim
        model = build_model("GMN-Li", input_dim=dim)
        idx = SimilaritySearchIndex(model)
        idx.add_many(small_database[:4])
        idx.query(small_database[0], top_k=2)
        new_id = idx.add(small_database[4])
        results = idx.query(small_database[4], top_k=2)
        assert results[0].index == new_id
        assert results == idx._query_flat(small_database[4], top_k=2)


class TestPlanningGuards:
    def test_zero_latency_capacity_is_unbounded(self, small_index, small_database):
        from unittest.mock import patch

        with patch.object(
            SimilaritySearchIndex,
            "estimate_pair_latency",
            return_value=0.0,
        ):
            capacity = small_index.max_database_size(small_database[0], 1.0)
            assert capacity == float("inf")
            report = small_index.plan(
                small_database[0], deadline_seconds=1.0, platforms=("CEGMA",)
            )
            assert report["CEGMA"]["max_database_size"] == float("inf")


class TestSketchPersistence:
    def test_v3_round_trip_preserves_signatures(
        self, small_index, small_database, tmp_path
    ):
        from repro.search.sketch import SketchConfig

        config = SketchConfig(num_perm=32, band_rows=4)
        store = small_index.sketch_store(config)
        expected = store.matrix().copy()
        path = tmp_path / "sketched.npz"
        small_index.save(path)
        with np.load(path) as data:
            assert data["sketch/signatures"].shape == expected.shape
        restored = SimilaritySearchIndex.load(path, small_index.model)
        restored_store = restored.sketch_store()
        assert restored_store is not None
        assert restored_store.config.compatible_with(config.to_params())
        np.testing.assert_array_equal(restored_store.matrix(), expected)

    def test_sketchless_save_loads_without_store(
        self, small_database, tmp_path
    ):
        dim = small_database[0].feature_dim
        idx = SimilaritySearchIndex(build_model("GMN-Li", input_dim=dim))
        idx.add_many(small_database)
        path = tmp_path / "plain.npz"
        idx.save(path)
        with np.load(path) as data:
            assert "sketch/signatures" not in data.files
        restored = SimilaritySearchIndex.load(path, idx.model)
        assert restored._sketch_store is None
        # Flat serving still works; sketch mode rebuilds from scratch.
        assert restored.query(small_database[0], top_k=2)[0].index == 0

    def test_loaded_sketch_serves_identically(
        self, small_index, small_database, tmp_path
    ):
        from repro.search.sketch import SketchConfig

        config = SketchConfig(min_candidates=3, recall_floor=0.9)
        small_index.sketch_store(config)
        path = tmp_path / "served.npz"
        small_index.save(path)
        restored = SimilaritySearchIndex.load(path, small_index.model)
        pipeline = restored.pipeline(
            retrieval="sketch", sketch_config=config, workers=1
        )
        query = small_database[2]
        (response,) = pipeline.serve([query], top_k=3)
        assert list(response.results) == restored._query_flat(query, top_k=3)


class TestPersistence:
    def test_save_load_round_trip(self, index, database, tmp_path):
        path = tmp_path / "db.npz"
        index.save(path)
        from repro.search import SimilaritySearchIndex

        restored = SimilaritySearchIndex.load(path, index.model)
        assert len(restored) == len(index)
        assert restored.graph(2) == index.graph(2)

    def test_loaded_index_ranks_identically(self, index, database, tmp_path):
        path = tmp_path / "db.npz"
        index.save(path)
        from repro.search import SimilaritySearchIndex

        restored = SimilaritySearchIndex.load(path, index.model)
        rng = np.random.default_rng(9)
        query = substitute_edges(database[4], 1, rng)
        original = [(r.index, r.score) for r in index.query(query, top_k=3)]
        reloaded = [(r.index, r.score) for r in restored.query(query, top_k=3)]
        assert original == reloaded
