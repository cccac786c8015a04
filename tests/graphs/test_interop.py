"""Tests for networkx/scipy interoperability."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.graphs import Graph, MotifSpec, erdos_renyi_graph, motif_soup_graph
from repro.graphs.interop import (
    SPARSE_THRESHOLD,
    from_networkx,
    propagation_matrix,
    sparse_adjacency,
    sparse_normalized_adjacency,
    to_networkx,
)


def _sample_graph():
    features = np.arange(8, dtype=float).reshape(4, 2)
    return Graph.from_undirected_edges(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], features
    )


class TestNetworkxRoundTrip:
    def test_topology_preserved(self):
        g = _sample_graph()
        restored = from_networkx(to_networkx(g))
        assert restored.undirected_edge_set() == g.undirected_edge_set()
        assert restored.num_nodes == g.num_nodes

    def test_features_preserved(self):
        g = _sample_graph()
        restored = from_networkx(to_networkx(g))
        assert np.array_equal(restored.node_features, g.node_features)

    def test_missing_features_default_to_ones(self):
        nx_graph = nx.path_graph(3)
        g = from_networkx(nx_graph)
        assert np.array_equal(g.node_features, np.ones((3, 1)))

    def test_arbitrary_node_labels(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge("alpha", "beta")
        nx_graph.add_edge("beta", "gamma")
        g = from_networkx(nx_graph, feature_key=None)
        assert g.num_nodes == 3
        assert g.num_undirected_edges == 2

    def test_motif_copies_are_isomorphic(self):
        """Use networkx's VF2 to certify the generator's core property:
        motif copies are genuinely isomorphic subgraphs."""
        rng = np.random.default_rng(0)
        g = motif_soup_graph(
            [MotifSpec("wheel", 6, copies=2)],
            random_nodes=0,
            random_edges=0,
            rng=rng,
        )
        whole = to_networkx(g)
        first = whole.subgraph(range(6))
        second = whole.subgraph(range(6, 12))
        assert nx.is_isomorphic(first, second)


class TestSparseMatrices:
    def test_sparse_adjacency_matches_dense(self):
        g = _sample_graph()
        assert np.array_equal(
            sparse_adjacency(g).toarray(), g.dense_adjacency()
        )

    def test_sparse_normalized_matches_dense(self):
        g = _sample_graph()
        sparse = sparse_normalized_adjacency(g).toarray()
        dense = g.normalized_adjacency()
        assert np.allclose(sparse, dense)

    def test_no_self_loops_variant(self):
        g = _sample_graph()
        sparse = sparse_normalized_adjacency(g, add_self_loops=False).toarray()
        dense = g.normalized_adjacency(add_self_loops=False)
        assert np.allclose(sparse, dense)

    def test_isolated_node_no_nan(self):
        g = Graph(3, [(0, 1), (1, 0)])
        sparse = sparse_normalized_adjacency(g, add_self_loops=False)
        assert np.all(np.isfinite(sparse.toarray()))


class TestPropagationMatrix:
    """The Fig. 25 large-graph path: CSR above the threshold, dense at it."""

    @staticmethod
    def _graph(num_nodes):
        return erdos_renyi_graph(num_nodes, 3 * num_nodes, np.random.default_rng(0))

    def test_sparse_above_threshold_equals_dense(self):
        g = self._graph(SPARSE_THRESHOLD + 1)
        matrix = propagation_matrix(g)
        assert sp.issparse(matrix) and matrix.format == "csr"
        assert np.allclose(matrix.toarray(), g.normalized_adjacency())

    def test_sparse_without_self_loops(self):
        g = self._graph(SPARSE_THRESHOLD + 1)
        matrix = propagation_matrix(g, add_self_loops=False)
        assert sp.issparse(matrix)
        assert np.allclose(
            matrix.toarray(), g.normalized_adjacency(add_self_loops=False)
        )

    def test_dense_at_threshold(self):
        g = self._graph(SPARSE_THRESHOLD)
        matrix = propagation_matrix(g)
        assert isinstance(matrix, np.ndarray)
        assert np.array_equal(matrix, g.normalized_adjacency())


# Serves a few AIDS queries on two pool workers and computes one GraphSim
# cell (its GCN layers call ``propagation_matrix``), then prints whether
# scipy or networkx is loaded in the parent and in a serving-pool worker.
_FOOTPRINT_SCRIPT = """
import sys

HEAVY = ("scipy", "networkx")


def loaded():
    return sorted(name for name in HEAVY if name in sys.modules)


if __name__ == "__main__":
    import repro  # noqa: F401
    from repro.experiments.common import workload_results
    from repro.graphs import load_dataset
    from repro.models import build_model
    from repro.perf import parallel
    from repro.search import SimilaritySearchIndex

    pairs = load_dataset("AIDS", seed=0, num_pairs=8)
    model = build_model("GMN-Li", input_dim=pairs[0].target.feature_dim, seed=0)
    index = SimilaritySearchIndex(model)
    index.add_many([pair.target for pair in pairs])
    responses = index.pipeline(workers=2).serve([p.query for p in pairs[:4]])
    assert all(response is not None for response in responses)
    workload_results("GraphSim", "AIDS", ("CEGMA",), 2, 2, 0)
    print("parent", loaded())
    print("worker", parallel._serving_pool(2).submit(loaded).result())
    parallel.shutdown_serving_pool()
"""


class TestImportFootprint:
    def test_serving_and_models_load_neither_scipy_nor_networkx(self, tmp_path):
        # Both packages load on first use (about 34 MB of RSS): serving,
        # the pool workers and the GCN models never reach them.
        script = tmp_path / "footprint.py"
        script.write_text(_FOOTPRINT_SCRIPT)
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "parent []" in completed.stdout, completed.stdout
        assert "worker []" in completed.stdout, completed.stdout
