"""Persistence and identity for search databases.

Two concerns share this module because they share one byte-level graph
encoding:

- **Versioned ``.npz`` artifacts.** :func:`database_arrays` /
  :func:`graphs_from_arrays` are the codec behind
  ``SimilaritySearchIndex.save``/``load``; the payload carries a
  ``schema_version`` and readers accept the current one only, so a
  file of any other layout is rejected instead of misread.
- **Exact graph signatures.** :func:`graph_signature` returns a bytes
  key that is equal iff two graphs have byte-identical structure and
  features — the request/candidate dedup stages of the serving
  pipeline broadcast one computed result across identical graphs, the
  same duplicate-detection-then-broadcast move the EMF's ``bytes``
  method makes at the node level (Algorithm 1), lifted to whole graphs.
  Byte keys cannot collide, so dedup is exact by construction.

The codec is also how the database travels to worker processes: the
executor publishes one uncompressed ``.npz`` image of the database in
its shared-memory snapshot, and each worker rebuilds only the graphs it
is asked to score.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "database_arrays",
    "graphs_from_arrays",
    "graphs_to_npz_bytes",
    "sketch_from_arrays",
    "graph_signature",
]

#: v1: ``g{i}/edges``, ``g{i}/features``, ``g{i}/num_nodes`` per graph
#: plus ``count`` (no version stamp). v2 adds the ``schema_version``
#: stamp itself; the graph arrays are unchanged. v3 adds the *optional*
#: ``sketch/signatures`` (count × num_perm uint64 MinHash rows) and
#: ``sketch/params`` entries — databases saved without sketches omit
#: them, and loaders fall back to flat retrieval when they are absent
#: or mismatched. Readers accept v3 only.
INDEX_SCHEMA_VERSION = 3


def database_arrays(
    graphs: Sequence[Graph],
    sketch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """The array mapping persisted for a graph database.

    ``sketch`` optionally attaches the v3 sketch payload as a
    ``(signatures, params)`` pair (see
    :meth:`repro.search.sketch.SketchConfig.to_params`); the signature
    matrix must hold one row per graph.
    """
    arrays: Dict[str, np.ndarray] = {
        "schema_version": np.array(INDEX_SCHEMA_VERSION),
        "count": np.array(len(graphs)),
    }
    if sketch is not None:
        signatures, params = sketch
        signatures = np.asarray(signatures, dtype=np.uint64)
        if signatures.ndim != 2 or signatures.shape[0] != len(graphs):
            raise ValueError(
                "sketch signatures must be a (graphs, num_perm) matrix; "
                f"got shape {signatures.shape} for {len(graphs)} graphs"
            )
        arrays["sketch/signatures"] = signatures
        arrays["sketch/params"] = np.asarray(params, dtype=np.int64)
    for index, graph in enumerate(graphs):
        arrays[f"g{index}/edges"] = graph.edge_list()
        arrays[f"g{index}/features"] = graph.node_features
        arrays[f"g{index}/num_nodes"] = np.array(graph.num_nodes)
    return arrays


def graphs_from_arrays(
    data,
    start: int = 0,
    stop: int = None,
    indices: Optional[Iterable[int]] = None,
) -> List[Graph]:
    """Rebuild graphs from a :func:`database_arrays` mapping (an open
    ``npz`` file or a plain dict).

    Either a contiguous ``start:stop`` slice or an explicit ``indices``
    selection (the executor's candidate shards). Raises an actionable
    ``ValueError`` for artifacts of any other schema version (or none)
    and for artifacts missing their graph arrays.
    """
    if "count" not in data:
        raise ValueError(
            "not a search index artifact: missing the 'count' entry "
            "(expected a file written by SimilaritySearchIndex.save)"
        )
    version = int(data["schema_version"]) if "schema_version" in data else None
    if version != INDEX_SCHEMA_VERSION:
        found = "(none)" if version is None else version
        raise ValueError(
            f"unsupported search index schema version {found}; this "
            f"build reads version {INDEX_SCHEMA_VERSION} only — rebuild "
            "an older database from its graphs and save it with this "
            "build, or upgrade repro to read a newer one"
        )
    count = int(data["count"])
    if indices is None:
        stop = count if stop is None else min(stop, count)
        selection: Iterable[int] = range(start, stop)
    else:
        selection = [int(i) for i in indices]
    graphs: List[Graph] = []
    for i in selection:
        try:
            edges = data[f"g{i}/edges"]
            features = data[f"g{i}/features"]
            num_nodes = int(data[f"g{i}/num_nodes"])
        except KeyError as exc:
            raise ValueError(
                f"corrupt search index artifact: graph {i} of {count} is "
                f"missing array {exc.args[0]!r}"
            ) from None
        graphs.append(Graph(num_nodes, np.asarray(edges), features))
    return graphs


def sketch_from_arrays(data) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The v3 sketch payload ``(signatures, params)``, or ``None``.

    Databases saved without sketches return ``None``; callers fall
    back to flat retrieval. A
    signature matrix whose row count disagrees with ``count`` is
    treated as absent rather than trusted.
    """
    if "sketch/signatures" not in data or "sketch/params" not in data:
        return None
    signatures = np.asarray(data["sketch/signatures"], dtype=np.uint64)
    if signatures.ndim != 2 or signatures.shape[0] != int(data["count"]):
        return None
    return signatures, np.asarray(data["sketch/params"], dtype=np.int64)


def graphs_to_npz_bytes(graphs: Sequence[Graph]) -> bytes:
    """The database as one uncompressed ``.npz`` image (worker transport)."""
    buffer = io.BytesIO()
    np.savez(buffer, **database_arrays(graphs))
    return buffer.getvalue()


def graph_signature(graph: Graph) -> bytes:
    """Exact identity key: equal iff the graphs are byte-identical.

    Covers node count, the directed edge list (in storage order), and
    the raw (un-quantized) feature bytes — scores of two graphs with
    equal signatures are bit-identical, so broadcasting one computed
    result across them is lossless.
    """
    return b"|".join(
        (
            graph.num_nodes.to_bytes(8, "little"),
            graph.edge_list().tobytes(),
            np.ascontiguousarray(graph.node_features).tobytes(),
        )
    )
