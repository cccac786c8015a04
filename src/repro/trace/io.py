"""Trace-file serialization.

The paper's methodology is explicitly file-based: "We first run the
GMNs on the CPU, and profile trace files ... Next, the simulator reads
these files". This module round-trips :class:`BatchTrace` lists through
a single compressed ``.npz`` file so workloads can be profiled once
(e.g. from a slow full-dataset run, or a different GMN framework per
the paper's note about TensorFlow) and simulated many times.

Format: one ``manifest`` JSON string describing the structure, plus one
array entry per tensor, keyed ``b{batch}/p{pair}/...``.
"""

from __future__ import annotations

import ast
import io
import json
import mmap as _mmap
import zipfile
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from ..counters import PHASES, FlopCounter
from ..graphs.batch import GraphPairBatch
from ..graphs.graph import Graph
from ..graphs.pairs import GraphPair
from .events import LayerTrace, PairTrace
from .profiler import BatchTrace

__all__ = [
    "save_traces",
    "load_traces",
    "traces_to_npz_bytes",
    "traces_from_buffer",
    "MmapNpzReader",
    "FORMAT_VERSION",
]

# v1: graphs + per-layer features/flops. v2 adds the optional per-pair
# ``head_features`` vector so cached traces can feed head training.
# Readers accept v2 only.
FORMAT_VERSION = 2


def _graph_arrays(prefix: str, graph: Graph, arrays: Dict[str, np.ndarray]) -> Dict:
    arrays[f"{prefix}/edges"] = graph.edge_list()
    arrays[f"{prefix}/features"] = graph.node_features
    return {"num_nodes": graph.num_nodes}


def _layer_manifest(
    prefix: str, layer: LayerTrace, arrays: Dict[str, np.ndarray]
) -> Dict:
    arrays[f"{prefix}/target_features"] = layer.target_features
    arrays[f"{prefix}/query_features"] = layer.query_features
    return {
        "layer_index": layer.layer_index,
        "in_dim": layer.in_dim,
        "out_dim": layer.out_dim,
        "has_matching": layer.has_matching,
        "similarity": layer.similarity,
        "flops": layer.flops.counts,
    }


def save_traces(
    batch_traces: Sequence[BatchTrace],
    path: Union[str, Path],
    compressed: bool = True,
) -> None:
    """Serialize batch traces to an ``.npz`` file.

    ``compressed=False`` stores arrays raw (``ZIP_STORED``), which lets
    :class:`MmapNpzReader` map them back zero-copy — the trace cache's
    choice; distribution artifacts keep the compressed default.
    """
    arrays = _collect_arrays(batch_traces)
    if compressed:
        np.savez_compressed(Path(path), **arrays)
    else:
        np.savez(Path(path), **arrays)


def traces_to_npz_bytes(batch_traces: Sequence[BatchTrace]) -> bytes:
    """The uncompressed ``.npz`` serialization as in-memory bytes.

    Byte-for-byte the ``save_traces(..., compressed=False)`` file; used
    by :mod:`repro.perf.parallel` to publish traces into a shared-memory
    segment that workers read back with ``MmapNpzReader(buffer=...)``.
    """
    arrays = _collect_arrays(batch_traces)
    sink = io.BytesIO()
    np.savez(sink, **arrays)
    return sink.getvalue()


def _collect_arrays(
    batch_traces: Sequence[BatchTrace],
) -> Dict[str, np.ndarray]:
    """The flat ``{member: array}`` mapping (manifest included)."""
    if not batch_traces:
        raise ValueError("nothing to save")
    arrays: Dict[str, np.ndarray] = {}
    manifest: Dict = {"version": FORMAT_VERSION, "batches": []}
    for b, batch_trace in enumerate(batch_traces):
        batch_entry: Dict = {"pairs": []}
        for p, trace in enumerate(batch_trace.pair_traces):
            prefix = f"b{b}/p{p}"
            pair_entry = {
                "model_name": trace.model_name,
                "score": trace.score,
                "matching_usage": trace.matching_usage,
                "label": trace.pair.label,
                "has_head_features": trace.head_features is not None,
                "readout_flops": trace.readout_flops.counts,
                "target": _graph_arrays(
                    f"{prefix}/target", trace.pair.target, arrays
                ),
                "query": _graph_arrays(
                    f"{prefix}/query", trace.pair.query, arrays
                ),
                "layers": [
                    _layer_manifest(f"{prefix}/l{i}", layer, arrays)
                    for i, layer in enumerate(trace.layers)
                ],
            }
            if trace.head_features is not None:
                arrays[f"{prefix}/head_features"] = trace.head_features
            batch_entry["pairs"].append(pair_entry)
        manifest["batches"].append(batch_entry)
    arrays["manifest"] = np.array(json.dumps(manifest))
    return arrays


def _counter_from(counts: Dict[str, int]) -> FlopCounter:
    counter = FlopCounter()
    for phase in PHASES:
        counter.counts[phase] = int(counts.get(phase, 0))
    return counter


def _graph_from(prefix: str, entry: Dict, data) -> Graph:
    edges = data[f"{prefix}/edges"]
    features = data[f"{prefix}/features"]
    return Graph(int(entry["num_nodes"]), edges, features)


class _BufferIO(io.RawIOBase):
    """Zero-copy read-only file interface over a bytes-like buffer.

    Lets :mod:`zipfile` parse an archive that lives in a shared-memory
    segment (or any buffer) without first copying it into a ``BytesIO``.
    """

    def __init__(self, buffer) -> None:
        self._buffer = buffer
        self._pos = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            self._pos = offset
        elif whence == io.SEEK_CUR:
            self._pos += offset
        elif whence == io.SEEK_END:
            self._pos = len(self._buffer) + offset
        else:  # pragma: no cover - io contract
            raise ValueError(f"invalid whence {whence}")
        self._pos = max(0, self._pos)
        return self._pos

    def tell(self) -> int:
        return self._pos

    def readinto(self, target) -> int:
        chunk = self._buffer[self._pos : self._pos + len(target)]
        count = len(chunk)
        target[:count] = chunk
        self._pos += count
        return count


class MmapNpzReader:
    """Read-only ``.npz`` access returning views over one ``mmap``.

    ``np.load`` ignores ``mmap_mode`` for ``.npz`` archives: every
    member is read and decompressed eagerly. For uncompressed archives
    (``save_traces(..., compressed=False)``) each member's payload is a
    contiguous ``.npy`` byte range inside the zip, so this reader maps
    the whole file once and serves ``np.frombuffer`` views — no copy,
    no deserialization; pages fault in only when an array is actually
    touched (the "lazy per-batch materialization" the trace cache's
    warm path relies on). A compressed member cannot be mapped and
    raises ``ValueError``; read compressed archives with ``np.load``.

    ``buffer=`` serves an archive that is already in memory — e.g. a
    shared-memory segment published by :mod:`repro.perf.parallel` — the
    same way, with arrays as zero-copy views into that buffer. The
    buffer must span exactly the archive (slice shared memory to the
    payload length; segments round up to a page).

    Arrays keep the mmap/buffer alive through their ``base`` reference,
    so the reader itself may be dropped as soon as loading finishes.
    """

    def __init__(
        self, path: Union[str, Path, None] = None, *, buffer=None
    ) -> None:
        if (path is None) == (buffer is None):
            raise ValueError("pass exactly one of path or buffer")
        if buffer is not None:
            self.path = None
            self._mmap = buffer
        else:
            self.path = Path(path)
            with open(self.path, "rb") as handle:
                self._mmap = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
        self._infos: Dict[str, zipfile.ZipInfo] = {}
        with self._open_archive() as archive:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[:-4]
                self._infos[name] = info

    def _open_archive(self) -> zipfile.ZipFile:
        if self.path is not None:
            return zipfile.ZipFile(self.path)
        return zipfile.ZipFile(_BufferIO(self._mmap))

    def keys(self):
        return self._infos.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._infos

    def __getitem__(self, name: str) -> np.ndarray:
        info = self._infos[name]
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(
                f"member {info.filename!r} is compressed; only archives "
                "written uncompressed (save_traces(..., compressed=False)) "
                "can be memory-mapped"
            )
        # The central directory's header_offset points at the local file
        # header; its name/extra lengths (which differ from the central
        # ones) give the payload start.
        local = self._mmap[info.header_offset : info.header_offset + 30]
        if local[:4] != b"PK\x03\x04":
            raise ValueError(
                f"corrupt zip local header for {info.filename!r}"
            )
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        start = info.header_offset + 30 + name_len + extra_len
        return self._read_npy(start, info.file_size, info.filename)

    def _read_npy(self, start: int, size: int, member: str) -> np.ndarray:
        view = memoryview(self._mmap)[start : start + size]
        if bytes(view[:6]) != b"\x93NUMPY":
            raise ValueError(f"member {member!r} is not an npy array")
        major = view[6]
        if major == 1:
            header_len = int.from_bytes(view[8:10], "little")
            data_start = 10 + header_len
            header_bytes = bytes(view[10:data_start])
        else:
            header_len = int.from_bytes(view[8:12], "little")
            data_start = 12 + header_len
            header_bytes = bytes(view[12:data_start])
        header = ast.literal_eval(header_bytes.decode("latin1"))
        dtype = np.dtype(header["descr"])
        if dtype.hasobject:
            raise ValueError(f"member {member!r} requires pickle")
        shape = header["shape"]
        count = 1
        for dim in shape:
            count *= dim
        array = np.frombuffer(
            self._mmap, dtype=dtype, count=count, offset=start + data_start
        )
        order = "F" if header["fortran_order"] else "C"
        return array.reshape(shape, order=order)


def load_traces(
    path: Union[str, Path], mmap: bool = False
) -> List[BatchTrace]:
    """Load batch traces previously written by :func:`save_traces`.

    With ``mmap=True`` array payloads stay memory-mapped
    (:class:`MmapNpzReader`): structurally the traces are fully built,
    but feature pages are only read from disk when a simulator touches
    them. The returned arrays are read-only views in that mode.

    Any unreadable file — missing, not an ``.npz`` archive, not a trace
    file, or another format version — raises one ``ValueError`` that
    names the file and the problem.
    """
    try:
        if mmap:
            return _build_traces(MmapNpzReader(path))
        # Open the archive first: np.load would guess that a non-zip
        # file is a pickle and report that instead.
        zipfile.ZipFile(path).close()
        with np.load(Path(path), allow_pickle=False) as data:
            return _build_traces(data)
    except OSError as exc:
        problem = exc.strerror or str(exc)
    except zipfile.BadZipFile:
        problem = "not an .npz archive"
    except KeyError as exc:
        problem = f"incomplete trace file ({exc.args[0]})"
    except ValueError as exc:
        problem = str(exc)
    raise ValueError(f"cannot read traces from {path}: {problem}")


def traces_from_buffer(buffer) -> List[BatchTrace]:
    """Rebuild traces from an in-memory uncompressed ``.npz`` image.

    The counterpart of :func:`traces_to_npz_bytes`: arrays are zero-copy
    views into ``buffer``, which must stay alive (and unmodified) while
    the traces are in use.
    """
    return _build_traces(MmapNpzReader(buffer=buffer))


def _build_traces(data) -> List[BatchTrace]:
    if "manifest" not in data:
        raise ValueError(
            "no 'manifest' member (not a trace file written by save_traces)"
        )
    manifest = json.loads(str(data["manifest"]))
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r}; this build "
            f"reads version {FORMAT_VERSION} — re-profile the workload "
            "(repro profile) to rewrite the file"
        )
    batch_traces: List[BatchTrace] = []
    for b, batch_entry in enumerate(manifest["batches"]):
        pairs: List[GraphPair] = []
        traces: List[PairTrace] = []
        for p, pair_entry in enumerate(batch_entry["pairs"]):
            prefix = f"b{b}/p{p}"
            target = _graph_from(
                f"{prefix}/target", pair_entry["target"], data
            )
            query = _graph_from(
                f"{prefix}/query", pair_entry["query"], data
            )
            label = pair_entry["label"]
            pair = GraphPair(
                target, query, None if label is None else int(label)
            )
            layers = [
                LayerTrace(
                    layer_index=int(entry["layer_index"]),
                    target_features=data[f"{prefix}/l{i}/target_features"],
                    query_features=data[f"{prefix}/l{i}/query_features"],
                    in_dim=int(entry["in_dim"]),
                    out_dim=int(entry["out_dim"]),
                    has_matching=bool(entry["has_matching"]),
                    similarity=entry["similarity"],
                    flops=_counter_from(entry["flops"]),
                )
                for i, entry in enumerate(pair_entry["layers"])
            ]
            head_features = None
            if pair_entry["has_head_features"]:
                head_features = data[f"{prefix}/head_features"]
            trace = PairTrace(
                pair_entry["model_name"],
                pair,
                layers,
                _counter_from(pair_entry["readout_flops"]),
                float(pair_entry["score"]),
                pair_entry["matching_usage"],
                head_features=head_features,
            )
            pairs.append(pair)
            traces.append(trace)
        batch_traces.append(BatchTrace(GraphPairBatch(pairs), traces))
    return batch_traces
