"""Tests for trace-file serialization."""

import numpy as np
import pytest

from repro.graphs import load_dataset
from repro.models import build_model
from repro.sim import AcceleratorSimulator, cegma_config
from repro.trace import profile_batches
from repro.trace.io import load_traces, save_traces


@pytest.fixture(scope="module")
def traces():
    pairs = load_dataset("AIDS", seed=0, num_pairs=4)
    model = build_model("GMN-Li", input_dim=pairs[0].target.feature_dim)
    return profile_batches(model, pairs, batch_size=2)


class TestRoundTrip:
    def test_structure_preserved(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert len(loaded) == len(traces)
        for original, restored in zip(traces, loaded):
            assert restored.batch.batch_size == original.batch.batch_size
            assert restored.model_name == original.model_name
            assert restored.num_layers == original.num_layers

    def test_tensors_bitwise_equal(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        original = traces[0].pair_traces[0]
        restored = loaded[0].pair_traces[0]
        assert restored.score == original.score
        assert restored.matching_usage == original.matching_usage
        assert np.array_equal(
            restored.pair.target.node_features,
            original.pair.target.node_features,
        )
        for layer_a, layer_b in zip(original.layers, restored.layers):
            assert np.array_equal(layer_a.target_features, layer_b.target_features)
            assert layer_a.flops.counts == layer_b.flops.counts

    def test_graph_topology_preserved(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        original = traces[0].pair_traces[0].pair.target
        restored = loaded[0].pair_traces[0].pair.target
        assert restored == original

    def test_labels_preserved(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        for batch_a, batch_b in zip(traces, loaded):
            for ta, tb in zip(batch_a.pair_traces, batch_b.pair_traces):
                assert ta.pair.label == tb.pair.label


class TestSimulationEquivalence:
    def test_simulator_results_identical(self, traces, tmp_path):
        """The whole point of trace files: simulating a loaded trace
        must give bit-identical platform results."""
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        sim = AcceleratorSimulator(cegma_config())
        a = sim.simulate_batches(traces)
        b = sim.simulate_batches(loaded)
        assert a.cycles == b.cycles
        assert a.dram_bytes == b.dram_bytes
        assert a.macs == b.macs


class TestValidation:
    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces([], tmp_path / "x.npz")

    def test_version_check(self, traces, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "bad.npz"
        # 1 is the retired layout without head features.
        for version in (99, 1):
            manifest = json.dumps({"version": version, "batches": []})
            np.savez_compressed(path, manifest=np.array(manifest))
            with pytest.raises(ValueError, match=f"version {version}"):
                load_traces(path)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_missing_file_names_the_path(self, tmp_path, mmap):
        path = tmp_path / "missing.npz"
        with pytest.raises(ValueError) as info:
            load_traces(path, mmap=mmap)
        message = str(info.value)
        assert message.startswith(f"cannot read traces from {path}: ")
        assert "No such file" in message

    @pytest.mark.parametrize("mmap", [False, True])
    def test_non_npz_file_rejected(self, tmp_path, mmap):
        path = tmp_path / "notes.npz"
        path.write_text("not an archive\n")
        with pytest.raises(ValueError) as info:
            load_traces(path, mmap=mmap)
        message = str(info.value)
        assert message == (
            f"cannot read traces from {path}: not an .npz archive"
        )

    @pytest.mark.parametrize("mmap", [False, True])
    def test_npz_without_manifest_rejected(self, tmp_path, mmap):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError) as info:
            load_traces(path, mmap=mmap)
        message = str(info.value)
        assert message.startswith(f"cannot read traces from {path}: ")
        assert "no 'manifest' member" in message


class TestMmapReader:
    """Zero-copy loading through MmapNpzReader, in path and buffer mode."""

    def test_mmap_load_matches_eager_load(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path, compressed=False)
        eager = load_traces(path)
        mapped = load_traces(path, mmap=True)
        for batch_a, batch_b in zip(eager, mapped):
            for trace_a, trace_b in zip(
                batch_a.pair_traces, batch_b.pair_traces
            ):
                assert trace_a.score == trace_b.score
                for layer_a, layer_b in zip(trace_a.layers, trace_b.layers):
                    assert np.array_equal(
                        layer_a.target_features, layer_b.target_features
                    )
                    assert layer_a.flops.counts == layer_b.flops.counts

    def test_uncompressed_members_are_views(self, traces, tmp_path):
        from repro.trace.io import MmapNpzReader

        path = tmp_path / "traces.npz"
        save_traces(traces, path, compressed=False)
        reader = MmapNpzReader(path)
        name = next(
            key for key in reader.keys() if key.endswith("target_features")
        )
        array = reader[name]
        # A view over the mapped file, not a materialized copy.
        assert array.base is not None

    def test_compressed_members_rejected(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path, compressed=True)
        with pytest.raises(ValueError, match="is compressed"):
            load_traces(path, mmap=True)

    def test_requires_exactly_one_source(self, tmp_path):
        from repro.trace.io import MmapNpzReader

        with pytest.raises(ValueError):
            MmapNpzReader()
        with pytest.raises(ValueError):
            MmapNpzReader(tmp_path / "x.npz", buffer=b"PK")


class TestBufferTransport:
    """The shared-memory worker path: npz image bytes -> traces."""

    def test_round_trip_through_bytes(self, traces):
        from repro.trace.io import traces_from_buffer, traces_to_npz_bytes

        image = traces_to_npz_bytes(traces)
        rebuilt = traces_from_buffer(image)
        assert len(rebuilt) == len(traces)
        for batch_a, batch_b in zip(traces, rebuilt):
            for trace_a, trace_b in zip(
                batch_a.pair_traces, batch_b.pair_traces
            ):
                assert trace_a.score == trace_b.score
                assert trace_a.pair.target == trace_b.pair.target
                assert trace_a.pair.query == trace_b.pair.query
                for layer_a, layer_b in zip(trace_a.layers, trace_b.layers):
                    assert np.array_equal(
                        layer_a.query_features, layer_b.query_features
                    )

    def test_rebuilt_arrays_are_zero_copy_views(self, traces):
        from repro.trace.io import traces_from_buffer, traces_to_npz_bytes

        image = memoryview(traces_to_npz_bytes(traces))
        rebuilt = traces_from_buffer(image)
        features = rebuilt[0].pair_traces[0].layers[0].target_features
        assert features.base is not None

    def test_simulation_identical_from_buffer(self, traces):
        from repro.trace.io import traces_from_buffer, traces_to_npz_bytes

        sim = AcceleratorSimulator(cegma_config())
        direct = sim.simulate_batches(traces)
        rebuilt = sim.simulate_batches(
            traces_from_buffer(traces_to_npz_bytes(traces))
        )
        assert direct.to_dict() == rebuilt.to_dict()
