"""Tests for trace-file serialization."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.api import simulate_traces
from repro.graphs import load_dataset
from repro.models import build_model
from repro.obs.metrics import metrics_enabled
from repro.platforms import DEFAULT_PLATFORMS
from repro.sim import AcceleratorSimulator, cegma_config
from repro.trace import profile_batches
from repro.trace.io import MmapNpzReader, load_traces, save_traces


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

    def test_head_features_preserved(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        loaded = load_traces(path)
        original = traces[0].pair_traces[0].head_features
        restored = loaded[0].pair_traces[0].head_features
        assert original is not None
        assert np.array_equal(original, restored)


class TestSimulationEquivalence:
    def test_simulator_results_identical(self, traces, tmp_path):
        """The whole point of trace files (``repro profile`` then
        ``repro replay``): a saved-then-loaded trace simulates
        bit-identically to the fresh one on every platform, with
        metrics off and on."""
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        for metrics in (nullcontext, metrics_enabled):
            loaded = load_traces(path)
            with metrics():
                fresh = simulate_traces(traces, DEFAULT_PLATFORMS)
                replayed = simulate_traces(loaded, DEFAULT_PLATFORMS)
            assert list(replayed) == list(DEFAULT_PLATFORMS)
            for platform in DEFAULT_PLATFORMS:
                assert (
                    replayed[platform].to_dict() == fresh[platform].to_dict()
                ), (platform, metrics.__name__)


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

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "missing.npz"
        with pytest.raises(ValueError) as info:
            load_traces(path)
        message = str(info.value)
        assert message.startswith(f"cannot read traces from {path}: ")
        assert "No such file" in message

    def test_non_npz_file_rejected(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not an archive\n")
        with pytest.raises(ValueError) as info:
            load_traces(path)
        message = str(info.value)
        assert message == (
            f"cannot read traces from {path}: not an .npz archive"
        )

    def test_npz_without_manifest_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError) as info:
            load_traces(path)
        message = str(info.value)
        assert message.startswith(f"cannot read traces from {path}: ")
        assert "no 'manifest' member" in message


class TestMmapReader:
    def test_compressed_members_rejected(self, traces, tmp_path):
        # A compressed archive (what save_traces writes) holds no
        # contiguous array payloads to serve as views.
        path = tmp_path / "traces.npz"
        save_traces(traces, path)
        reader = MmapNpzReader(path.read_bytes())
        with pytest.raises(ValueError, match="is compressed"):
            reader["manifest"]


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
