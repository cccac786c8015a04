"""Tests for the batched simulation backend and its vectorized kernels.

The heavyweight bit-identity guarantee (batched == serial, results and
metric streams) lives in the ``sim.batched_vs_serial`` differential
check; these tests cover the surrounding contracts — no public backend
switch, batching invariances, and the batch kernels' elementwise
equivalence.
"""

import json

import numpy as np
import pytest

from repro.platforms import REGISTRY
from repro.sim.engine import AcceleratorSimulator, _simulate_batches_serial
from repro.sim.memory import DRAMModel
from repro.sim.pe import MACArray
from repro.validate.workloads import small_traces


def _result_dict(simulator, traces):
    return simulator.simulate_batches(list(traces)).to_dict()


def _close_dicts(left, right, rtol=1e-9):
    """Structural equality with a float tolerance (association order)."""
    assert set(left) == set(right)
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, dict):
            _close_dicts(a, b, rtol)
        elif isinstance(a, list):
            assert len(a) == len(b)
            for item_a, item_b in zip(a, b):
                if isinstance(item_a, dict):
                    _close_dicts(item_a, item_b, rtol)
                else:
                    assert item_a == item_b, key
        elif isinstance(a, float):
            assert np.isclose(a, b, rtol=rtol, atol=0.0), (key, a, b)
        else:
            assert a == b, key


class TestBackendSelection:
    """The batched engine is the only public path; the per-pair loop is
    reachable only through the private reference helper."""

    def test_default_is_batched(self, monkeypatch):
        def refuse(self, batch_trace):
            raise AssertionError("public path ran the per-pair loop")

        monkeypatch.setattr(
            AcceleratorSimulator, "_simulate_batch_serial", refuse
        )
        traces = small_traces(num_pairs=2, batch_size=2)
        assert REGISTRY.build("CEGMA").simulate_batches(traces).num_pairs == 2

    def test_unknown_backend_rejected(self):
        config = REGISTRY.build("CEGMA").config
        with pytest.raises(TypeError, match="backend"):
            AcceleratorSimulator(config, backend="serial")

    def test_api_backend_threading_rejects_unknown(self):
        from repro.core.api import simulate_traces

        traces = small_traces(num_pairs=2, batch_size=2)
        with pytest.raises(TypeError, match="backend"):
            simulate_traces(traces, ("CEGMA",), backend="serial")

    def test_serial_reference_matches_batched(self):
        traces = small_traces(num_pairs=4, batch_size=2)
        simulator = REGISTRY.build("CEGMA")
        serial = _simulate_batches_serial(simulator, traces).to_dict()
        batched = _result_dict(simulator, traces)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )


class TestBatchingInvariances:
    """Batched results do not depend on how pairs are grouped or ordered.

    Totals are reductions over per-pair values; reordering changes float
    association only, so floats are held to an ulp-level tolerance and
    everything integral must match exactly.
    """

    def test_invariant_to_batch_split_points(self):
        simulator = REGISTRY.build("CEGMA")
        coarse = small_traces(num_pairs=4, batch_size=4)
        fine = small_traces(num_pairs=4, batch_size=1)
        left = _result_dict(simulator, coarse)
        right = _result_dict(simulator, fine)
        left.pop("layer_stats")
        right.pop("layer_stats")
        _close_dicts(left, right)

    def test_invariant_to_pair_order(self):
        from repro.trace.profiler import BatchTrace

        simulator = REGISTRY.build("CEGMA")
        traces = small_traces(num_pairs=4, batch_size=4)
        (batch,) = traces
        reversed_traces = [
            BatchTrace(batch.batch, list(reversed(batch.pair_traces)))
        ]
        left = _result_dict(simulator, traces)
        right = _result_dict(simulator, reversed_traces)
        _close_dicts(left, right)


class TestGemmCyclesBatch:
    def test_elementwise_identical_to_scalar(self):
        array = MACArray(rows=8, cols=4, fill_cycles=3)
        shapes = [
            (0, 5, 5),
            (5, 0, 5),
            (5, 5, 0),
            (1, 1, 1),
            (8, 16, 4),
            (9, 16, 5),
            (1000, 3, 1000),
        ]
        n, k, m = (np.array(dim) for dim in zip(*shapes))
        batch = array.gemm_cycles_batch(n, k, m)
        assert batch.dtype == np.int64
        for index, (nn, kk, mm) in enumerate(shapes):
            assert int(batch[index]) == array.gemm_cycles(nn, kk, mm)

    def test_broadcasting(self):
        array = MACArray(rows=4, cols=4)
        batch = array.gemm_cycles_batch(np.array([4, 8, 12]), 7, 4)
        assert batch.tolist() == [
            array.gemm_cycles(size, 7, 4) for size in (4, 8, 12)
        ]

    def test_negative_rejected(self):
        array = MACArray()
        with pytest.raises(ValueError, match="non-negative"):
            array.gemm_cycles_batch(np.array([1, -1]), 2, 2)

    def test_metric_free(self):
        from repro.obs.metrics import metrics_enabled

        array = MACArray()
        with metrics_enabled() as registry:
            array.gemm_cycles_batch(np.array([8, 16]), 4, 4)
        assert registry.counter("pe.gemm.calls") == 0


class TestAccessCyclesBatch:
    @pytest.mark.parametrize("sequential", [True, False])
    def test_elementwise_identical_to_scalar(self, sequential):
        dram = DRAMModel()
        sizes = np.array([0.0, 1.0, 63.0, 64.0, 65.0, 4096.0, 1e7])
        batch = dram.access_cycles_batch(sizes, sequential=sequential)
        for index, size in enumerate(sizes.tolist()):
            assert batch[index] == dram.access_cycles(
                size, sequential=sequential
            )

    def test_negative_rejected(self):
        dram = DRAMModel()
        with pytest.raises(ValueError, match="negative"):
            dram.access_cycles_batch(np.array([8.0, -1.0]))

    def test_metric_free(self):
        from repro.obs.metrics import metrics_enabled

        dram = DRAMModel()
        with metrics_enabled() as registry:
            dram.access_cycles_batch(np.array([64.0, 4096.0]))
        assert registry.counter("dram.requests", pattern="sequential") == 0


class TestBatchObservability:
    def test_pairs_per_call_histogram(self):
        from repro.obs.metrics import metrics_enabled

        traces = small_traces(num_pairs=4, batch_size=2)
        simulator = REGISTRY.build("CEGMA")
        with metrics_enabled() as registry:
            simulator.simulate_batches(list(traces))
        histogram = registry.histogram("sim.batch.pairs_per_call")
        assert histogram is not None
        assert histogram.count == len(traces)
        assert histogram.total == sum(
            len(batch.pair_traces) for batch in traces
        )
