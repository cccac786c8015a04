"""The spec-string sweeps must reproduce hand-mutated-config sweeps
bit-identically — the registry is a refactor, not a remodel."""

import pytest

from repro.experiments import ablation_bandwidth, ablation_buffer_sweep
from repro.experiments.common import clear_workload_caches, workload_traces
from repro.sim.config import awbgcn_config, cegma_config
from repro.sim.engine import AcceleratorSimulator


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_workload_caches()
    yield
    clear_workload_caches()


def _hand_built(config_factory, **fields):
    config = config_factory()
    for name, value in fields.items():
        setattr(config, name, value)
    return AcceleratorSimulator(config)


class TestBandwidthSweepBitIdentical:
    def test_matches_hand_mutated_configs(self):
        quick_traces = list(workload_traces("GraphSim", "RD-B", 4, 4, 0))
        experiment = ablation_bandwidth.run(quick=True, seed=0)
        for bandwidth in ablation_bandwidth.BANDWIDTHS:
            cegma = _hand_built(
                cegma_config, dram_bandwidth_bytes_per_cycle=bandwidth
            ).simulate_batches(quick_traces)
            awb = _hand_built(
                awbgcn_config, dram_bandwidth_bytes_per_cycle=bandwidth
            ).simulate_batches(quick_traces)
            row = experiment.data[bandwidth]
            assert row["cegma_latency"] == cegma.latency_per_pair
            assert row["awb_latency"] == awb.latency_per_pair
            assert row["speedup"] == (
                awb.latency_seconds / cegma.latency_seconds
            )


class TestBufferSweepBitIdentical:
    def test_matches_hand_mutated_configs(self):
        quick_traces = list(workload_traces("GraphSim", "RD-B", 4, 4, 0))
        experiment = ablation_buffer_sweep.run(quick=True, seed=0)
        for size_kb in ablation_buffer_sweep.BUFFER_SIZES_KB:
            cegma = _hand_built(
                cegma_config, input_buffer_bytes=size_kb * 1024
            ).simulate_batches(quick_traces)
            awb = _hand_built(
                awbgcn_config, input_buffer_bytes=size_kb * 1024
            ).simulate_batches(quick_traces)
            row = experiment.data[size_kb]
            assert row["cegma_latency"] == cegma.latency_per_pair
            assert row["cegma_dram"] == cegma.dram_bytes / cegma.num_pairs
            assert row["awb_latency"] == awb.latency_per_pair
            assert row["awb_dram"] == awb.dram_bytes / awb.num_pairs
