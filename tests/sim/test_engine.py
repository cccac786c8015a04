"""Integration tests for the cycle-level accelerator simulator."""

import pytest

from repro.baselines import pyg_cpu_model, pyg_gpu_model
from repro.graphs import load_dataset
from repro.models import build_model
from repro.sim import (
    AcceleratorSimulator,
    awbgcn_config,
    cegma_cgc_only_config,
    cegma_config,
    cegma_emf_only_config,
    hygcn_config,
)
from repro.trace import profile_batches


@pytest.fixture(scope="module")
def traces():
    """Small GITHUB workloads for each model (module-scoped: tracing and
    simulating are the expensive parts of this test file)."""
    pairs = load_dataset("GITHUB", seed=0, num_pairs=4)
    input_dim = pairs[0].target.feature_dim
    return {
        name: profile_batches(build_model(name, input_dim=input_dim), pairs, 4)
        for name in ("GMN-Li", "GraphSim", "SimGNN")
    }


@pytest.fixture(scope="module")
def results(traces):
    configs = {
        "CEGMA": cegma_config(),
        "CEGMA-EMF": cegma_emf_only_config(),
        "CEGMA-CGC": cegma_cgc_only_config(),
        "HyGCN": hygcn_config(),
        "AWB-GCN": awbgcn_config(),
    }
    return {
        model_name: {
            platform: AcceleratorSimulator(cfg).simulate_batches(batches)
            for platform, cfg in configs.items()
        }
        for model_name, batches in traces.items()
    }


class TestBasicAccounting:
    def test_positive_outputs(self, results):
        for per_platform in results.values():
            for result in per_platform.values():
                assert result.cycles > 0
                assert result.dram_bytes > 0
                assert result.macs > 0
                assert result.energy_joules > 0
                assert result.num_pairs == 4

    def test_latency_consistency(self, results):
        result = results["GMN-Li"]["CEGMA"]
        assert result.latency_seconds == pytest.approx(result.cycles / 1e9)
        assert result.latency_per_pair == pytest.approx(
            result.latency_seconds / 4
        )
        assert result.throughput_pairs_per_second == pytest.approx(
            4 / result.latency_seconds
        )

    def test_merge_accumulates(self, traces):
        sim = AcceleratorSimulator(cegma_config())
        single = sim.simulate_batch(traces["SimGNN"][0])
        double = sim.simulate_batch(traces["SimGNN"][0])
        double.merge(sim.simulate_batch(traces["SimGNN"][0]))
        assert double.num_pairs == 2 * single.num_pairs
        assert double.cycles == pytest.approx(2 * single.cycles)

    def test_merge_rejects_platform_mismatch(self, traces):
        a = AcceleratorSimulator(cegma_config()).simulate_batch(traces["SimGNN"][0])
        b = AcceleratorSimulator(awbgcn_config()).simulate_batch(traces["SimGNN"][0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_batch_list_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorSimulator(cegma_config()).simulate_batches([])


class TestPaperShape:
    """The qualitative results of Section V must hold on every workload."""

    @pytest.mark.parametrize("model_name", ["GMN-Li", "GraphSim", "SimGNN"])
    def test_cegma_beats_baseline_accelerators(self, results, model_name):
        per_platform = results[model_name]
        assert (
            per_platform["CEGMA"].latency_seconds
            < per_platform["AWB-GCN"].latency_seconds
        )
        assert (
            per_platform["CEGMA"].latency_seconds
            < per_platform["HyGCN"].latency_seconds
        )

    @pytest.mark.parametrize("model_name", ["GMN-Li", "GraphSim", "SimGNN"])
    def test_ablations_between_baseline_and_full(self, results, model_name):
        per_platform = results[model_name]
        full = per_platform["CEGMA"].latency_seconds
        awb = per_platform["AWB-GCN"].latency_seconds
        for ablation in ("CEGMA-EMF", "CEGMA-CGC"):
            assert full <= per_platform[ablation].latency_seconds * 1.05
            assert per_platform[ablation].latency_seconds < awb

    def test_gmnli_gains_most(self, results):
        """GMN-Li matches in every layer, so CEGMA's advantage is largest
        there and smallest for model-wise SimGNN (Section V-B)."""

        def gain(model_name):
            per_platform = results[model_name]
            return (
                per_platform["AWB-GCN"].latency_seconds
                / per_platform["CEGMA"].latency_seconds
            )

        assert gain("GMN-Li") > gain("SimGNN")

    @pytest.mark.parametrize("model_name", ["GMN-Li", "GraphSim", "SimGNN"])
    def test_cegma_reduces_dram(self, results, model_name):
        per_platform = results[model_name]
        assert per_platform["CEGMA"].dram_bytes < per_platform["HyGCN"].dram_bytes
        assert per_platform["CEGMA"].dram_bytes < per_platform["AWB-GCN"].dram_bytes

    def test_gmnli_dram_reduction_is_largest(self, results):
        """Type-(b) on-chip reuse removes GMN-Li's similarity traffic."""

        def reduction(model_name):
            per_platform = results[model_name]
            return 1 - (
                per_platform["CEGMA"].dram_bytes
                / per_platform["HyGCN"].dram_bytes
            )

        assert reduction("GMN-Li") > reduction("SimGNN")

    @pytest.mark.parametrize("model_name", ["GMN-Li", "GraphSim", "SimGNN"])
    def test_cegma_saves_energy(self, results, model_name):
        per_platform = results[model_name]
        assert (
            per_platform["CEGMA"].energy_joules
            < per_platform["HyGCN"].energy_joules
        )


class TestSoftwareBaselines:
    def test_gpu_beats_cpu(self, traces):
        gpu = pyg_gpu_model().simulate_batches(traces["GMN-Li"])
        cpu = pyg_cpu_model().simulate_batches(traces["GMN-Li"])
        assert gpu.latency_seconds < cpu.latency_seconds

    def test_cegma_beats_gpu_by_orders_of_magnitude(self, traces):
        gpu = pyg_gpu_model().simulate_batches(traces["GMN-Li"])
        cegma = AcceleratorSimulator(cegma_config()).simulate_batches(
            traces["GMN-Li"]
        )
        assert gpu.latency_seconds / cegma.latency_seconds > 50

    def test_pair_latency_monotone_in_flops(self):
        model = pyg_gpu_model()
        assert model.pair_latency_seconds(2e9, 5) > model.pair_latency_seconds(
            1e9, 5
        )

    def test_dispatch_overhead_floor(self):
        model = pyg_gpu_model()
        floor = 5 * model.ops_per_layer * model.op_overhead_seconds
        assert model.pair_latency_seconds(0, 5) == pytest.approx(floor)

    def test_validation(self):
        from repro.baselines import SoftwarePlatformModel

        with pytest.raises(ValueError):
            SoftwarePlatformModel("x", 0.0, 1e-6)
        with pytest.raises(ValueError):
            SoftwarePlatformModel("x", 1e9, -1.0)
        with pytest.raises(ValueError):
            pyg_cpu_model().simulate_batches([])


class TestLayerBreakdown:
    def test_one_entry_per_layer(self, traces):
        result = AcceleratorSimulator(cegma_config()).simulate_batches(
            traces["GMN-Li"]
        )
        assert len(result.layer_stats) == 5
        for stats in result.layer_stats:
            assert stats["cycles"] > 0
            assert stats["dram_bytes"] > 0
            assert stats["macs"] > 0

    def test_layers_sum_to_totals(self, traces):
        result = AcceleratorSimulator(awbgcn_config()).simulate_batches(
            traces["GraphSim"]
        )
        layer_dram = sum(s["dram_bytes"] for s in result.layer_stats)
        assert layer_dram == pytest.approx(result.dram_bytes)
        layer_cycles = sum(s["cycles"] for s in result.layer_stats)
        # Totals also include the readout stage, so layers sum to less.
        assert layer_cycles <= result.cycles

    def test_merge_sums_layerwise(self, traces):
        sim = AcceleratorSimulator(cegma_config())
        single = sim.simulate_batch(traces["SimGNN"][0])
        merged = sim.simulate_batch(traces["SimGNN"][0])
        merged.merge(sim.simulate_batch(traces["SimGNN"][0]))
        assert len(merged.layer_stats) == len(single.layer_stats)
        assert merged.layer_stats[0]["macs"] == pytest.approx(
            2 * single.layer_stats[0]["macs"]
        )

    def test_simgnn_matching_layer_dominates_dram(self, traces):
        """SimGNN only matches in layer 3, whose similarity writeback
        makes it the DRAM-heaviest layer."""
        result = AcceleratorSimulator(awbgcn_config()).simulate_batches(
            traces["SimGNN"]
        )
        drams = [s["dram_bytes"] for s in result.layer_stats]
        assert drams[2] == max(drams)


class TestEnergyComponents:
    def test_components_sum_to_total(self, traces):
        result = AcceleratorSimulator(cegma_config()).simulate_batches(
            traces["GraphSim"]
        )
        assert sum(result.energy_components.values()) == pytest.approx(
            result.energy_joules
        )
        assert set(result.energy_components) == {
            "dram",
            "sram",
            "compute",
            "static",
        }

    def test_merge_sums_components(self, traces):
        sim = AcceleratorSimulator(cegma_config())
        single = sim.simulate_batch(traces["SimGNN"][0])
        merged = sim.simulate_batch(traces["SimGNN"][0])
        merged.merge(sim.simulate_batch(traces["SimGNN"][0]))
        assert merged.energy_components["dram"] == pytest.approx(
            2 * single.energy_components["dram"]
        )
