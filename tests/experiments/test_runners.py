"""Tests for the experiment runners (quick mode).

Each runner must execute, produce a well-formed table, and satisfy the
paper's qualitative claims for its figure.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run the cheap experiments once and share across tests."""
    cheap = (
        "fig02",
        "fig03",
        "fig04",
        "fig08",
        "fig20",
        "fig23",
        "fig26",
        "table2",
    )
    return {name: run_experiment(name, quick=True) for name in cheap}


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "accuracy",
            "aoe_precision",
            "ablation_quantization",
            "ablation_buffer",
            "ablation_batch",
            "ablation_feature_dim",
            "ablation_bandwidth",
            "dataset_profile",
            "fig02",
            "fig03",
            "fig04",
            "fig07",
            "fig08",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig23",
            "fig24",
            "fig25",
            "fig26",
            "table2",
            "table3",
            "summary",
            "roofline",
            "future_batch_emf",
            "future_approximate_emf",
            "sensitivity",
            "seed_robustness",
            "serving",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_render_is_nonempty(self, results):
        for result in results.values():
            text = result.render()
            assert result.name in text
            assert len(text.splitlines()) >= 4


class TestFig02:
    def test_latency_grows_with_size(self, results):
        series = results["fig02"].data["series"]
        sizes = sorted(series)
        gpu = [series[s]["PyG-GPU"] for s in sizes]
        awb = [series[s]["AWB-GCN"] for s in sizes]
        assert gpu == sorted(gpu)
        assert awb == sorted(awb)

    def test_accelerator_faster_than_gpu(self, results):
        for row in results["fig02"].data["series"].values():
            assert row["AWB-GCN"] < row["PyG-GPU"]


class TestFig03:
    def test_matching_dominates_in_paper_mode(self, results):
        for dataset, row in results["fig03"].data.items():
            assert row["paper_mode"]["match"] > 0.5, dataset

    def test_matching_share_grows_with_graph_size(self, results):
        data = results["fig03"].data
        assert (
            data["RD-5K"]["literal_mode"]["match"]
            > data["AIDS"]["literal_mode"]["match"]
        )

    def test_shares_sum_to_one(self, results):
        for row in results["fig03"].data.values():
            for mode in ("paper_mode", "literal_mode"):
                assert sum(row[mode].values()) == pytest.approx(1.0)


class TestFig04AndFig20:
    def test_baseline_misses_dominate(self, results):
        for dataset, row in results["fig04"].data.items():
            assert row["hit_rate"] < 0.1, dataset

    def test_cegma_improves_every_dataset(self, results):
        for dataset, row in results["fig20"].data.items():
            baseline = results["fig04"].data[dataset]["hit_rate"]
            assert row["cegma_hit"] > baseline + 0.2, dataset

    def test_small_datasets_fully_captured(self, results):
        assert results["fig20"].data["AIDS"]["cegma_hit"] > 0.9


class TestFig08:
    def test_example_ordering(self, results):
        misses = results["fig08"].data["paper example"]
        assert misses["joint"] < misses["single"]
        assert misses["coordinated"] <= misses["joint"]
        assert abs(misses["single"] - misses["double"]) <= 3

    def test_dataset_workloads_follow_ordering(self, results):
        for workload, misses in results["fig08"].data.items():
            assert misses["coordinated"] < misses["single"], workload


class TestFig23:
    def test_overhead_under_paper_deadlines(self, results):
        for dataset, row in results["fig23"].data["per_dataset"].items():
            assert row["total_us"] < 20.0, dataset  # 20 ms deadline >> overhead

    def test_larger_graphs_cost_more_cycles(self, results):
        data = results["fig23"].data["per_dataset"]
        assert data["RD-5K"]["hashing"] > data["AIDS"]["hashing"]


class TestFig26:
    def test_emf_removes_majority_of_cells(self, results):
        data = results["fig26"].data
        assert data["after_cells"] < 0.5 * data["before_cells"]

    def test_render_dimensions(self, results):
        data = results["fig26"].data
        assert len(data["render_before"]) == len(data["render_after"])
        assert all(isinstance(line, str) for line in data["render_before"])


class TestTable2:
    def test_node_counts_close_to_paper(self, results):
        for name, row in results["table2"].data.items():
            assert row["nodes"] == pytest.approx(row["paper_nodes"], rel=0.25)
