"""The reproduction workload, ``paper_sim``: repeated cold passes of the
quick-mode headline table.

A pass clears the in-process memo caches (the on-disk trace cache is off
for the whole run), computes the headline cells in the order
``headline_metrics`` visits them -- 3 models x 6 datasets, each profiled
once and simulated on 5 platforms -- and then the headline table itself
from those memos. Passes run one at a time: a closed loop of one caller.
Serving keeps only each forward pass's score; this workload keeps every
trace, and it leaves every search layer idle.

Every pass must reproduce the same simulated statistics (cycles, DRAM
bytes, MACs and energy per platform per cell) and the same headline; at
seed 0 the headline must equal the committed ``results/summary.json``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from repro.counters import PHASES
from repro.experiments.common import (
    DATASET_ORDER,
    MODEL_ORDER,
    clear_workload_caches,
    workload_results,
    workload_size,
)
from repro.experiments.registry_helpers import headline_metrics
from repro.platforms import DEFAULT_PLATFORMS

from .loadgen import percentile
from .spans import SpanRecorder, Wrappers, format_table, totals_by_name

#: The headline table's platforms, in its order.
PLATFORMS = DEFAULT_PLATFORMS
CELLS = tuple((model, dataset) for model in MODEL_ORDER for dataset in DATASET_ORDER)
#: Fewest passes per run: 6 x 18 cells keeps ten samples beyond a cell p90.
MIN_PASSES = 6
#: Latency limit of one pass, behind ``slo_frac``.
PASS_LIMIT_S = 30.0
SETUPS = 5


def _cell(model: str, dataset: str, seed: int) -> Dict:
    num_pairs, batch_size = workload_size(True, dataset)
    return workload_results(model, dataset, PLATFORMS, num_pairs, batch_size, seed)


def statistics_digest(seed: int) -> str:
    """Digest of every simulated statistic of every cell in the memos."""
    digest = hashlib.sha256()
    for model, dataset in CELLS:
        results = _cell(model, dataset, seed)
        for platform in PLATFORMS:
            result = results[platform]
            fields = (result.cycles, result.dram_bytes, result.macs, result.energy_joules)
            digest.update(f"{model}|{dataset}|{platform}|".encode())
            digest.update("|".join(float(value).hex() for value in fields).encode())
    return digest.hexdigest()


def cold_pass(seed: int) -> Dict:
    """One pass; cell times are (start, end) offsets from the pass start."""
    clear_workload_caches()
    start = time.perf_counter()
    cells = []
    for model, dataset in CELLS:
        began = time.perf_counter()
        _cell(model, dataset, seed)
        cells.append((began - start, time.perf_counter() - start))
    headline = headline_metrics(quick=True, seed=seed)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "cells": cells,
        "headline": headline,
        "digest": statistics_digest(seed),
    }


def _passes(seed: int, seconds: float, minimum: int) -> List[Dict]:
    passes: List[Dict] = []
    started = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - started < seconds:
        passes.append(cold_pass(seed))
    return passes


def _setup(seed: int) -> float:
    """Clear the memos and warm lazy state with one cold cell per model."""
    started = time.perf_counter()
    clear_workload_caches()
    for model in MODEL_ORDER:
        _cell(model, DATASET_ORDER[0], seed)
    clear_workload_caches()
    return time.perf_counter() - started


def expected_headline(root: Path) -> Dict[str, float]:
    """The committed headline numbers, ``results/summary.json``."""
    with open(root / "results" / "summary.json") as handle:
        rows = json.load(handle)["summary"]["data"]
    return {name: row["measured"] for name, row in rows.items()}


def end_to_end(passes: List[Dict], setups: List[float], agree: List[bool]) -> Dict[str, float]:
    own = [(end - begin) * 1e3 for run in passes for begin, end in run["cells"]]
    done = [end * 1e3 for run in passes for _, end in run["cells"]]
    return {
        "setup_s": statistics.median(setups),
        "sat_ops_per_s": len(CELLS) * len(passes) / sum(run["seconds"] for run in passes),
        "unloaded_p50_ms": percentile(own, 0.5),
        "loaded_p50_ms": percentile(done, 0.5),
        "loaded_p90_ms": percentile(done, 0.9),
        "slo_frac": sum(run["seconds"] <= PASS_LIMIT_S for run in passes) / len(passes),
        "agree_frac": sum(agree) / len(agree),
    }


def run(seed: int, seconds: float, trace: bool, root: Path) -> dict:
    expected = expected_headline(root) if seed == 0 else None
    setups = [_setup(seed) for _ in range(SETUPS)]
    probe = None
    if trace:
        probe = PaperProbe()
        untraced = _passes(seed, seconds / 2, 2)
        with probe.tracing():
            traced = _passes(seed, seconds / 2, 2)
        probe.passes = len(traced)
        probe.overhead = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in untraced)
            - 1.0
        )
        passes = untraced + traced
    else:
        passes = _passes(seed, seconds, MIN_PASSES)
    first = passes[0]
    agree = [
        run["digest"] == first["digest"]
        and run["headline"] == first["headline"]
        and (expected is None or run["headline"] == expected)
        for run in passes
    ]
    pass_s = [run["seconds"] for run in passes]
    lines = [
        f"workload paper_sim: {len(passes)} cold passes of {len(CELLS)} cells x "
        f"{len(PLATFORMS)} platforms, seed {seed}",
        f"  setup_s {statistics.median(setups):.3f} s "
        f"(of {', '.join(f'{s:.3f}' for s in setups)})",
        f"  sim_pass_s {statistics.median(pass_s):.3f} s "
        f"(min {min(pass_s):.3f}, max {max(pass_s):.3f})",
        f"  fail_frac {(len(agree) - sum(agree)) / len(agree):.4f}",
        f"  statistics digest {first['digest'][:16]}, identical in every pass: "
        f"{len({run['digest'] for run in passes}) == 1}",
    ]
    if expected is not None:
        lines.append(
            f"  headline equals results/summary.json: {first['headline'] == expected}"
        )
    lines += [f"    {name}: {value!r}" for name, value in first["headline"].items()]
    if probe is None:
        metrics = end_to_end(passes, setups, agree)
    else:
        metrics = probe.metrics()
        lines.append(f"  traced spans per pass ({probe.passes} traced passes):")
        lines += format_table(probe.recorder.spans, probe.passes, "pass")
    return {
        "correct": all(agree),
        "attempted": len(passes),
        "failed": len(agree) - sum(agree),
        "metrics": metrics,
        "report": lines,
        "recorder": None if probe is None else probe.recorder,
    }


class PaperProbe:
    """Span wrappers around the reproduction layers, and what they observe."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.flops = dict.fromkeys(PHASES, 0)
        self.pairs_simulated = 0
        # Keyed by id, holding the plan so the id cannot be reused.
        self.plans: Dict[int, object] = {}
        self.passes = 0
        self.overhead = 0.0

    def install(self, wrappers: Wrappers) -> None:
        from repro.baselines.base import SoftwarePlatformModel
        from repro.emf.hardware import EMFHardwareModel
        from repro.experiments import common
        from repro.models import GMNLi, GraphSim, SimGNN
        from repro.sim import engine
        from repro.trace.events import LayerTrace

        wrap = wrappers.wrap
        for model in (GMNLi, GraphSim, SimGNN):
            wrap(
                model,
                "forward_pair",
                lambda args: f"models.{args[0].name}.forward_pair",
                observe=self._forwarded,
            )
        wrap(common, "load_dataset", "harness.load_dataset")
        wrap(common, "profile_batches", "trace.profile_batches")
        wrap(
            engine.AcceleratorSimulator,
            "simulate_batches",
            lambda args: f"sim.{args[0].config.name}",
            observe=self._simulated,
        )
        wrap(
            SoftwarePlatformModel,
            "simulate_batches",
            lambda args: f"sim.{args[0].name}",
            observe=self._simulated,
        )
        wrap(engine, "schedule_summary_for", "cgc.schedule_summary_for")
        wrap(LayerTrace, "matching_plan", "emf.matching_plan", observe=self._planned)
        wrap(EMFHardwareModel, "per_graph_report", "emf.per_graph_report")

    @contextmanager
    def tracing(self) -> Iterator[None]:
        wrappers = Wrappers(self.recorder)
        self.install(wrappers)
        try:
            yield
        finally:
            wrappers.uninstall()

    def _forwarded(self, index, args, kwargs, trace) -> None:
        for phase, count in trace.total_flops.counts.items():
            self.flops[phase] += count

    def _simulated(self, index, args, kwargs, result) -> None:
        self.pairs_simulated += result.num_pairs

    def _planned(self, index, args, kwargs, plan) -> None:
        self.plans[id(plan)] = plan

    def metrics(self) -> Dict[str, float]:
        table = totals_by_name(self.recorder.spans)
        empty = {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
        passes = max(self.passes, 1)
        metrics: Dict[str, float] = {}
        forward_s = 0.0
        for model in MODEL_ORDER:
            row = table.get(f"models.{model}.forward_pair", empty)
            forward_s += row["total_s"]
            metrics[f"models.{model}.ms_per_pair"] = (
                row["total_s"] * 1e3 / max(row["count"], 1.0)
            )
        for phase in PHASES:
            metrics[f"models.flops.{phase}"] = self.flops[phase] / passes
        metrics["models.gflops_per_s"] = (
            sum(self.flops.values()) / forward_s / 1e9 if forward_s else 0.0
        )
        profile = table.get("trace.profile_batches", empty)
        metrics["trace.profile_s"] = profile["total_s"] / passes
        metrics["trace.self_s"] = profile["self_s"] / passes
        simulated_s = 0.0
        for platform in PLATFORMS:
            row = table.get(f"sim.{platform}", empty)
            simulated_s += row["total_s"]
            metrics[f"sim.{platform}_s"] = row["total_s"] / passes
        metrics["sim.host_us_per_pair"] = simulated_s * 1e6 / max(self.pairs_simulated, 1)
        schedules = table.get("cgc.schedule_summary_for", empty)
        metrics["cgc.schedule_s"] = schedules["total_s"] / passes
        metrics["cgc.schedules"] = schedules["count"] / passes
        metrics["emf.s"] = (
            table.get("emf.matching_plan", empty)["total_s"]
            + table.get("emf.per_graph_report", empty)["total_s"]
        ) / passes
        nodes = unique = 0
        for plan in self.plans.values():
            for side in (plan.target_filter, plan.query_filter):
                nodes += side.num_nodes
                unique += side.num_unique
        metrics["emf.unique_node_frac"] = unique / nodes if nodes else 0.0
        metrics["harness.dataset_s"] = table.get("harness.load_dataset", empty)["total_s"] / passes
        metrics["bench.trace_overhead_frac"] = self.overhead
        return metrics
