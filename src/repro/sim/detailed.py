"""Detailed per-window-step simulation mode.

The analytical engine (:mod:`repro.sim.engine`) models each layer as one
compute block overlapped with one memory block. This mode walks the
window schedule step by step with double buffering: while the PE
computes step *k*'s edges and matchings, the memory controller prefetches
step *k+1*'s missing nodes. The layer latency is

``load(step 1) + sum_k max(compute_k, load_{k+1}) + compute(last)``

plus the layer's bulk traffic (feature writebacks and similarity-matrix
transfers) serialized behind the pipeline when the platform does not
overlap memory.

Per-step work assignment:

- matching MACs: the step's matching count times the feature dim (one
  MAC per feature per pair), at the platform's matching utilization;
- edge MACs: the layer's aggregation work divided over edges, applied
  to the step's edge count;
- combination MACs: per-node work, charged when a node is first loaded
  (its update completes before eviction).

This finer model is validated against the analytical engine in
``tests/sim/test_detailed.py``: totals agree within a small factor and
all platform orderings are preserved.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..obs.metrics import get_metrics
from ..trace.events import PairTrace
from .config import BYTES_PER_VALUE
from .engine import AcceleratorSimulator
from .pe import MACArray

__all__ = ["DetailedSimulator"]


class DetailedSimulator(AcceleratorSimulator):
    """Per-window-step variant of the accelerator simulator.

    ``tile_model=True`` times the per-step matching GEMMs on a tiled
    :class:`MACArray` (shape-aware utilization: small windows strand
    array rows) instead of the flat MACs/units rate.
    """

    def __init__(
        self,
        config,
        energy_model=None,
        tile_model: bool = False,
    ):
        super().__init__(config, energy_model)
        self.tile_model = tile_model
        rows = 128 if config.mac_units % 128 == 0 else config.mac_units
        self._array = MACArray(rows, max(1, config.mac_units // rows))

    def _simulate_batch_serial(self, batch_trace):
        """As the base simulator, but per-pair layer stats already embed
        the memory pipeline, so layers sum compute directly instead of
        re-overlapping with a batch-level memory term."""
        config = self.config
        from .engine import _SRAM_BYTES_PER_MAC, PlatformResult

        result = PlatformResult(config.name, config.frequency_hz)
        result.num_pairs = batch_trace.batch.batch_size
        for layer_index in range(batch_trace.num_layers):
            layer_cycles = 0.0
            layer_dram = 0.0
            layer_macs = 0.0
            emf_overhead_cycles = 0.0
            batch_working_set = sum(
                trace.pair.total_nodes for trace in batch_trace.pair_traces
            )
            layer_dram_read = 0.0
            layer_dram_write = 0.0
            for pair_trace in batch_trace.pair_traces:
                stats = self._simulate_pair_layer(
                    pair_trace, layer_index, batch_working_set
                )
                layer_cycles += stats["compute_cycles"]
                result.dram_read_bytes += stats["dram_read"]
                result.dram_write_bytes += stats["dram_write"]
                layer_dram_read += stats["dram_read"]
                layer_dram_write += stats["dram_write"]
                layer_dram += stats["dram_read"] + stats["dram_write"]
                result.macs += stats["macs"]
                layer_macs += stats["macs"]
                emf_overhead_cycles += stats["emf_cycles"]
            result.cycles += max(layer_cycles, emf_overhead_cycles)
            result.layer_stats.append(
                {
                    "cycles": max(layer_cycles, emf_overhead_cycles),
                    "dram_bytes": layer_dram,
                    "macs": layer_macs,
                }
            )
            registry = get_metrics()
            if registry is not None:
                platform = config.name
                registry.inc(
                    "sim.dram.read_bytes", layer_dram_read, platform=platform
                )
                registry.inc(
                    "sim.dram.write_bytes", layer_dram_write, platform=platform
                )
                registry.inc("sim.macs", layer_macs, platform=platform)
                registry.inc(
                    "sim.cycles",
                    max(layer_cycles, emf_overhead_cycles),
                    platform=platform,
                )
                registry.inc("sim.layers", 1, platform=platform)
        for pair_trace in batch_trace.pair_traces:
            readout_macs = pair_trace.readout_flops.total / 2.0
            result.macs += readout_macs
            result.cycles += readout_macs / config.mac_units
        result.sram_bytes = result.macs * _SRAM_BYTES_PER_MAC + result.dram_bytes
        result.energy_components = self.energy_model.energy_breakdown(
            result.dram_bytes,
            result.sram_bytes,
            result.macs,
            result.latency_seconds,
        )
        result.energy_joules = sum(result.energy_components.values())
        registry = get_metrics()
        if registry is not None:
            registry.inc("sim.pairs", result.num_pairs, platform=config.name)
            registry.inc("sim.batches", 1, platform=config.name)
        return result

    # ------------------------------------------------------------------
    def _simulate_batch_batched(self, batch_trace):
        """Batched detailed mode: per-pair step pipelines as array math.

        Each pair's window-step walk becomes vectorized expressions over
        its schedule-summary arrays (:meth:`_pair_layer_stats_batched`);
        the batch accumulation below replays the serial loop's exact
        interleaved ``+=`` order over those per-pair values, so every
        accumulated float matches :meth:`_simulate_batch_serial` bit for
        bit.
        """
        config = self.config
        from .engine import _SRAM_BYTES_PER_MAC, PlatformResult

        result = PlatformResult(config.name, config.frequency_hz)
        result.num_pairs = batch_trace.batch.batch_size
        traces = batch_trace.pair_traces
        for layer_index in range(batch_trace.num_layers):
            layer_cycles = 0.0
            layer_dram = 0.0
            layer_macs = 0.0
            emf_overhead_cycles = 0.0
            batch_working_set = sum(
                trace.pair.total_nodes for trace in traces
            )
            layer_dram_read = 0.0
            layer_dram_write = 0.0
            for pair_trace in traces:
                stats = self._pair_layer_stats_batched(
                    pair_trace, layer_index, batch_working_set
                )
                layer_cycles += stats["compute_cycles"]
                result.dram_read_bytes += stats["dram_read"]
                result.dram_write_bytes += stats["dram_write"]
                layer_dram_read += stats["dram_read"]
                layer_dram_write += stats["dram_write"]
                layer_dram += stats["dram_read"] + stats["dram_write"]
                result.macs += stats["macs"]
                layer_macs += stats["macs"]
                emf_overhead_cycles += stats["emf_cycles"]
            result.cycles += max(layer_cycles, emf_overhead_cycles)
            result.layer_stats.append(
                {
                    "cycles": max(layer_cycles, emf_overhead_cycles),
                    "dram_bytes": layer_dram,
                    "macs": layer_macs,
                }
            )
            registry = get_metrics()
            if registry is not None:
                platform = config.name
                registry.inc(
                    "sim.dram.read_bytes", layer_dram_read, platform=platform
                )
                registry.inc(
                    "sim.dram.write_bytes", layer_dram_write, platform=platform
                )
                registry.inc("sim.macs", layer_macs, platform=platform)
                registry.inc(
                    "sim.cycles",
                    max(layer_cycles, emf_overhead_cycles),
                    platform=platform,
                )
                registry.inc("sim.layers", 1, platform=platform)
        for pair_trace in traces:
            readout_macs = pair_trace.readout_flops.total / 2.0
            result.macs += readout_macs
            result.cycles += readout_macs / config.mac_units
        result.sram_bytes = result.macs * _SRAM_BYTES_PER_MAC + result.dram_bytes
        result.energy_components = self.energy_model.energy_breakdown(
            result.dram_bytes,
            result.sram_bytes,
            result.macs,
            result.latency_seconds,
        )
        result.energy_joules = sum(result.energy_components.values())
        registry = get_metrics()
        if registry is not None:
            registry.inc("sim.pairs", result.num_pairs, platform=config.name)
            registry.inc("sim.batches", 1, platform=config.name)
            registry.observe("sim.batch.pairs_per_call", len(traces))
        return result

    def _pair_layer_stats_batched(
        self,
        pair_trace: PairTrace,
        layer_index: int,
        batch_working_set: int,
    ) -> Dict[str, float]:
        """Array twin of :meth:`_simulate_pair_layer`.

        Every per-step quantity is the same expression evaluated over
        the schedule summary's int64 step arrays; the double-buffer
        pipeline reduction replays the serial fold. With a metrics
        registry active and ``tile_model`` on, the per-step matching
        GEMMs still go through :meth:`MACArray.gemm_cycles` one step at
        a time (in schedule order) so ``pe.gemm.*`` counters accumulate
        identically; metric-free runs use the closed-form batch variant.
        """
        config = self.config
        layer = pair_trace.layers[layer_index]
        pair = pair_trace.pair
        prepared = self._prepare_pair_layer_summary(pair_trace, layer_index)
        summary = prepared["summary"]
        match_fraction = prepared["match_fraction"]
        unique_matchings = prepared["unique_matchings"]
        emf_cycles = prepared["emf_cycles"]
        feature_dim = prepared["feature_dim"]
        node_bytes = feature_dim * BYTES_PER_VALUE

        total_edges = max(1, summary.total_edges)
        total_nodes = max(1, pair.total_nodes)
        agg_macs = layer.flops.counts["aggregate"] / 2.0
        combine_macs = layer.flops.counts["combine"] / 2.0
        macs_per_edge = agg_macs / total_edges
        macs_per_node = combine_macs / total_nodes
        match_units = config.mac_units * config.matching_utilization

        thrashing = self._thrashing(batch_working_set, feature_dim)
        loads = summary.occupancy if thrashing else summary.misses
        step_bytes = loads * node_bytes
        dram_read = 0.0 + float(step_bytes.sum())
        load_cycles = step_bytes / config.dram_bandwidth_bytes_per_cycle
        if layer.has_matching:
            step_match_macs = (
                summary.matchings * feature_dim
            ).astype(np.float64) * match_fraction
        else:
            step_match_macs = np.zeros(summary.num_steps, dtype=np.float64)

        match_cycles = step_match_macs / match_units
        if self.tile_model:
            tiled = step_match_macs != 0.0
            if tiled.any():
                registry = get_metrics()
                if registry is not None:
                    # pe.gemm.* counters are deterministic-prefixed:
                    # call per step, in order, exactly like serial.
                    values = match_cycles.tolist()
                    matchings = summary.matchings.tolist()
                    for k in np.flatnonzero(tiled).tolist():
                        side = max(1, int(round(matchings[k] ** 0.5)))
                        values[k] = (
                            self._array.gemm_cycles(side, feature_dim, side)
                            * match_fraction
                            / config.matching_utilization
                        )
                    match_cycles = np.array(values, dtype=np.float64)
                else:
                    sides = np.maximum(
                        1,
                        np.round(
                            np.power(
                                summary.matchings[tiled].astype(np.float64),
                                0.5,
                            )
                        ).astype(np.int64),
                    )
                    gemm = self._array.gemm_cycles_batch(
                        sides, feature_dim, sides
                    )
                    match_cycles[tiled] = (
                        gemm.astype(np.float64)
                        * match_fraction
                        / config.matching_utilization
                    )
        step_dense = match_cycles + (loads * macs_per_node) / config.mac_units
        step_agg_macs = summary.edges * macs_per_edge
        if config.shared_compute:
            step_cycles = step_dense + step_agg_macs / config.mac_units
        else:
            step_cycles = np.maximum(
                step_agg_macs / config.aggregation_lanes, step_dense
            )

        load_list = load_cycles.tolist()
        compute_list = step_cycles.tolist()
        pipeline = load_list[0] if load_list else 0.0
        num_steps = len(compute_list)
        for k in range(num_steps):
            next_load = load_list[k + 1] if k + 1 < num_steps else 0.0
            pipeline += max(compute_list[k], next_load)

        dram_write = pair.total_nodes * node_bytes
        sim_read, sim_write = self._similarity_traffic(
            pair_trace, layer_index, unique_matchings
        )
        dram_read += sim_read
        dram_write += sim_write
        bulk_bytes = dram_write + sim_read
        bulk_cycles = bulk_bytes / config.dram_bandwidth_bytes_per_cycle
        if config.overlaps_memory:
            total_cycles = max(pipeline, bulk_cycles)
        else:
            total_cycles = pipeline + bulk_cycles

        match_macs = (layer.flops.counts["match"] / 2.0) * match_fraction
        return {
            "compute_cycles": total_cycles,
            "dram_read": dram_read,
            "dram_write": dram_write,
            "macs": agg_macs + combine_macs + match_macs,
            "emf_cycles": emf_cycles,
        }

    def _simulate_pair_layer(
        self,
        pair_trace: PairTrace,
        layer_index: int,
        batch_working_set: Optional[int] = None,
    ) -> Dict[str, float]:
        config = self.config
        layer = pair_trace.layers[layer_index]
        pair = pair_trace.pair
        if batch_working_set is None:
            batch_working_set = pair.total_nodes
        prepared = self._prepare_pair_layer(pair_trace, layer_index)
        schedule = prepared["schedule"]
        match_fraction = prepared["match_fraction"]
        unique_matchings = prepared["unique_matchings"]
        emf_cycles = prepared["emf_cycles"]
        feature_dim = prepared["feature_dim"]
        node_bytes = feature_dim * BYTES_PER_VALUE

        # Per-unit work rates derived from the layer totals.
        total_edges = max(1, schedule.total_edges)
        total_nodes = max(1, pair.total_nodes)
        agg_macs = layer.flops.counts["aggregate"] / 2.0
        combine_macs = layer.flops.counts["combine"] / 2.0
        macs_per_edge = agg_macs / total_edges
        macs_per_node = combine_macs / total_nodes
        match_units = config.mac_units * config.matching_utilization

        # Walk the schedule with double buffering.
        load_cycles = []
        compute_cycles = []
        dram_read = 0.0
        thrashing = self._thrashing(batch_working_set, feature_dim)
        for step in schedule.steps:
            loads = len(step.input_nodes) if thrashing else step.misses
            step_bytes = loads * node_bytes
            dram_read += step_bytes
            load_cycles.append(
                step_bytes / config.dram_bandwidth_bytes_per_cycle
            )
            step_match_macs = (
                step.num_matchings * feature_dim * match_fraction
                if layer.has_matching
                else 0.0
            )
            if self.tile_model and step_match_macs:
                # Active side streams vertically, stationary side
                # horizontally (Fig. 14): a GEMM of roughly
                # sqrt(matchings) x f x sqrt(matchings), scaled by the
                # platform's sustained matching utilization.
                side = max(1, int(round(step.num_matchings**0.5)))
                match_cycles = self._array.gemm_cycles(
                    side, feature_dim, side
                ) * match_fraction / config.matching_utilization
            else:
                match_cycles = step_match_macs / match_units
            step_dense = (
                match_cycles
                + (loads * macs_per_node) / config.mac_units
            )
            step_agg_macs = step.num_edges * macs_per_edge
            if config.shared_compute:
                step_cycles = step_dense + step_agg_macs / config.mac_units
            else:
                step_cycles = max(
                    step_agg_macs / config.aggregation_lanes, step_dense
                )
            compute_cycles.append(step_cycles)

        pipeline = load_cycles[0] if load_cycles else 0.0
        for k in range(len(schedule.steps)):
            next_load = load_cycles[k + 1] if k + 1 < len(load_cycles) else 0.0
            pipeline += max(compute_cycles[k], next_load)

        # Bulk traffic outside the step pipeline.
        dram_write = pair.total_nodes * node_bytes
        sim_read, sim_write = self._similarity_traffic(
            pair_trace, layer_index, unique_matchings
        )
        dram_read += sim_read
        dram_write += sim_write
        bulk_bytes = dram_write + sim_read
        bulk_cycles = bulk_bytes / config.dram_bandwidth_bytes_per_cycle
        if config.overlaps_memory:
            total_cycles = max(pipeline, bulk_cycles)
        else:
            total_cycles = pipeline + bulk_cycles

        match_macs = (layer.flops.counts["match"] / 2.0) * match_fraction
        return {
            "compute_cycles": total_cycles,
            "dram_read": dram_read,
            "dram_write": dram_write,
            "macs": agg_macs + combine_macs + match_macs,
            "emf_cycles": emf_cycles,
        }
