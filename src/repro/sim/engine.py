"""Cycle-level accelerator simulator.

One simulator class serves CEGMA, its two ablation variants, HyGCN, and
AWB-GCN: the :class:`~repro.sim.config.HardwareConfig` selects the
dataflow (baseline single window vs. CGC's coordinated joint window),
whether the EMF filters redundant matchings, and the compute-array split.

Per GMN layer the simulator:

1. runs the EMF over the layer's node features (when enabled) to obtain
   the unique-node sets and the reduced matching workload;
2. builds the window schedule for the layer, whose input-buffer misses
   determine DRAM feature reads;
3. accounts MACs (aggregation, combination, matching — matching scaled
   by the EMF's unique fraction), DRAM traffic (feature loads, output
   writes, similarity-matrix traffic), and takes
   ``max(compute_cycles, memory_cycles)`` as the layer latency
   (double-buffered overlap), plus the EMF pipeline overhead.

Similarity-matrix traffic follows Section IV-D's two usage types:
type (a) models (SimGNN, GraphSim) write the *full* matrix back to DRAM
(unique results are broadcast to duplicate positions) and later read it;
type (b) models (GMN-Li) consume matching results within the layer, so
CEGMA keeps the unique results on-chip when they fit the matching
buffer. Platforms without EMF/CGC always write and read the full matrix
(HyGCN computes similarity in its combiner and "writes back the matching
results to memory").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cgc.summary import (
    ScheduleSummary,
    memoized,
    schedule_key,
    schedule_summary_for,
)
from ..cgc.window import (
    coordinated_window_schedule,
    single_window_schedule,
)
from ..obs.metrics import get_metrics
from ..obs.tracing import span
from ..trace.events import PairTrace
from ..trace.profiler import BatchTrace
from .config import BYTES_PER_VALUE, HardwareConfig
from .energy import EnergyModel

__all__ = [
    "PlatformResult",
    "AcceleratorSimulator",
    "RESULT_SCHEMA_VERSION",
]

# Version of the PlatformResult.to_dict JSON layout; bump on any field
# change so persisted artifacts are never silently misread.
RESULT_SCHEMA_VERSION = 1

def _window_schedule(pair, scheme, capacity, active_targets, active_queries):
    """The serial reference's full schedule, memoized per pair."""
    builder = (
        coordinated_window_schedule
        if scheme == "coordinated"
        else single_window_schedule
    )
    return memoized(
        pair,
        "schedule",
        schedule_key(scheme, capacity, active_targets, active_queries),
        lambda: builder(pair, capacity, active_targets, active_queries),
    )


# Amortized SRAM operand traffic per MAC after array-level reuse, in
# bytes; a second-order term in the energy model.
_SRAM_BYTES_PER_MAC = 0.5


class PlatformResult:
    """Aggregated simulation outcome for one platform over a workload."""

    __slots__ = (
        "platform",
        "cycles",
        "dram_read_bytes",
        "dram_write_bytes",
        "macs",
        "sram_bytes",
        "num_pairs",
        "frequency_hz",
        "energy_joules",
        "energy_components",
        "layer_stats",
    )

    def __init__(self, platform: str, frequency_hz: float) -> None:
        self.platform = platform
        self.frequency_hz = frequency_hz
        self.cycles = 0.0
        self.dram_read_bytes = 0.0
        self.dram_write_bytes = 0.0
        self.macs = 0.0
        self.sram_bytes = 0.0
        self.num_pairs = 0
        self.energy_joules = 0.0
        # Per-component energy: dram / sram / compute / static joules.
        self.energy_components: Dict[str, float] = {}
        # Per-GMN-layer breakdown: list of dicts with "cycles",
        # "dram_bytes", "macs" (readout work is not a layer and is
        # excluded). Populated by the simulators; summed on merge.
        self.layer_stats: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def latency_seconds(self) -> float:
        return self.cycles / self.frequency_hz

    @property
    def latency_per_pair(self) -> float:
        return self.latency_seconds / self.num_pairs if self.num_pairs else 0.0

    @property
    def throughput_pairs_per_second(self) -> float:
        latency = self.latency_seconds
        return self.num_pairs / latency if latency > 0 else 0.0

    def merge(self, other: "PlatformResult") -> None:
        """Accumulate another result (e.g. the next batch) in place."""
        if other.platform != self.platform:
            raise ValueError("cannot merge results from different platforms")
        self.cycles += other.cycles
        self.dram_read_bytes += other.dram_read_bytes
        self.dram_write_bytes += other.dram_write_bytes
        self.macs += other.macs
        self.sram_bytes += other.sram_bytes
        self.num_pairs += other.num_pairs
        self.energy_joules += other.energy_joules
        for key, value in other.energy_components.items():
            self.energy_components[key] = (
                self.energy_components.get(key, 0.0) + value
            )
        for index, stats in enumerate(other.layer_stats):
            if index < len(self.layer_stats):
                for key, value in stats.items():
                    self.layer_stats[index][key] += value
            else:
                self.layer_stats.append(dict(stats))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (schema-versioned).

        Round-trips through :meth:`from_dict`, including merged results:
        every accumulated field is stored, derived metrics (latency,
        throughput) are recomputed on load.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "platform": self.platform,
            "frequency_hz": self.frequency_hz,
            "cycles": self.cycles,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "macs": self.macs,
            "sram_bytes": self.sram_bytes,
            "num_pairs": self.num_pairs,
            "energy_joules": self.energy_joules,
            "energy_components": dict(self.energy_components),
            "layer_stats": [dict(stats) for stats in self.layer_stats],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PlatformResult":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported PlatformResult schema version {version!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        result = cls(str(payload["platform"]), float(payload["frequency_hz"]))
        result.cycles = float(payload["cycles"])
        result.dram_read_bytes = float(payload["dram_read_bytes"])
        result.dram_write_bytes = float(payload["dram_write_bytes"])
        result.macs = float(payload["macs"])
        result.sram_bytes = float(payload["sram_bytes"])
        result.num_pairs = int(payload["num_pairs"])
        result.energy_joules = float(payload["energy_joules"])
        result.energy_components = {
            str(key): float(value)
            for key, value in payload["energy_components"].items()
        }
        result.layer_stats = [
            {str(key): float(value) for key, value in stats.items()}
            for stats in payload["layer_stats"]
        ]
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlatformResult({self.platform!r}, pairs={self.num_pairs}, "
            f"latency={self.latency_seconds:.6f}s, "
            f"dram={self.dram_bytes / 1e6:.2f}MB)"
        )


def _left_fold(values) -> float:
    """Pair-order float accumulation: ``((0.0 + v0) + v1) + ...``.

    A left fold, not numpy's pairwise ``sum``: the simulator's golden
    digests and ``results/summary.json`` pin this association.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# The per-pair stats every ``layer_stats`` returns, one list each.
_STAT_KEYS = ("compute_cycles", "dram_read", "dram_write", "macs", "emf_cycles")


def _by_stat(per_pair: Sequence[Dict[str, float]]) -> Dict[str, list]:
    """Per-pair stat dicts as one list per stat, in pair order."""
    return {key: [stats[key] for stats in per_pair] for key in _STAT_KEYS}


class AcceleratorSimulator:
    """Trace-driven cycle simulator parameterized by a HardwareConfig.

    One batch body, :meth:`_simulate_batch`, folds every layer with
    :meth:`_add_layer`; where the per-pair layer stats come from is its
    ``layer_stats`` argument. The public path passes
    :meth:`_simulate_layer_batched`, which stacks the batch's pairs into
    flat arrays and evaluates each layer as one numpy program. The
    per-pair references (:meth:`_prepare_pair_layer`,
    :meth:`_simulate_pair_layer`) are kept only as the other
    ``layer_stats``, :meth:`_serial_layer_stats`, which the
    ``sim.batched_vs_serial`` check holds the numpy program
    bit-identical to; reach it through :func:`_simulate_batches_serial`.
    The fold itself is pinned by ``tests/sim/test_simulator_golden.py``.
    """

    def __init__(
        self,
        config: HardwareConfig,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        self.config = config
        self.energy_model = energy_model or EnergyModel()
        # Per-simulator memo for EMF overhead reports: the report is a
        # pure function of (total_nodes, feature_dim), shared by every
        # pair with the same shape.
        self._emf_report_memo: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def simulate_batch(self, batch_trace: BatchTrace) -> PlatformResult:
        """Simulate one batch of graph pairs end to end."""
        return self._simulate_batch(batch_trace, self._simulate_layer_batched)

    def _simulate_batch(self, batch_trace: BatchTrace, layer_stats) -> PlatformResult:
        """The one batch body, shared by the public path and the reference.

        ``layer_stats(traces, layer_index, batch_working_set)`` returns
        each per-pair stat of a layer as a list in pair order: the
        batched numpy program (:meth:`_simulate_layer_batched`) on the
        public path, the per-pair loop (:meth:`_serial_layer_stats`) on
        the reference. :meth:`_add_layer` folds each layer into the
        result; the readout, SRAM and energy terms follow.
        """
        config = self.config
        result = PlatformResult(config.name, config.frequency_hz)
        result.num_pairs = batch_trace.batch.batch_size
        traces = batch_trace.pair_traces
        registry = get_metrics()
        batch_working_set = sum(trace.pair.total_nodes for trace in traces)
        for layer_index in range(batch_trace.num_layers):
            stats = layer_stats(traces, layer_index, batch_working_set)
            self._add_layer(result, stats, registry)

        # Readout / prediction heads (identical across platforms).
        for pair_trace in traces:
            readout_macs = pair_trace.readout_flops.total / 2.0
            result.macs += readout_macs
            result.cycles += readout_macs / config.mac_units

        result.sram_bytes = (
            result.macs * _SRAM_BYTES_PER_MAC + result.dram_bytes
        )
        result.energy_components = self.energy_model.energy_breakdown(
            result.dram_bytes,
            result.sram_bytes,
            result.macs,
            result.latency_seconds,
        )
        result.energy_joules = sum(result.energy_components.values())
        if registry is not None:
            registry.inc(
                "sim.pairs", result.num_pairs, platform=config.name
            )
            registry.inc("sim.batches", 1, platform=config.name)
            registry.observe("sim.batch.pairs_per_call", len(traces))
        return result

    def _add_layer(self, result: PlatformResult, stats, registry) -> None:
        """Fold one layer's per-pair stats into ``result``.

        Each per-pair list is summed as a left fold in pair order; the
        layer then overlaps (or serializes) its compute with the
        batch-level memory term.
        """
        config = self.config
        layer_compute_cycles = _left_fold(stats["compute_cycles"])
        layer_dram_read = _left_fold(stats["dram_read"])
        layer_dram_write = _left_fold(stats["dram_write"])
        layer_macs = _left_fold(stats["macs"])
        emf_overhead_cycles = _left_fold(stats["emf_cycles"])

        memory_cycles = (
            layer_dram_read + layer_dram_write
        ) / config.dram_bandwidth_bytes_per_cycle
        if config.overlaps_memory:
            layer_cycles = max(layer_compute_cycles, memory_cycles)
        else:
            layer_cycles = layer_compute_cycles + memory_cycles
        # EMF hashing/filtering is pipelined with the PE (Fig. 11's
        # producer-consumer design); the paper measures the overhead
        # as ignorable, so it only surfaces when it exceeds the
        # layer's own critical path.
        cycles = max(layer_cycles, emf_overhead_cycles)
        result.cycles += cycles
        result.dram_read_bytes += layer_dram_read
        result.dram_write_bytes += layer_dram_write
        result.macs += layer_macs
        result.layer_stats.append(
            {
                "cycles": cycles,
                "dram_bytes": layer_dram_read + layer_dram_write,
                "macs": layer_macs,
            }
        )
        if registry is not None:
            platform = config.name
            registry.inc(
                "sim.dram.read_bytes", layer_dram_read, platform=platform
            )
            registry.inc(
                "sim.dram.write_bytes", layer_dram_write, platform=platform
            )
            registry.inc("sim.macs", layer_macs, platform=platform)
            registry.inc("sim.cycles", cycles, platform=platform)
            # PE busy = cycles the compute array is doing MACs; the
            # rest of the layer's critical path is memory stall.
            busy = min(layer_compute_cycles, layer_cycles)
            registry.inc("sim.pe.busy_cycles", busy, platform=platform)
            registry.inc(
                "sim.pe.stall_cycles", cycles - busy, platform=platform
            )
            registry.inc(
                "sim.memory_cycles", memory_cycles, platform=platform
            )
            registry.inc("sim.layers", 1, platform=platform)

    def _serial_layer_stats(
        self,
        traces: Sequence[PairTrace],
        layer_index: int,
        batch_working_set: int,
    ) -> Dict[str, list]:
        """The reference ``layer_stats``: :meth:`_simulate_pair_layer`
        per pair (see :func:`_simulate_batches_serial`)."""
        return _by_stat(
            [
                self._simulate_pair_layer(trace, layer_index, batch_working_set)
                for trace in traces
            ]
        )

    def _simulate_layer_batched(
        self,
        traces: Sequence[PairTrace],
        layer_index: int,
        batch_working_set: int,
    ) -> Dict[str, list]:
        """Per-pair layer stats for the whole batch, as parallel lists.

        The numpy twin of :meth:`_simulate_pair_layer`: every formula is
        the same expression, evaluated elementwise over all pairs at
        once. Integer inputs (< 2^53) convert to float64 exactly and the
        elementwise IEEE operations match the scalar path's, so each
        per-pair value is bit-identical to its serial counterpart.
        """
        config = self.config
        prepared = [
            self._prepare_pair_layer_summary(trace, layer_index)
            for trace in traces
        ]
        summaries = [p["summary"] for p in prepared]
        feature_dims = [p["feature_dim"] for p in prepared]

        feature_loads = np.array(
            [
                summary.total_occupancy
                if self._thrashing(batch_working_set, feature_dims[i])
                else summary.total_misses
                for i, summary in enumerate(summaries)
            ],
            dtype=np.float64,
        )
        node_bytes = np.array(
            [dim * BYTES_PER_VALUE for dim in feature_dims], dtype=np.float64
        )
        total_nodes = np.array(
            [trace.pair.total_nodes for trace in traces], dtype=np.float64
        )
        sim_traffic = np.array(
            [
                self._similarity_traffic(
                    trace, layer_index, prepared[i]["unique_matchings"]
                )
                for i, trace in enumerate(traces)
            ],
            dtype=np.float64,
        ).reshape(len(traces), 2)
        dram_read = feature_loads * node_bytes + sim_traffic[:, 0]
        dram_write = total_nodes * node_bytes + sim_traffic[:, 1]

        counts = [trace.layers[layer_index].flops.counts for trace in traces]
        agg_macs = (
            np.array([c["aggregate"] for c in counts], dtype=np.float64) / 2.0
        )
        combine_macs = (
            np.array([c["combine"] for c in counts], dtype=np.float64) / 2.0
        )
        match_fraction = np.array(
            [p["match_fraction"] for p in prepared], dtype=np.float64
        )
        match_macs = (
            np.array([c["match"] for c in counts], dtype=np.float64) / 2.0
        ) * match_fraction
        match_cycles = match_macs / (
            config.mac_units * config.matching_utilization
        )
        combine_cycles = combine_macs / config.mac_units
        if config.shared_compute:
            compute_cycles = (
                agg_macs / config.mac_units + combine_cycles + match_cycles
            )
        else:
            compute_cycles = np.maximum(
                agg_macs / config.aggregation_lanes,
                combine_cycles + match_cycles,
            )

        return {
            "compute_cycles": compute_cycles.tolist(),
            "dram_read": dram_read.tolist(),
            "dram_write": dram_write.tolist(),
            "macs": (agg_macs + (combine_macs + match_macs)).tolist(),
            "emf_cycles": [p["emf_cycles"] for p in prepared],
        }

    def _prepare_pair_layer_summary(
        self, pair_trace: PairTrace, layer_index: int
    ) -> Dict[str, object]:
        """Summary-form twin of :meth:`_prepare_pair_layer`.

        Returns a :class:`~repro.cgc.summary.ScheduleSummary` instead of
        a full :class:`~repro.cgc.window.WindowSchedule`. When a metrics
        registry is active, the full matching plan is still computed and
        the schedule store is bypassed, so ``emf.*`` / ``cgc.*``
        counters are emitted exactly as the serial path emits them; the
        sidecar fast path is metric-free runs only.
        """
        config = self.config
        layer = pair_trace.layers[layer_index]
        pair = pair_trace.pair
        feature_dim = max(1, layer.target_features.shape[1])
        registry = get_metrics()

        active_targets = None
        active_queries = None
        match_fraction = 1.0
        unique_matchings = layer.num_matching_pairs
        emf_cycles = 0.0
        plan = None
        if config.emf_enabled and layer.has_matching:
            plan_summary = layer._plan_summary
            if registry is not None or plan_summary is None:
                plan = layer.matching_plan()
                if plan_summary is None:
                    plan_summary = plan.summary()
                    layer._plan_summary = plan_summary
            active_targets = plan_summary.target_actives
            active_queries = plan_summary.query_actives
            match_fraction = plan_summary.remaining_fraction
            unique_matchings = plan_summary.unique_matchings
            emf_cycles = self._emf_cycles_for(pair.total_nodes, feature_dim)

        capacity = config.buffer_capacity_nodes(feature_dim)
        scheme = "coordinated" if config.cgc_enabled else "single"
        store = None if registry is not None else pair_trace._sched_store
        summary = schedule_summary_for(
            pair, scheme, capacity, active_targets, active_queries, store
        )
        # The sidecar persists exactly the schedules this trace asked for,
        # though other traces over the same pair share the memo.
        pair_trace._sched_requested[
            schedule_key(scheme, capacity, active_targets, active_queries)
        ] = None
        if registry is not None:
            self._record_layer_metrics_summary(
                registry, config, plan, emf_cycles, summary
            )
        return {
            "summary": summary,
            "match_fraction": match_fraction,
            "unique_matchings": unique_matchings,
            "emf_cycles": emf_cycles,
            "feature_dim": feature_dim,
        }

    def _emf_cycles_for(self, total_nodes: int, feature_dim: int) -> float:
        """Memoized ``config.emf.per_graph_report(...).total_cycles``."""
        key = (total_nodes, feature_dim)
        cycles = self._emf_report_memo.get(key)
        if cycles is None:
            report = self.config.emf.per_graph_report(
                total_nodes, feature_dim, 1
            )
            cycles = report.total_cycles
            self._emf_report_memo[key] = cycles
        return cycles

    @staticmethod
    def _record_layer_metrics_summary(
        registry, config, plan, emf_cycles, summary
    ) -> None:
        """Per-(pair, layer) EMF and CGC counters, labeled by platform.

        The EMF counters reproduce the Fig. 18 skip-rate inputs
        (``unique / total`` over matching layers); the window counters
        reproduce the miss/revisit accounting behind Figs. 8/12. Both
        layer preparations record through here: the summary form reads
        its :class:`~repro.cgc.summary.ScheduleSummary` directly, the
        per-pair reference converts its full schedule with
        :meth:`~repro.cgc.summary.ScheduleSummary.from_schedule`.
        """
        platform = config.name
        if plan is not None:
            registry.inc(
                "emf.matchings.total", plan.total_matchings, platform=platform
            )
            registry.inc(
                "emf.matchings.unique",
                plan.unique_matchings,
                platform=platform,
            )
            registry.inc(
                "emf.matchings.skipped",
                plan.redundant_matchings,
                platform=platform,
            )
            target, query = plan.target_filter, plan.query_filter
            registry.inc(
                "emf.rows.total", target.num_nodes, platform=platform
            )
            registry.inc(
                "emf.rows.skipped", target.num_duplicates, platform=platform
            )
            registry.inc(
                "emf.cols.total", query.num_nodes, platform=platform
            )
            registry.inc(
                "emf.cols.skipped", query.num_duplicates, platform=platform
            )
            registry.inc(
                "emf.overhead_cycles", emf_cycles, platform=platform
            )
        registry.inc(
            "cgc.window.advances", summary.num_steps, platform=platform
        )
        registry.inc(
            "cgc.window.misses", summary.total_misses, platform=platform
        )
        cleanup_steps = 0
        revisited = 0
        occupancy = summary.occupancy.tolist()
        misses = summary.misses.tolist()
        is_cleanup = summary.is_cleanup.tolist()
        for index, occ in enumerate(occupancy):
            registry.observe(
                "cgc.window.occupancy", occ, platform=platform
            )
            if is_cleanup[index]:
                cleanup_steps += 1
                revisited += misses[index]
        registry.inc(
            "cgc.cleanup.steps", cleanup_steps, platform=platform
        )
        # Node features re-fetched because their edges were left to the
        # cleanup sweep — exactly the revisits AOE minimizes.
        registry.inc(
            "cgc.revisits.nodes", revisited, platform=platform
        )

    def simulate_batches(
        self, batch_traces: Sequence[BatchTrace]
    ) -> PlatformResult:
        """Simulate a sequence of batches and accumulate the totals."""
        return self._accumulate(batch_traces, self.simulate_batch)

    def _accumulate(self, batch_traces, simulate_one) -> PlatformResult:
        """Merge per-batch results in order, one ``sim.batch`` span each."""
        if not batch_traces:
            raise ValueError("need at least one batch")
        with span("sim.batch", platform=self.config.name, batch=0):
            total = simulate_one(batch_traces[0])
        for index, batch_trace in enumerate(batch_traces[1:], start=1):
            with span("sim.batch", platform=self.config.name, batch=index):
                total.merge(simulate_one(batch_trace))
        return total

    # ------------------------------------------------------------------
    def _prepare_pair_layer(
        self, pair_trace: PairTrace, layer_index: int
    ) -> Dict[str, object]:
        """Shared workload preparation: EMF filtering + window schedule.

        Used by both the analytical layer model below and the detailed
        per-step simulator (:mod:`repro.sim.detailed`).
        """
        config = self.config
        layer = pair_trace.layers[layer_index]
        pair = pair_trace.pair
        feature_dim = max(1, layer.target_features.shape[1])

        active_targets = None
        active_queries = None
        match_fraction = 1.0
        unique_matchings = layer.num_matching_pairs
        emf_cycles = 0.0
        plan = None
        if config.emf_enabled and layer.has_matching:
            plan = layer.matching_plan()
            active_targets = plan.target_filter.unique_indices
            active_queries = plan.query_filter.unique_indices
            match_fraction = plan.remaining_fraction
            unique_matchings = plan.unique_matchings
            report = config.emf.per_graph_report(
                pair.total_nodes, feature_dim, 1
            )
            emf_cycles = report.total_cycles

        capacity = config.buffer_capacity_nodes(feature_dim)
        schedule = _window_schedule(
            pair,
            "coordinated" if config.cgc_enabled else "single",
            capacity,
            active_targets,
            active_queries,
        )
        registry = get_metrics()
        if registry is not None:
            self._record_layer_metrics_summary(
                registry,
                config,
                plan,
                emf_cycles,
                ScheduleSummary.from_schedule(schedule),
            )
        return {
            "schedule": schedule,
            "match_fraction": match_fraction,
            "unique_matchings": unique_matchings,
            "emf_cycles": emf_cycles,
            "feature_dim": feature_dim,
        }

    def _similarity_traffic(
        self, pair_trace: PairTrace, layer_index: int, unique_matchings: int
    ) -> Tuple[float, float]:
        """Similarity-matrix DRAM (read, write) bytes for one layer."""
        config = self.config
        layer = pair_trace.layers[layer_index]
        if not layer.has_matching:
            return 0.0, 0.0
        full_entries = layer.num_matching_pairs
        if not (config.emf_enabled or config.cgc_enabled):
            # Baseline accelerators write results back and re-read them
            # for the downstream consumer.
            return full_entries * BYTES_PER_VALUE, full_entries * BYTES_PER_VALUE
        if pair_trace.matching_usage == "writeback":
            # Type (a): broadcast unique results to every duplicate
            # position in DRAM; the consumer reads the full matrix.
            return full_entries * BYTES_PER_VALUE, full_entries * BYTES_PER_VALUE
        # Type (b): unique results cached on-chip when they fit.
        unique_bytes = unique_matchings * BYTES_PER_VALUE
        if unique_bytes > config.matching_buffer_bytes:
            return unique_bytes, unique_bytes
        return 0.0, 0.0

    def _thrashing(self, batch_working_set: int, feature_dim: int) -> bool:
        """Whether stage-wise batch processing thrashes the input buffer.

        Fig. 4's regime: the batch's whole node working set cycles
        through the buffer between a node's embedding-stage access and
        its matching-stage reuse. With a single small pair (or batch 1
        that fits on-chip) the buffer retains it and no thrashing
        occurs.
        """
        if not self.config.batch_interleaved:
            return False
        capacity = self.config.buffer_capacity_nodes(feature_dim)
        return batch_working_set > capacity

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
        node_bytes = prepared["feature_dim"] * BYTES_PER_VALUE

        if self._thrashing(batch_working_set, prepared["feature_dim"]):
            # Stage-wise batch processing thrashes the input buffer
            # across the whole batch working set (Fig. 4): every window
            # reference misses.
            feature_loads = sum(
                len(step.input_nodes) for step in schedule.steps
            )
        else:
            feature_loads = schedule.total_misses
        dram_read = feature_loads * node_bytes
        # Updated node features written back each layer.
        dram_write = pair.total_nodes * node_bytes

        # --- Compute ----------------------------------------------------
        agg_macs = layer.flops.counts["aggregate"] / 2.0
        combine_macs = layer.flops.counts["combine"] / 2.0
        match_macs = (layer.flops.counts["match"] / 2.0) * match_fraction
        dense_macs = combine_macs + match_macs
        # Matching runs at the platform's sustained matching utilization;
        # embedding work runs at full utilization on every platform.
        match_cycles = match_macs / (
            config.mac_units * config.matching_utilization
        )
        combine_cycles = combine_macs / config.mac_units
        if config.shared_compute:
            compute_cycles = (
                agg_macs / config.mac_units + combine_cycles + match_cycles
            )
        else:
            # Heterogeneous (HyGCN): aggregation engine and combination
            # engine run cooperatively; the slower one bounds the layer.
            compute_cycles = max(
                agg_macs / config.aggregation_lanes,
                combine_cycles + match_cycles,
            )

        sim_read, sim_write = self._similarity_traffic(
            pair_trace, layer_index, unique_matchings
        )
        dram_read += sim_read
        dram_write += sim_write

        return {
            "compute_cycles": compute_cycles,
            "dram_read": dram_read,
            "dram_write": dram_write,
            "macs": agg_macs + dense_macs,
            "emf_cycles": emf_cycles,
        }


def _simulate_batches_serial(
    simulator: AcceleratorSimulator, batch_traces: Sequence[BatchTrace]
) -> PlatformResult:
    """The per-pair reference run of ``simulator.simulate_batches``.

    Same batch body, merge order and ``sim.batch`` spans, with every
    layer's per-pair stats taken from the pair-at-a-time reference
    (:meth:`AcceleratorSimulator._serial_layer_stats`). Validation code
    only: the ``sim.batched_vs_serial`` check compares the batched
    engine against it.
    """
    return simulator._accumulate(
        batch_traces,
        lambda batch_trace: simulator._simulate_batch(
            batch_trace, simulator._serial_layer_stats
        ),
    )
