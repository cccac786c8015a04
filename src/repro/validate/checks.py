"""The built-in correctness checks.

Ten differential pairs and three invariant families, mirroring the
redundant implementations the repo maintains on purpose:

====================================  =========================================
check                                 redundant pair / invariant
====================================  =========================================
``emf.hash.scalar_vs_batch``          scalar XXH32 vs. lane-parallel batch
``emf.filter.backends``               Algorithm 1 XXH32 loop vs. batch digest
``emf.filter.methods``                byte-keyed digest vs. XXH32 tagging
``emf.filter.bytes_key``              hashed array row key vs. dict loop
``sim.engine_vs_detailed``            analytic engine vs. per-step simulator
``sim.batched_vs_serial``             batched numpy engine vs. per-pair loop
``harness.serial_vs_parallel``        serial run vs. chunked process pool
``search.serve_vs_direct``            flat query loop vs. serving pipeline
``search.sketch_vs_flat``             sketch-gated retrieval vs. flat scoring
``models.batched_vs_pair``            segment-batched GMN-Li vs. batches of one
``cgc.schedule_invariants``           window-schedule properties, all schemes
``cgc.degenerate_inputs``             capacity/empty-side contract
``emf.quantization_single_site``      quantize-exactly-once contract
====================================  =========================================

Each check runs a deterministic quick tier (what CI gates on) and, when
``context.quick`` is False, a hypothesis-driven randomized tier
(derandomized, so the full tier is still reproducible). Each also
registers mutators — targeted single-implementation perturbations —
that the mutation smoke tier uses to prove the check can fail.

All checks resolve the implementations they exercise late, through
module attributes, so the mutators' patches are visible to them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .registry import CheckContext, CheckFailure, register_check
from .workloads import (
    adversarial_pairs,
    byte_matrices,
    feature_matrices,
    random_pairs,
    small_traces,
)


def _accelerators():
    """Every registered accelerator (platforms with a HardwareConfig).

    The simulator-level differential checks run all of them: CEGMA and
    its EMF-only and CGC-only ablations, HyGCN (separate aggregation
    engine) and AWB-GCN (shared compute, no memory overlap) each take a
    different branch somewhere in the per-pair layer model or the fold.
    """
    from ..platforms import REGISTRY

    return [
        name for name in REGISTRY.names() if REGISTRY.entry(name).configurable
    ]


# Documented tolerances. Differential pairs that share every formula
# must agree bit for bit; the analytic/detailed latency models differ by
# design and are held to the same factor the simulator tests use; merged
# float accumulators may differ by association order only.
_LATENCY_FACTOR = 3.0
_MERGE_RTOL = 1e-9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@contextmanager
def _patched(obj, attr: str, value):
    """Temporarily replace ``obj.attr``, descriptor-safely for classes."""
    if isinstance(obj, type):
        original = obj.__dict__[attr]
    else:
        original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def _deep_settings(max_examples: int):
    """Derandomized hypothesis settings (reproducible full tier)."""
    from hypothesis import HealthCheck, settings

    return settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=list(HealthCheck),
    )


def _hypothesis_available() -> bool:
    try:
        import hypothesis  # noqa: F401
    except ImportError:  # pragma: no cover - baked into the image
        return False
    return True


# ----------------------------------------------------------------------
# Pair 1: scalar vs. batch-vectorized XXH32
# ----------------------------------------------------------------------
def _mutate_batch_hash_prime():
    from ..emf import xxhash as xxhash_mod

    return _patched(
        xxhash_mod, "_P3", np.uint32(xxhash_mod._PRIME3 ^ 0x2)
    )


@register_check(
    "emf.hash.scalar_vs_batch",
    kind="differential",
    pair=("repro.emf.xxhash.xxh32", "repro.emf.xxhash.xxh32_batch"),
    mutators={"perturb_batch_prime3": _mutate_batch_hash_prime},
)
def check_hash_scalar_vs_batch(context: CheckContext):
    """Batch XXH32 is bit-identical to the scalar reference per row."""
    from ..emf import xxhash as xxhash_mod

    def compare(matrix: np.ndarray, seed: int) -> None:
        batch = xxhash_mod.xxh32_batch(matrix, seed)
        for row_index in range(matrix.shape[0]):
            reference = xxhash_mod.xxh32(bytes(matrix[row_index]), seed)
            _require(
                int(batch[row_index]) == reference,
                f"xxh32_batch diverges from xxh32 at row {row_index} of a "
                f"{matrix.shape} matrix (seed={seed}): "
                f"{int(batch[row_index]):#010x} != {reference:#010x}",
            )

    matrices = byte_matrices(seed=0)
    for seed in (0, 2654435761):
        for matrix in matrices:
            compare(matrix, seed)
    # Feature-level wrapper: matrix tags == per-row vector tags.
    for features in feature_matrices(seed=1):
        tags = xxhash_mod.hash_feature_matrix(features)
        for row_index in range(features.shape[0]):
            _require(
                int(tags[row_index])
                == xxhash_mod.hash_feature_vector(features[row_index]),
                f"hash_feature_matrix row {row_index} diverges from "
                "hash_feature_vector",
            )
    if not context.quick and _hypothesis_available():
        from hypothesis import given
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        @_deep_settings(50)
        @given(
            data=arrays(
                np.uint8,
                st.tuples(
                    st.integers(0, 8), st.integers(0, 70)
                ),
            ),
            seed=st.integers(0, 2**32 - 1),
        )
        def property_rows_match(data, seed):
            compare(data, seed)

        property_rows_match()
    return f"{len(matrices)} byte matrices x 2 seeds, bit-identical"


# ----------------------------------------------------------------------
# Pair 1b: EMF batch digest vs. scalar reference, bytes vs. xxhash methods
# ----------------------------------------------------------------------
def _filter_signature(result):
    return {
        "unique_indices": result.unique_indices,
        "tags": result.tags.tolist(),
        "tag_map": result.tag_map,
        "num_nodes": result.num_nodes,
        "hash_conflicts": result.hash_conflicts,
    }


def _mutate_vectorized_grouping():
    from ..emf import filter as filter_mod

    original = filter_mod.first_occurrence

    def last_occurrence(keys):
        representatives, inverse = original(keys)
        last = representatives.copy()
        np.maximum.at(last, inverse, np.arange(len(inverse)))
        return last, inverse

    return _patched(filter_mod, "first_occurrence", last_occurrence)


@register_check(
    "emf.filter.backends",
    kind="differential",
    pair=(
        "repro.emf.filter._filter_scalar",
        "repro.emf.filter._filter_vectorized",
    ),
    mutators={"vectorized_groups_by_last_occurrence": _mutate_vectorized_grouping},
)
def check_filter_backends(context: CheckContext):
    """The xxhash method's batch digest matches the scalar XXH32 loop."""
    from ..emf import filter as filter_mod

    def compare(features: np.ndarray) -> None:
        production = filter_mod.elastic_matching_filter(features, method="xxhash")
        reference = filter_mod._filter_scalar(
            filter_mod.quantize_features(features), 0, True
        )
        left, right = _filter_signature(reference), _filter_signature(production)
        _require(
            left == right,
            f"xxhash filter diverges from the scalar reference on a "
            f"{features.shape} matrix: scalar={left} vectorized={right}",
        )

    matrices = feature_matrices(seed=2)
    for features in matrices:
        compare(features)
    if not context.quick and _hypothesis_available():
        from hypothesis import given
        from hypothesis import strategies as st

        @_deep_settings(40)
        @given(
            num_nodes=st.integers(0, 12),
            feature_dim=st.integers(0, 5),
            seed=st.integers(0, 2**16),
            duplicate_fraction=st.floats(0.0, 1.0),
        )
        def property_backends_match(
            num_nodes, feature_dim, seed, duplicate_fraction
        ):
            rng = np.random.default_rng(seed)
            features = rng.normal(size=(num_nodes, feature_dim))
            for row in range(1, num_nodes):
                if rng.random() < duplicate_fraction:
                    features[row] = features[rng.integers(0, row)]
            compare(features)

        property_backends_match()
    return f"{len(matrices)} matrices, identical results"


def _mutate_colliding_tags():
    # Patch the names inside the filter module (it imports them by
    # value), collapsing every XXH32 tag to zero.
    from contextlib import ExitStack

    from ..emf import filter as filter_mod

    def all_zero_tags(features, seed=0, decimals=None):
        features = np.asarray(features, dtype=np.float64)
        return np.zeros(features.shape[0], dtype=np.uint32)

    def zero_tag(vector, seed=0, decimals=None):
        return 0

    @contextmanager
    def mutate():
        with ExitStack() as stack:
            stack.enter_context(
                _patched(filter_mod, "hash_feature_matrix", all_zero_tags)
            )
            stack.enter_context(
                _patched(filter_mod, "hash_feature_vector", zero_tag)
            )
            yield

    return mutate()


@register_check(
    "emf.filter.methods",
    kind="differential",
    pair=("elastic_matching_filter(bytes)", "elastic_matching_filter(xxhash)"),
    mutators={"collide_all_tags": _mutate_colliding_tags},
)
def check_filter_methods(context: CheckContext):
    """Byte-keyed and XXH32-tagged digests agree, with zero conflicts.

    The paper reports zero XXH32 conflicts across all experiments; the
    reproduction asserts the same, so the two methods must produce the
    identical unique/duplicate partition on every workload.
    """
    from ..emf import filter as filter_mod

    matrices = feature_matrices(seed=3)
    for features in matrices:
        by_bytes = filter_mod.elastic_matching_filter(features, method="bytes")
        by_hash = filter_mod.elastic_matching_filter(features, method="xxhash")
        _require(
            by_hash.hash_conflicts == 0,
            f"xxhash method reported {by_hash.hash_conflicts} "
            f"conflict(s) on a {features.shape} matrix",
        )
        _require(
            by_bytes.unique_indices == by_hash.unique_indices
            and dict(by_bytes.tag_map) == dict(by_hash.tag_map),
            f"bytes and xxhash methods partition a {features.shape} "
            f"matrix differently: "
            f"bytes unique={by_bytes.unique_indices} "
            f"xxhash unique={by_hash.unique_indices}",
        )
    return f"{len(matrices)} matrices, identical partitions"


# ----------------------------------------------------------------------
# Pair 1c: the bytes method's array key vs. its dict loop
# ----------------------------------------------------------------------
def _mutate_skip_byte_check():
    from ..emf import filter as filter_mod

    return _patched(filter_mod, "_same_rows", lambda bits, holders: True)


@register_check(
    "emf.filter.bytes_key",
    kind="differential",
    pair=("first_occurrence(row bytes)", "repro.emf.filter._group_rows"),
    mutators={"bytes_key_skips_byte_check": _mutate_skip_byte_check},
)
def check_bytes_key(context: CheckContext):
    """The bytes method's hashed array key groups rows exactly as the
    dict loop over row bytes does.

    Each quantized matrix, and a copy tiled past the row count at which
    ``_filter_bytes`` takes the array key, is grouped by the loop, by
    ``_group_rows`` and by ``_filter_bytes``. Then the row hash is
    forced to one constant: ``_group_rows`` must report the collision
    on every matrix with two distinct rows, and ``_filter_bytes`` must
    still equal the loop.
    """
    from ..emf import filter as filter_mod

    def loop(quantized):
        return filter_mod.first_occurrence(
            [row.tobytes() for row in quantized]
        )

    def equal(left, right) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(left, right))

    matrices = []
    for features in feature_matrices(seed=5):
        quantized = filter_mod.quantize_features(features)
        matrices.append(quantized)
        if quantized.shape[0]:
            copies = -(-filter_mod._GROUP_ROWS_MIN // quantized.shape[0])
            matrices.append(np.tile(quantized, (copies, 1)))
    # Rows one ulp apart are distinct keys.
    ulp = np.tile(matrices[0], (8, 1))
    ulp[1::2, -1] = np.nextafter(ulp[1::2, -1], np.inf)
    matrices.append(ulp)

    for quantized in matrices:
        reference = loop(quantized)
        grouped = filter_mod._group_rows(quantized)
        _require(
            grouped is None or equal(grouped, reference),
            f"array key groups a {quantized.shape} matrix differently "
            f"from the dict loop: {grouped} != {reference}",
        )
        result = filter_mod._filter_bytes(quantized)
        _require(
            equal((result.unique_indices, result.inverse), reference),
            f"_filter_bytes diverges from the dict loop on a "
            f"{quantized.shape} matrix",
        )

    def constant_hash(bits):
        return np.zeros(bits.shape[0], dtype=np.uint64)

    with _patched(filter_mod, "_row_hash", constant_hash):
        for quantized in matrices:
            reference = loop(quantized)
            distinct = reference[0].size > 1
            _require(
                not distinct or filter_mod._group_rows(quantized) is None,
                f"array key missed a forced hash collision on a "
                f"{quantized.shape} matrix",
            )
            result = filter_mod._filter_bytes(quantized)
            _require(
                equal((result.unique_indices, result.inverse), reference),
                f"_filter_bytes diverges from the dict loop on a "
                f"{quantized.shape} matrix under forced collisions",
            )
    return f"{len(matrices)} matrices x 2 hashes, identical groupings"


# ----------------------------------------------------------------------
# Pair 3: analytic engine vs. detailed per-step simulator
# ----------------------------------------------------------------------
def _mutate_detailed_bytes():
    from ..sim import detailed as detailed_mod

    return _patched(
        detailed_mod, "BYTES_PER_VALUE", detailed_mod.BYTES_PER_VALUE * 2
    )


@register_check(
    "sim.engine_vs_detailed",
    kind="differential",
    pair=(
        "repro.sim.engine.AcceleratorSimulator",
        "repro.sim.detailed.DetailedSimulator",
    ),
    mutators={"detailed_doubles_value_bytes": _mutate_detailed_bytes},
)
def check_engine_vs_detailed(context: CheckContext):
    """Engine and detailed simulator reconcile their counters per RunSpec.

    DRAM read/write bytes, MAC counts, and pair counts come from shared
    workload preparation and must match exactly; the latency models
    differ by design and are held to the documented small factor.
    """
    from ..platforms import REGISTRY
    from ..sim import detailed as detailed_mod

    traces = small_traces(num_pairs=4, batch_size=2)
    platforms = _accelerators()
    for platform in platforms:
        engine = REGISTRY.build(platform)
        detailed = detailed_mod.DetailedSimulator(engine.config)
        analytic = engine.simulate_batches(traces)
        stepped = detailed.simulate_batches(traces)
        for field in ("dram_read_bytes", "dram_write_bytes", "macs"):
            left = getattr(analytic, field)
            right = getattr(stepped, field)
            _require(
                np.isclose(left, right, rtol=1e-12, atol=0.0),
                f"{platform}: engine and detailed simulator disagree on "
                f"{field}: {left} != {right}",
            )
        _require(
            analytic.num_pairs == stepped.num_pairs,
            f"{platform}: pair counts diverge "
            f"({analytic.num_pairs} != {stepped.num_pairs})",
        )
        ratio = stepped.cycles / analytic.cycles
        _require(
            1.0 / _LATENCY_FACTOR < ratio < _LATENCY_FACTOR,
            f"{platform}: detailed/engine cycle ratio {ratio:.3f} outside "
            f"the documented (1/{_LATENCY_FACTOR}, {_LATENCY_FACTOR}) band",
        )
    return f"{len(platforms)} platforms reconciled (dram/macs exact)"


# ----------------------------------------------------------------------
# Pair 3b: batched numpy engine vs. per-pair serial reference
# ----------------------------------------------------------------------
def _mutate_batched_summary_misses():
    """Perturb the batched path's schedule summaries (serial untouched)."""
    from ..sim import engine as engine_mod

    original = engine_mod.schedule_summary_for

    def perturbed(
        pair, scheme, capacity, active_targets=None, active_queries=None
    ):
        summary = original(
            pair, scheme, capacity, active_targets, active_queries
        )
        misses = summary.misses.copy()
        if misses.size:
            misses[0] += 1
        return type(summary)(
            summary.scheme,
            summary.capacity,
            summary.occupancy,
            misses,
            summary.matchings,
            summary.edges,
            summary.is_cleanup,
        )

    return _patched(engine_mod, "schedule_summary_for", perturbed)


def _mutate_gemm_batch_cycles():
    """Skew the vectorized GEMM kernel the batched tile model uses."""
    from ..sim import pe as pe_mod

    original = pe_mod.MACArray.__dict__["gemm_cycles_batch"]

    def off_by_one(self, n, k, m):
        return original(self, n, k, m) + 1

    return _patched(pe_mod.MACArray, "gemm_cycles_batch", off_by_one)


def _mutate_plan_summary_fraction():
    """Skew the cached EMF plan summary the batched engine consumes."""
    from ..emf import filter as filter_mod

    original = filter_mod.MatchingPlan.__dict__["summary"]

    def skewed(self):
        summary = original(self)
        return filter_mod.PlanSummary(
            summary.target_actives,
            summary.query_actives,
            summary.remaining_fraction * 0.5,
            summary.unique_matchings,
        )

    return _patched(filter_mod.MatchingPlan, "summary", skewed)


def _mutate_cleanup_seed_highest_id():
    """Break the fast builders' cleanup seed ties toward the highest node
    id instead of the serial scheduler's lowest."""
    from ..cgc import summary as summary_mod

    def highest(tracker):
        degree = tracker.alive_degrees()
        return int(np.flatnonzero(degree == degree.max())[-1])

    return _patched(summary_mod, "_cleanup_seed", highest)


def _mutate_walk_window_off_by_one():
    """Drop each block's last query node from the windows of the serial
    reference's joint-window walk; the fast summary builders keep their
    own walk, so only the reference changes. The check's pairs each fit
    one window, so a walk bug must show in the window it visits rather
    than in the direction it slides."""
    from ..cgc import window as window_mod

    original = window_mod._JointWalk.__dict__["window"]

    def off_by_one(self):
        return original(self) - {self.q_blocks[self.qi][-1]}

    return _patched(window_mod._JointWalk, "window", off_by_one)


@register_check(
    "sim.batched_vs_serial",
    kind="differential",
    pair=(
        "sim.engine._simulate_batches_serial",
        "AcceleratorSimulator.simulate_batches",
    ),
    mutators={
        "batched_summary_miscounts_misses": _mutate_batched_summary_misses,
        "gemm_batch_kernel_off_by_one": _mutate_gemm_batch_cycles,
        "plan_summary_halves_match_fraction": _mutate_plan_summary_fraction,
        "cleanup_seed_breaks_ties_highest_id": _mutate_cleanup_seed_highest_id,
        "walk_window_drops_last_query": _mutate_walk_window_off_by_one,
    },
)
def check_batched_vs_serial(context: CheckContext):
    """The batched numpy engine is bit-identical to the per-pair loop.

    Covers the analytic engine and the detailed simulator (with and
    without the tile model), both metric-free — where the batched path
    may consult cached plan/schedule summaries and vectorized kernels —
    and under an active registry, where every deterministic counter
    stream (``sim.*``, ``emf.*``, ``cgc.*``, ``dram.*``, ``pe.*``) must
    match key for key. Both sides run the simulator's one batch body
    and differ only in where each layer's per-pair stats come from, so
    this check sees the per-pair models, not the fold (the fold is
    pinned by ``tests/sim/test_simulator_golden.py``).
    """
    from ..obs.metrics import metrics_enabled
    from ..platforms import REGISTRY
    from ..sim import detailed as detailed_mod
    from ..sim.engine import _simulate_batches_serial

    def diff_keys(left: dict, right: dict) -> str:
        keys = sorted(
            key
            for key in set(left) | set(right)
            if left.get(key) != right.get(key)
        )
        return ", ".join(
            f"{key}: {left.get(key)} != {right.get(key)}" for key in keys
        )

    def configs(platform: str):
        yield f"{platform}/engine", lambda: REGISTRY.build(platform)
        config = REGISTRY.build(platform).config
        for tile in (False, True):
            def stepped(tile=tile):
                return detailed_mod.DetailedSimulator(config, tile_model=tile)

            yield f"{platform}/detailed{'_tile' if tile else ''}", stepped

    # Fresh traces per run: new pair objects, so no summary memoized by
    # an earlier (possibly unmutated) invocation can mask a divergence.
    # The RD-B pairs are large enough for cleanup seeds to tie.
    traces = small_traces(num_pairs=4, batch_size=2) + small_traces(
        dataset="RD-B", num_pairs=2, batch_size=2
    )

    def run_serial(build) -> dict:
        return _simulate_batches_serial(build(), traces).to_dict()

    def run_batched(build) -> dict:
        return build().simulate_batches(traces).to_dict()

    compared = 0
    for platform in _accelerators():
        for label, build in configs(platform):
            serial, batched = run_serial(build), run_batched(build)
            _require(
                serial == batched,
                f"{label}: batched engine diverges from serial "
                f"(metric-free): {diff_keys(serial, batched)}",
            )
            with metrics_enabled() as registry:
                serial_m = run_serial(build)
                serial_metrics = registry.as_dict()
            with metrics_enabled() as registry:
                batched_m = run_batched(build)
                batched_metrics = registry.as_dict()
            _require(
                serial_m == batched_m,
                f"{label}: batched engine diverges from serial "
                f"(metrics on): {diff_keys(serial_m, batched_m)}",
            )
            for section in sorted(set(serial_metrics) | set(batched_metrics)):
                left = serial_metrics.get(section, {})
                right = batched_metrics.get(section, {})
                _require(
                    left == right,
                    f"{label}: metric {section} diverge between engines: "
                    f"{diff_keys(left, right)}",
                )
            compared += 1
    return (
        f"{compared} simulator configs x 2 modes, results and metric "
        "streams bit-identical"
    )


# ----------------------------------------------------------------------
# Pair 4: serial harness vs. process-pool chunked harness
# ----------------------------------------------------------------------
def _mutate_drop_last_chunk():
    """Lose the last chunk's results on the shared-memory fan-out.

    Fewer chunk bounds would not do: one chunk is simulated whole,
    in-process, by the serial reference.
    """
    from ..perf import parallel as parallel_mod

    original = parallel_mod._shm_map_chunks

    def drop_last_chunk(*args):
        results = original(*args)
        return None if results is None else results[:-1]

    return _patched(parallel_mod, "_shm_map_chunks", drop_last_chunk)


@register_check(
    "harness.serial_vs_parallel",
    kind="differential",
    pair=(
        "repro.core.api.simulate_workload",
        "repro.perf.parallel.parallel_simulate_workload",
    ),
    mutators={"parallel_drops_last_chunk": _mutate_drop_last_chunk},
)
def check_serial_vs_parallel(context: CheckContext):
    """Chunked process-pool simulation merges to the serial result.

    Pair counts must match exactly; float accumulators are summed in a
    different association order across chunks, so they are held to the
    documented ulp-level tolerance. The chunk/merge structure is
    validated even when the host refuses to spawn processes (the pool
    falls back to in-process execution of the same chunk tasks).
    """
    from ..core import api as api_mod
    from ..perf import parallel as parallel_mod
    from ..platforms.runspec import RunSpec

    spec = RunSpec.make("GMN-Li", "AIDS", 8, 2, 0)
    serial = api_mod.simulate_workload(
        spec.model,
        spec.dataset,
        ("CEGMA",),
        num_pairs=spec.num_pairs,
        batch_size=spec.batch_size,
        seed=spec.seed,
    )
    # Single-core hosts clamp the worker request to 1, which collapses
    # the workload to one chunk and leaves the chunk/merge path — the
    # thing this check exists for — unexercised. Force two chunks; the
    # pool still degrades to in-process execution where it must.
    with _patched(
        parallel_mod, "available_workers", lambda requested=None: 2
    ):
        chunked = parallel_mod.parallel_simulate_workload(
            spec, ("CEGMA",), workers=2
        )
    _require(
        set(serial) == set(chunked),
        f"platform sets diverge: {sorted(serial)} != {sorted(chunked)}",
    )
    for platform in serial:
        left = serial[platform].to_dict()
        right = chunked[platform].to_dict()
        _require(
            left["num_pairs"] == right["num_pairs"],
            f"{platform}: pair counts diverge "
            f"({left['num_pairs']} != {right['num_pairs']})",
        )
        for field in (
            "cycles",
            "dram_read_bytes",
            "dram_write_bytes",
            "macs",
            "sram_bytes",
            "energy_joules",
        ):
            _require(
                np.isclose(
                    left[field], right[field], rtol=_MERGE_RTOL, atol=0.0
                ),
                f"{platform}: serial and chunked runs diverge on {field} "
                f"beyond the merge tolerance: {left[field]} != "
                f"{right[field]}",
            )
    return f"{spec.stem}: serial == chunked (2 workers)"


# ----------------------------------------------------------------------
# Invariants: CGC window schedules
# ----------------------------------------------------------------------
def _assert_schedule_invariants(schedule, pair, capacity, scheme, label):
    expected_matchings = pair.target.num_nodes * pair.query.num_nodes
    expected_edges = len(pair.target.src) + len(pair.query.src)
    for index, step in enumerate(schedule.steps):
        _require(
            len(step.input_nodes) <= capacity,
            f"[{label}/{scheme} cap={capacity}] step {index} holds "
            f"{len(step.input_nodes)} nodes, exceeding the buffer",
        )
        if step.kind == "cleanup":
            _require(
                step.num_matchings == 0,
                f"[{label}/{scheme} cap={capacity}] cleanup step {index} "
                "claims matchings",
            )
    _require(
        schedule.total_matchings == expected_matchings,
        f"[{label}/{scheme} cap={capacity}] matchings executed "
        f"{schedule.total_matchings} times, expected {expected_matchings} "
        "(every matching must execute exactly once)",
    )
    _require(
        schedule.total_edges == expected_edges,
        f"[{label}/{scheme} cap={capacity}] {schedule.total_edges} edges "
        f"processed, expected {expected_edges} "
        "(cleanup must cover all remaining edges)",
    )
    previous = frozenset()
    recomputed_total = 0
    for index, step in enumerate(schedule.steps):
        expected_misses = len(step.input_nodes - previous)
        _require(
            step.misses == expected_misses,
            f"[{label}/{scheme} cap={capacity}] step {index} records "
            f"{step.misses} misses, recomputation gives {expected_misses}",
        )
        recomputed_total += expected_misses
        previous = step.input_nodes
    _require(
        schedule.total_misses == recomputed_total,
        f"[{label}/{scheme} cap={capacity}] total_misses "
        f"{schedule.total_misses} != independently recomputed "
        f"{recomputed_total}",
    )


def _mutate_skip_cleanup():
    from ..cgc import window as window_mod

    def no_cleanup(self, capacity):
        return []

    return _patched(window_mod._EdgeTracker, "cleanup_steps", no_cleanup)


def _mutate_oversized_chunks():
    from ..cgc import window as window_mod

    original = window_mod._chunks

    def oversized(items, size):
        return original(items, size + 1)

    return _patched(window_mod, "_chunks", oversized)


@register_check(
    "cgc.schedule_invariants",
    kind="invariant",
    mutators={
        "cleanup_drops_remaining_edges": _mutate_skip_cleanup,
        "blocks_overflow_capacity": _mutate_oversized_chunks,
    },
)
def check_schedule_invariants(context: CheckContext):
    """Every scheme, on every adversarial pair: capacity respected, every
    matching exactly once, all edges covered, miss accounting consistent."""
    from ..cgc import window as window_mod

    capacities = (2, 3, 5, 8, 64)
    cases = list(adversarial_pairs())
    for seed in (0, 1):
        cases.extend(
            (f"random_{seed}_{index}", pair)
            for index, pair in enumerate(random_pairs(seed))
        )
    checked = 0
    for label, pair in cases:
        for capacity in capacities:
            for scheme, scheduler in window_mod.SCHEDULERS.items():
                schedule = scheduler(pair, capacity)
                _assert_schedule_invariants(
                    schedule, pair, capacity, scheme, label
                )
                checked += 1
    # Active-set variant: EMF-filtered matchings must also run once each.
    label, pair = cases[0]
    active_targets = list(range(0, pair.target.num_nodes, 2))
    active_queries = list(range(0, pair.query.num_nodes, 2))
    for scheme, scheduler in window_mod.SCHEDULERS.items():
        schedule = scheduler(
            pair, 4, active_targets=active_targets, active_queries=active_queries
        )
        _require(
            schedule.total_matchings
            == len(active_targets) * len(active_queries),
            f"[{label}/{scheme}] active-set matchings "
            f"{schedule.total_matchings} != "
            f"{len(active_targets) * len(active_queries)}",
        )
    if not context.quick and _hypothesis_available():
        from hypothesis import given
        from hypothesis import strategies as st

        @_deep_settings(30)
        @given(seed=st.integers(0, 2**16), capacity=st.integers(2, 16))
        def property_invariants_hold(seed, capacity):
            for index, pair in enumerate(random_pairs(seed, count=2)):
                for scheme, scheduler in window_mod.SCHEDULERS.items():
                    _assert_schedule_invariants(
                        scheduler(pair, capacity),
                        pair,
                        capacity,
                        scheme,
                        f"hypothesis_{seed}_{index}",
                    )

        property_invariants_hold()
    return f"{checked} (pair, capacity, scheme) schedules validated"


def _mutate_accept_any_capacity():
    from ..cgc import window as window_mod

    return _patched(window_mod, "_validate_capacity", lambda capacity: capacity)


@register_check(
    "cgc.degenerate_inputs",
    kind="invariant",
    mutators={"capacity_validation_disabled": _mutate_accept_any_capacity},
)
def check_degenerate_inputs(context: CheckContext):
    """Degenerate scheduler inputs either raise a clear ValueError
    (capacity < 2) or produce a fully valid schedule (odd capacity,
    undersized sides, empty sides, disconnected graphs)."""
    from ..cgc import window as window_mod

    cases = dict(adversarial_pairs())
    reference = cases["paper_like"]
    for scheme, scheduler in window_mod.SCHEDULERS.items():
        for capacity in (-3, 0, 1):
            try:
                schedule = scheduler(reference, capacity)
            except ValueError:
                continue
            # No error: the schedule must then actually fit the buffer —
            # which a sub-2 window never can while matching.
            _assert_schedule_invariants(
                schedule, reference, capacity, scheme, "undersized_capacity"
            )
            raise CheckFailure(
                f"{scheme} accepted capacity={capacity} without raising "
                "ValueError or producing a valid schedule"
            )
        for capacity in (3, 5, 7):  # odd split: spare slot stays unused
            for label in ("paper_like", "smaller_than_half_window"):
                _assert_schedule_invariants(
                    scheduler(cases[label], capacity),
                    cases[label],
                    capacity,
                    scheme,
                    f"odd_{label}",
                )
        for label in ("empty_query", "empty_target", "both_empty", "edgeless"):
            _assert_schedule_invariants(
                scheduler(cases[label], 4), cases[label], 4, scheme, label
            )
    return (
        f"{len(window_mod.SCHEDULERS)} schemes: capacity<2 raises, "
        "degenerate pairs schedule cleanly"
    )


# ----------------------------------------------------------------------
# Invariant: quantization happens at exactly one site
# ----------------------------------------------------------------------
def _mutate_unnormalized_zero():
    from ..emf import xxhash as xxhash_mod

    def quantize_without_zero_normalization(features, decimals=6):
        array = np.asarray(features, dtype=np.float64)
        if decimals is None:
            return array
        return np.round(array, decimals)  # keeps -0.0

    return _patched(
        xxhash_mod, "quantize_features", quantize_without_zero_normalization
    )


@register_check(
    "emf.quantization_single_site",
    kind="invariant",
    mutators={"quantizer_keeps_negative_zero": _mutate_unnormalized_zero},
)
def check_quantization_single_site(context: CheckContext):
    """quantize_features is idempotent, normalizes -0.0, and the
    decimals=None pre-quantized contract yields identical tags and
    filter results (no path quantizes twice)."""
    from ..emf import filter as filter_mod
    from ..emf import xxhash as xxhash_mod

    for features in feature_matrices(seed=4):
        quantized = xxhash_mod.quantize_features(features)
        twice = xxhash_mod.quantize_features(quantized)
        _require(
            quantized.tobytes() == twice.tobytes(),
            f"quantize_features is not idempotent on a {features.shape} "
            "matrix: re-quantizing changed the bit pattern",
        )
        _require(
            not np.signbit(quantized[quantized == 0.0]).any(),
            f"quantize_features left a -0.0 in a {features.shape} matrix",
        )
        # Pre-quantized consumers (decimals=None) must see the same tags
        # as the one-shot path — quantization happens exactly once.
        one_shot = xxhash_mod.hash_feature_matrix(features)
        pre_quantized = xxhash_mod.hash_feature_matrix(
            quantized, decimals=None
        )
        _require(
            np.array_equal(one_shot, pre_quantized),
            f"tags diverge between one-shot and pre-quantized hashing on "
            f"a {features.shape} matrix",
        )
        left = _filter_signature(
            filter_mod.elastic_matching_filter(features, method="xxhash")
        )
        right = _filter_signature(
            filter_mod.elastic_matching_filter(quantized, method="xxhash")
        )
        _require(
            left == right,
            "filtering raw vs. pre-quantized features diverges on a "
            f"{features.shape} matrix: {left} != {right}",
        )
    # Signed zeros must collapse to one duplicate group.
    zeros = np.array([[-0.0, 1.0], [0.0, 1.0]])
    tags = xxhash_mod.hash_feature_matrix(zeros)
    _require(
        int(tags[0]) == int(tags[1]),
        "-0.0 and 0.0 rows hash to different tags after quantization",
    )
    return "idempotent, -0.0-normalized, decimals=None contract holds"


# ----------------------------------------------------------------------
# Pair 7: flat query loop vs. staged serving pipeline
# ----------------------------------------------------------------------
def _mutate_shard_bounds():
    from ..search import executor as executor_mod

    original = executor_mod.shard_bounds

    def drop_last_shard(database_size, num_shards):
        bounds = original(database_size, num_shards)
        return bounds[:-1] if len(bounds) > 1 else bounds

    return _patched(executor_mod, "shard_bounds", drop_last_shard)


def _mutate_merge_order():
    from ..search import results as results_mod

    original = results_mod.merge_topk

    def skip_best(partials, top_k):
        merged = original(partials, top_k + 1)
        return merged[1:] if len(merged) > 1 else merged

    return _patched(results_mod, "merge_topk", skip_best)


def _mutate_request_signatures():
    from ..search import scheduler as scheduler_mod

    return _patched(
        scheduler_mod, "graph_signature", lambda graph: b"everything-collides"
    )


def _mutate_candidate_signatures():
    from ..search import executor as executor_mod

    return _patched(
        executor_mod, "graph_signature", lambda graph: b"everything-collides"
    )


def _mutate_stale_snapshot():
    from ..search import executor as executor_mod

    original = executor_mod.ShardedExecutor._publish

    def first_snapshot_only(self):
        if self._snapshot is not None:
            return self._snapshot[-1]
        return original(self)

    return _patched(
        executor_mod.ShardedExecutor, "_publish", first_snapshot_only
    )


@register_check(
    "search.serve_vs_direct",
    kind="differential",
    pair=(
        "repro.search.index.SimilaritySearchIndex._query_flat",
        "repro.search.pipeline.ServingPipeline.serve",
    ),
    mutators={
        "executor_drops_last_shard": _mutate_shard_bounds,
        "merge_skips_best_result": _mutate_merge_order,
        "scheduler_collides_all_requests": _mutate_request_signatures,
        "executor_collides_all_candidates": _mutate_candidate_signatures,
        "workers_score_stale_snapshot": _mutate_stale_snapshot,
    },
)
def check_serve_vs_direct(context: CheckContext):
    """The staged serving pipeline returns exactly the flat rankings.

    The pipeline reshapes execution four ways — request dedup in the
    scheduler, database-wide candidate dedup, database sharding, and a
    k-way top-k merge — and every one of them must be invisible in the
    results: same indices, bit-identical scores, ties broken by
    ascending database index. The request stream contains duplicate
    queries (dedup sharing), the database contains duplicate and
    empty-graph entries (candidate broadcast, degenerate shapes), and
    shards deliberately don't divide the database evenly. A pool leg
    serves the stream on the worker pool (``workers=2``, clamped to the
    host's cores) while the database grows between rounds, so it
    crosses a snapshot republish.
    """
    from ..graphs.datasets import generate_graph
    from ..graphs.graph import Graph
    from ..graphs.pairs import substitute_edges
    from ..models import build_model
    from ..search import index as index_mod
    from ..search.scheduler import SchedulingPolicy

    rng = np.random.default_rng(7)
    base = [generate_graph("AIDS", rng) for _ in range(6)]
    feature_dim = base[0].feature_dim
    database = (
        base
        + base[:2]  # exact duplicate candidates
        + [Graph(0, [], np.zeros((0, feature_dim))), base[0]]
    )
    model = build_model("GMN-Li", input_dim=feature_dim, seed=0)
    index = index_mod.SimilaritySearchIndex(model)
    index.add_many(database)

    distinct = [base[0], substitute_edges(base[1], 2, rng), base[3]]
    stream = [distinct[0], distinct[1], distinct[0], distinct[2], distinct[0]]
    top_k = 4
    # The flat reference ignores scheduling, so compute it once per
    # distinct query and reuse across policies.
    flat = {id(graph): index._query_flat(graph, top_k) for graph in distinct}

    policies = (
        tuple(SchedulingPolicy)
        if not context.quick
        else (SchedulingPolicy.FIFO, SchedulingPolicy.SIZE_BUCKETED)
    )
    compared = 0
    for policy in policies:
        pipeline = index.pipeline(
            policy=policy, max_batch_queries=2, num_shards=3, workers=1
        )
        responses = pipeline.serve(stream, top_k=top_k)
        for graph, response in zip(stream, responses):
            _require(
                response is not None and response.ok,
                f"[{policy.value}] request was not served: {response}",
            )
            served = list(response.results)
            expected = flat[id(graph)]
            _require(
                served == expected,
                f"[{policy.value}] served top-k diverges from the flat "
                f"path: {served} != {expected}",
            )
            compared += 1

    pool_index = index_mod.SimilaritySearchIndex(model)
    pool_index.add_many(database)
    pipeline = pool_index.pipeline(
        max_batch_queries=2, num_shards=3, workers=2
    )
    growth = [substitute_edges(base[4], 1, rng), generate_graph("AIDS", rng)]
    for round_index in range(len(growth) + 1):
        try:
            responses = pipeline.serve(stream, top_k=top_k)
        except Exception as exc:  # the flat path serves this stream
            raise CheckFailure(
                f"[pool round {round_index}] serving raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        for graph, response in zip(stream, responses):
            _require(
                response is not None and response.ok,
                f"[pool round {round_index}] request was not served: "
                f"{response}",
            )
            expected = pool_index._query_flat(graph, top_k)
            _require(
                list(response.results) == expected,
                f"[pool round {round_index}] served top-k diverges from "
                f"the flat path: {list(response.results)} != {expected}",
            )
            compared += 1
        if round_index < len(growth):
            pool_index.add(growth[round_index])

    # Deadline shedding is part of the response contract: with an
    # injected clock, an expired request must come back empty and
    # marked, never half-served.
    clock_now = [0.0]
    pipeline = index.pipeline(clock=lambda: clock_now[0])
    expired_request = pipeline.submit(distinct[0], top_k, timeout_seconds=1.0)
    live_request = pipeline.submit(distinct[2], top_k)
    clock_now[0] = 5.0
    responses = {
        response.request_id: response
        for response in pipeline.run_until_drained()
    }
    expired = responses[expired_request.request_id]
    _require(
        expired.status == "expired" and not expired.results,
        f"expired request not shed cleanly: {expired}",
    )
    served = responses[live_request.request_id]
    _require(
        list(served.results) == flat[id(distinct[2])],
        "live request served wrong results alongside an expired one",
    )
    return (
        f"{compared} served requests ({len(policies)} policies and a "
        "growing pool leg) bit-identical to the flat path; deadline "
        "shedding clean"
    )


# ----------------------------------------------------------------------
# Pair 8: sketch-gated candidate retrieval vs. flat scoring
# ----------------------------------------------------------------------
def _mutate_retriever_drop_first():
    from ..search import sketch as sketch_mod

    original = sketch_mod.CandidateRetriever.retrieve_batch

    def drop_first(self, queries):
        candidates = original(self, queries)
        return candidates[1:] if len(candidates) > 1 else candidates

    return _patched(
        sketch_mod.CandidateRetriever, "retrieve_batch", drop_first
    )


def _mutate_recall_floor_off():
    from ..search import sketch as sketch_mod

    def no_pruning(self, top_k, database_size):
        return database_size

    return _patched(sketch_mod.SketchConfig, "candidate_floor", no_pruning)


@register_check(
    "search.sketch_vs_flat",
    kind="differential",
    pair=(
        "repro.search.index.SimilaritySearchIndex._query_flat",
        "repro.search.sketch.CandidateRetriever",
    ),
    mutators={
        "retriever_drops_first_candidate": _mutate_retriever_drop_first,
        "retriever_ignores_recall_floor": _mutate_recall_floor_off,
    },
)
def check_sketch_vs_flat(context: CheckContext):
    """Sketch retrieval returns the flat top-k while scoring fewer candidates.

    Two sides of the contract, both gated: (1) every served ranking
    under ``retrieval="sketch"`` is bit-identical to the flat reference
    (same indices, same scores, ties by ascending database index) on a
    database mixing clones, empty graphs, and bit-identical-NaN
    features; (2) retrieval actually prunes — the total candidate count
    stays strictly below ``queries x database`` (the sublinearity the
    index exists for). The first mutator corrupts the candidate set,
    the second disables pruning; each must trip one side.
    """
    from ..graphs.datasets import generate_graph
    from ..graphs.graph import Graph
    from ..graphs.pairs import substitute_edges
    from ..models import build_model
    from ..search import index as index_mod
    from ..search.sketch import SketchConfig

    rng = np.random.default_rng(11)
    base = [generate_graph("AIDS", rng) for _ in range(6)]
    feature_dim = base[0].feature_dim
    empty = Graph(0, [], np.zeros((0, feature_dim)))
    nan_graph = Graph(2, [(0, 1)], np.full((2, feature_dim), np.nan))
    database = base + base[:2] + [empty, base[0], nan_graph]
    model = build_model("GMN-Li", input_dim=feature_dim, seed=0)
    index = index_mod.SimilaritySearchIndex(model)
    index.add_many(database)

    queries = [
        base[0],
        substitute_edges(base[1], 2, rng),
        base[3],
        empty,
        nan_graph,
    ]
    top_k = 4
    flat = [index._query_flat(graph, top_k) for graph in queries]

    config = SketchConfig(min_candidates=top_k, recall_floor=0.75)
    pipeline = index.pipeline(
        retrieval="sketch",
        sketch_config=config,
        max_batch_queries=2,
        num_shards=3,
        workers=1,
    )
    responses = pipeline.serve(queries, top_k=top_k)
    for position, (expected, response) in enumerate(zip(flat, responses)):
        _require(
            response is not None and response.ok,
            f"sketch-gated request {position} was not served: {response}",
        )
        served = list(response.results)
        _require(
            served == expected,
            f"sketch-gated top-k diverges from the flat path for query "
            f"{position}: {served} != {expected}",
        )
    retriever = pipeline.retriever
    scanned = len(queries) * len(database)
    _require(
        0 < retriever.candidates_retrieved < scanned,
        "sketch retrieval did not prune: "
        f"{retriever.candidates_retrieved} candidates retrieved for "
        f"{len(queries)} queries over {len(database)} graphs "
        f"(flat would scan {scanned})",
    )

    # Incremental maintenance: grow the database after serving and the
    # retriever must cover the new graphs (exact clone of the addition
    # must surface at its new index; sketch stays flat-identical).
    fresh = generate_graph("AIDS", rng)
    new_id = index.add(fresh)
    pipeline = index.pipeline(
        retrieval="sketch", sketch_config=config, workers=1
    )
    grown = pipeline.serve([fresh], top_k=top_k)[0]
    _require(
        grown is not None
        and list(grown.results) == index._query_flat(fresh, top_k),
        "sketch retrieval diverges from flat after growing the database",
    )
    _require(
        any(result.index == new_id for result in grown.results),
        f"freshly added graph {new_id} missing from its own top-k",
    )

    compared = len(queries) + 1
    if not context.quick:
        # Randomized tier: seeded ER databases and member/perturbed
        # queries, same bit-identical expectation.
        for sweep_seed in range(3):
            sweep_rng = np.random.default_rng(100 + sweep_seed)
            pool = [
                pair.target for pair in random_pairs(sweep_seed, count=6)
            ] + [pair.query for pair in random_pairs(sweep_seed + 50, count=6)]
            sweep_index = index_mod.SimilaritySearchIndex(
                build_model("GMN-Li", input_dim=pool[0].feature_dim, seed=0)
            )
            sweep_index.add_many(pool)
            sweep_queries = [
                pool[0],
                substitute_edges(pool[1], 1, sweep_rng),
                pool[len(pool) // 2],
            ]
            sweep_flat = [
                sweep_index._query_flat(graph, 3) for graph in sweep_queries
            ]
            # ER pools carry near-uniform features, so the EMF token
            # layer degenerates and MinHash agreement leans on the WL
            # layers alone — a higher floor buys the agreement back
            # while still pruning (the sweep scores 99 of 108 pairs).
            sweep_config = SketchConfig(
                min_candidates=config.min_candidates,
                recall_floor=0.85,
            )
            sweep_pipeline = sweep_index.pipeline(
                retrieval="sketch", sketch_config=sweep_config, workers=1
            )
            for expected, response in zip(
                sweep_flat, sweep_pipeline.serve(sweep_queries, top_k=3)
            ):
                _require(
                    response is not None
                    and list(response.results) == expected,
                    f"sketch diverges from flat on ER sweep seed "
                    f"{sweep_seed}",
                )
                compared += 1

    return (
        f"{compared} sketch-gated rankings bit-identical to flat; "
        f"{retriever.candidates_retrieved}/{scanned} candidates scored"
    )


# ----------------------------------------------------------------------
# Pair 9: segment-batched GMN-Li forward vs. batches of one
# ----------------------------------------------------------------------
def _mutate_single_row_gemm():
    from ..models import gmn_li as gmn_li_mod

    def stacked_only(layer, rows, single_rows):
        return layer.forward(rows)

    return _patched(gmn_li_mod, "_segment_forward", stacked_only)


def _mutate_scatter_reduceat():
    from ..models import gmn_li as gmn_li_mod

    def reduceat_scatter(num_rows, ranks, messages):
        summed = np.zeros((num_rows, messages.shape[1]))
        if not ranks:
            return summed
        dst = np.empty(len(messages), dtype=np.int64)
        for edges, destinations in ranks:
            dst[edges] = destinations
        firsts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        summed[dst[firsts]] = np.add.reduceat(messages, firsts, axis=0)
        return summed

    return _patched(gmn_li_mod, "_scatter_sum", reduceat_scatter)


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal NaN positions and bit-identical values everywhere else."""
    left, right = np.asarray(left), np.asarray(right)
    if left.shape != right.shape:
        return False
    nan = np.isnan(left)
    return bool(
        np.array_equal(nan, np.isnan(right))
        and left[~nan].tobytes() == right[~nan].tobytes()
    )


def _batched_vs_pair_workloads(quick: bool):
    """``(label, model, pairs)`` mixed batches for the batched forward."""
    from ..graphs.datasets import DATASET_NAMES, generate_graph, load_dataset
    from ..graphs.graph import Graph
    from ..graphs.pairs import GraphPair
    from ..models import build_model

    rng = np.random.default_rng(11)
    aids = [generate_graph("AIDS", rng) for _ in range(7)]
    dim = aids[0].feature_dim

    def features(graph, value):
        poisoned = graph.node_features.copy()
        poisoned[graph.num_nodes // 2, 0] = value
        return graph.with_features(poisoned)

    empty = Graph(0, [], np.zeros((0, dim)))
    one_node = Graph(1, [], rng.normal(size=(1, dim)))
    one_edge = Graph(2, [(0, 1)], rng.normal(size=(2, dim)))
    edgeless = Graph(4, [], rng.normal(size=(4, dim)))
    query = aids[0]
    # Duplicates repeat pair shapes, so attention groups hold several
    # pairs; the degenerate pairs stack a one-row segment (encoder, or
    # edge MLP) alone, where numpy takes the one-row gemv path.
    candidates = aids[1:] + aids[1:3] + [
        features(aids[3], np.nan),
        features(aids[4], np.inf),
        empty,
        one_node,
        one_edge,
        edgeless,
    ]
    small = [GraphPair(candidate, query) for candidate in candidates] + [
        GraphPair(query, empty),
        GraphPair(one_node, empty),
        GraphPair(one_edge, edgeless),
        GraphPair(empty, empty),
        GraphPair(aids[5], features(query, np.nan)),
        GraphPair(one_node, one_node),
    ]
    # One RD-B pair has more stacked edge rows than the batch budget,
    # so it splits a batch of one-feature pairs and runs alone.
    wide = [pair for _, pair in adversarial_pairs()]
    wide[4:4] = load_dataset("RD-B", seed=0, num_pairs=1)
    wide += load_dataset("COLLAB", seed=0, num_pairs=2)
    if not quick:
        for name in DATASET_NAMES:
            if name != "AIDS":
                wide += load_dataset(name, seed=1, num_pairs=2)
    return [
        ("AIDS", build_model("GMN-Li", input_dim=dim, seed=0), small),
        (
            "AIDS/emf",
            build_model("GMN-Li", input_dim=dim, seed=0, use_emf=True),
            small,
        ),
        ("one-feature", build_model("GMN-Li", input_dim=1, seed=0), wide),
    ]


@register_check(
    "models.batched_vs_pair",
    kind="differential",
    pair=(
        "repro.models.gmn_li.GMNLi.forward_pair",
        "repro.models.gmn_li.GMNLi.score_pairs",
    ),
    mutators={
        "single_row_segments_use_gemm": _mutate_single_row_gemm,
        "scatter_uses_reduceat": _mutate_scatter_reduceat,
    },
)
def check_batched_vs_pair(context: CheckContext):
    """GMN-Li's segment-batched forward equals batches of one, bit for bit.

    Two legs. (1) Whole forward: each mixed batch is scored in one
    ``score_pairs`` call and pair by pair (``score_pairs`` on a batch
    of one, and the traced ``forward_pair``); scores and head features
    must be identical, NaN positions included. The batches hold empty
    sides, one-node, one-edge and edgeless graphs, NaN and Inf
    features, repeated pair shapes, and an RD-B pair above the row
    budget. (2) Stacked steps: over the same graphs, the stacked MLP
    and the edge scatter must equal one ``forward`` per segment and
    ``np.add.at`` per graph, the per-pair definitions the batched
    forward replaces. Bit-identity rests on the BLAS build (a GEMM's
    rows must not depend on its row count), so this check, not the
    argument, is the guarantee on a new BLAS or thread count.
    """
    from ..models import gmn_li as gmn_li_mod

    workloads = _batched_vs_pair_workloads(context.quick)
    compared = 0
    grouped = False
    # NaN and Inf features are inputs here, not faults.
    with np.errstate(invalid="ignore", over="ignore"):
        for label, model, pairs in workloads:
            shapes = [(p.target.num_nodes, p.query.num_nodes) for p in pairs]
            grouped |= len(set(shapes)) < len(shapes)
            batched = model.score_pairs(pairs)
            _require(
                len(batched) == len(pairs),
                f"[{label}] {len(batched)} outputs for {len(pairs)} pairs",
            )
            for index, (pair, (score, head)) in enumerate(zip(pairs, batched)):
                (alone_score, alone_head), = model.score_pairs([pair])
                trace = model.forward_pair(pair)
                for name, other_score, other_head in (
                    ("batch of one", alone_score, alone_head),
                    ("forward_pair", trace.score, trace.head_features),
                ):
                    _require(
                        _same_bits(score, other_score)
                        and _same_bits(head, other_head),
                        f"[{label}] pair {index} ({pair}): batched output "
                        f"differs from {name}: score {score!r} vs "
                        f"{other_score!r}",
                    )
                compared += 1
    _require(grouped, "no batch repeats a pair shape")

    rng = np.random.default_rng(0)
    for label, model, pairs in workloads:
        graphs = [g for pair in pairs for g in (pair.target, pair.query)]
        mlp = model.edge_mlps[0]
        segments = [rng.normal(size=(g.num_edges, mlp.in_dim)) for g in graphs]
        _, single_rows = gmn_li_mod._segments([g.num_edges for g in graphs])
        stacked = gmn_li_mod._segment_forward(
            mlp, np.concatenate(segments), single_rows
        )
        expected = np.concatenate([mlp.forward(rows) for rows in segments])
        _require(
            _same_bits(stacked, expected),
            f"[{label}] stacked edge MLP differs from one call per segment",
        )
        starts, _ = gmn_li_mod._segments([g.num_nodes for g in graphs])
        dst = np.concatenate([g.dst + s for g, s in zip(graphs, starts)])
        messages = rng.normal(size=(len(dst), mlp.out_dim))
        scattered = gmn_li_mod._scatter_sum(
            int(starts[-1]), gmn_li_mod._in_edge_ranks(dst), messages
        )
        offset = 0
        for graph, start in zip(graphs, starts):
            alone = np.zeros((graph.num_nodes, mlp.out_dim))
            np.add.at(alone, graph.dst, messages[offset : offset + graph.num_edges])
            offset += graph.num_edges
            _require(
                _same_bits(scattered[start : start + graph.num_nodes], alone),
                f"[{label}] stacked scatter differs from np.add.at on "
                f"{graph}",
            )
    return (
        f"{compared} pairs: mixed batches bit-identical to batches of one; "
        f"stacked MLP and scatter exact on {len(workloads)} batches"
    )
