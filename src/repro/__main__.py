"""Command-line interface.

Subcommands::

    python -m repro simulate --model GMN-Li --dataset RD-5K \
        --platforms CEGMA AWB-GCN --pairs 8
    python -m repro simulate --model GraphSim --dataset RD-B \
        --platforms "CEGMA@bandwidth_gbps=512" CEGMA
    python -m repro profile --model GraphSim --dataset AIDS \
        --pairs 16 --output traces.npz
    python -m repro replay --input traces.npz --platforms CEGMA HyGCN
    python -m repro platforms
    python -m repro serve --quick --metrics --json-out serve.json
    python -m repro serve --queries 64 --database 128 \
        --policy deadline --timeout 2.0
    python -m repro serve --quick --request-trace \
        --window-seconds 0.25 --expo serve.prom --window-log windows.jsonl
    python -m repro obs show windows.jsonl --prefix search.serve.
    python -m repro experiments fig16 [--full] [--jobs N]
    python -m repro bench [--quick] [--repeats N] [--store DIR]
    python -m repro simulate --quick --model GMN-Li --dataset AIDS \
        --metrics --trace trace.json
    python -m repro obs show results/obs/..._report.json
    python -m repro obs record results/obs/..._report.json [--store DIR]
    python -m repro obs compare [results/obs/..._report.json] [--json-out FILE]
    python -m repro obs trend [--json-out FILE]
    python -m repro obs show results/experiments.json
    python -m repro validate [--quick] [--only NAME] [--list] [--smoke]

``profile`` + ``replay`` implement the paper's trace-file methodology:
profile a workload once, then simulate any platform from the file.
``--platforms`` accepts registry spec strings — a registered name plus
optional ``@key=value`` overrides (``repro platforms`` lists both).

``--metrics`` / ``--trace`` turn on the :mod:`repro.obs` layer for one
run: counters and spans recorded by the simulator, EMF, and CGC are
written as a schema-versioned RunReport under ``results/obs/`` and a
Perfetto-loadable Chrome trace. ``repro obs`` has one verb per
question. ``obs show PATH`` says what happened inside one run: it
schema-checks and renders a RunReport (stage means, windows, exemplar
span trees), replays a window log, or validates the provenance stamp of
an artifact or of every run in a store directory. RunReports and
``repro bench`` runs share one append-only run store
(``results/obs/runs/``): ``obs record`` appends, ``obs compare`` gates
(exact values exactly, timings statistically) and ``obs trend`` renders
changepoint-annotated trends. To compare two reports, record the old
one into a scratch store and ``obs compare`` the new one against it.
``serve --request-trace`` joins every response to a per-stage span tree
with SLO budget attribution and tail exemplars; ``--window-seconds``
adds windowed rates/quantiles that ``obs show`` replays from a
RunReport or ``--window-log`` JSONL file, and ``--expo`` writes a
Prometheus-style text exposition. ``--profile`` (on ``simulate`` and
``experiments``) cProfiles the run into collapsed stacks loadable in
speedscope or flamegraph tooling.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.metrics import ResultTable
from .core.api import simulate_traces
from .graphs.datasets import DATASET_NAMES, load_dataset
from .models import MODEL_NAMES
from .platforms import DEFAULT_PLATFORMS, REGISTRY
from .sim.detailed import DetailedSimulator
from .trace.io import load_traces, save_traces

__all__ = ["main"]


def _check_platforms(parser: argparse.ArgumentParser, platforms) -> None:
    """Validate every platform spec up front with a helpful error."""
    for spec in platforms:
        try:
            REGISTRY.parse(spec)
        except (KeyError, ValueError) as exc:
            parser.error(
                f"invalid platform spec {spec!r}: {exc}\n"
                f"known platforms: {', '.join(REGISTRY.names())} "
                "(append @key=value,... to override config fields; "
                "run 'python -m repro platforms' for the field list)"
            )


def _print_results(results: dict) -> None:
    table = ResultTable(
        ["platform", "latency/pair (us)", "pairs/s", "DRAM/pair (KB)", "energy/pair (uJ)"]
    )
    for name, result in results.items():
        table.add_row(
            name,
            result.latency_per_pair * 1e6,
            result.throughput_pairs_per_second,
            result.dram_bytes / max(1, result.num_pairs) / 1024,
            result.energy_joules / max(1, result.num_pairs) * 1e6,
        )
    print(table.render())


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODEL_NAMES, required=True)
    parser.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)


def _profile(args) -> List:
    from .core.api import _profile_spec
    from .platforms import RunSpec

    return _profile_spec(
        RunSpec.make(args.model, args.dataset, args.pairs, args.batch, args.seed)
    )


def _cmd_simulate(args) -> int:
    from contextlib import ExitStack

    if args.quick:
        from .platforms.runspec import QUICK_BATCH, QUICK_PAIRS

        args.pairs = QUICK_PAIRS
        args.batch = QUICK_BATCH
    if not (args.metrics or args.trace):
        return _run_simulate(args, timer=None)

    from .obs import RunReport, metrics_enabled, tracing_enabled
    from .perf.timing import StageTimer
    from .platforms import RunSpec

    timer = StageTimer()
    with ExitStack() as stack:
        registry = stack.enter_context(metrics_enabled())
        tracer = (
            stack.enter_context(tracing_enabled()) if args.trace else None
        )
        with timer.stage("simulate_cli"):
            status = _run_simulate(args, timer=timer)
        if status != 0:  # pragma: no cover - argparse exits before this
            return status
    if tracer is not None:
        trace_path = tracer.write(args.trace)
        print(f"wrote Chrome trace ({len(tracer)} events) to {trace_path}")
    spec = RunSpec.make(
        args.model, args.dataset, args.pairs, args.batch, args.seed
    )
    report = RunReport(
        spec=spec, metrics=registry, tracer=tracer, timer=timer
    )
    report_path = report.write()
    print(f"wrote RunReport to {report_path}")
    if args.metrics:
        print()
        print(report.render())
    return 0


def _run_simulate(args, timer) -> int:
    from .perf.timing import time_stage

    if args.jobs not in (None, 1):
        from .core.api import simulate_workload

        results = simulate_workload(
            args.model,
            args.dataset,
            args.platforms,
            num_pairs=args.pairs,
            batch_size=args.batch,
            seed=args.seed,
            jobs=args.jobs,
        )
        print(
            f"{args.model} on {args.dataset} "
            f"({args.pairs} pairs, batch {args.batch}) [{args.jobs} jobs]"
        )
        _print_results(results)
        if getattr(args, "save", False):
            _save_artifact(args, results)
        return 0
    with time_stage(timer, "profile"):
        traces = _profile(args)
    with time_stage(timer, "simulate"):
        if args.detailed:
            results = {}
            for platform in args.platforms:
                simulator = REGISTRY.build(platform)
                if hasattr(simulator, "config"):
                    simulator = DetailedSimulator(simulator.config)
                results[platform] = simulator.simulate_batches(traces)
        else:
            results = simulate_traces(traces, args.platforms)
    if args.config:
        import json

        from .sim.config import HardwareConfig
        from .sim.engine import AcceleratorSimulator

        with open(args.config) as handle:
            custom = HardwareConfig.from_dict(json.load(handle))
        simulator_cls = DetailedSimulator if args.detailed else AcceleratorSimulator
        results[custom.name] = simulator_cls(custom).simulate_batches(traces)
    print(
        f"{args.model} on {args.dataset} "
        f"({args.pairs} pairs, batch {args.batch})"
        + (" [detailed mode]" if args.detailed else "")
    )
    _print_results(results)
    if getattr(args, "save", False):
        _save_artifact(args, results)
    return 0


def _save_artifact(args, results) -> None:
    from .platforms import RunSpec, default_artifact_path, save_results

    spec = RunSpec.make(
        args.model, args.dataset, args.pairs, args.batch, args.seed
    )
    path = default_artifact_path(spec)
    save_results(results, path, spec=spec)
    print(f"wrote results artifact to {path}")


def _cmd_profile(args) -> int:
    traces = _profile(args)
    save_traces(traces, args.output)
    total_pairs = sum(t.batch.batch_size for t in traces)
    print(f"wrote {len(traces)} batch traces ({total_pairs} pairs) to {args.output}")
    return 0


def _cmd_replay(args) -> int:
    try:
        traces = load_traces(args.input)
    except ValueError as exc:
        print(exc)
        return 1
    results = simulate_traces(traces, args.platforms)
    print(f"replayed {args.input}")
    _print_results(results)
    return 0


def _cmd_describe(args) -> int:
    from .trace.summary import workload_summary

    if args.input:
        try:
            traces = load_traces(args.input)
        except ValueError as exc:
            print(exc)
            return 1
    else:
        traces = _profile(args)
    summary = workload_summary(traces)
    table = ResultTable(["property", "value"])
    for key, value in summary.items():
        table.add_row(key, value)
    print(table.render())
    return 0


def _cmd_render_schedule(args) -> int:
    from .cgc import SCHEDULERS
    from .cgc.render import render_step_matrix, schedule_summary, schedule_table

    pairs = load_dataset(args.dataset, seed=args.seed, num_pairs=1)
    pair = pairs[0]
    schedule = SCHEDULERS[args.scheme](pair, capacity=args.capacity)
    print(schedule_summary(schedule))
    print()
    print(schedule_table(schedule, pair, max_steps=args.max_steps))
    if args.matrix:
        print()
        print(render_step_matrix(schedule, pair))
    return 0


def _cmd_experiments(args) -> int:
    from .experiments.registry import EXPERIMENTS, run_experiment

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if getattr(args, "jobs", None) not in (None, 1):
        # Pre-warm the shared (model, dataset) workloads across worker
        # processes; the experiment runners then hit the in-process memo.
        from .experiments.common import (
            DATASET_ORDER,
            MODEL_ORDER,
            prewarm_workloads,
        )

        # Per-dataset sizes: quick mode is uniform, full mode follows the
        # Table II test-set size of each dataset.
        prewarm_workloads(
            [(m, d) for m in MODEL_ORDER for d in DATASET_ORDER],
            DEFAULT_PLATFORMS,
            seed=args.seed,
            workers=args.jobs,
            quick=not args.full,
        )
    collected = {}
    for name in names:
        result = run_experiment(name, quick=not args.full, seed=args.seed)
        print(result.render())
        if getattr(args, "plot", False):
            from .experiments.plots import render_plots

            chart = render_plots(result)
            if chart:
                print()
                print(chart)
        print()
        # write_experiment_data JSON-sanitizes (numpy scalars/arrays)
        # at its single choke point, so raw data passes through here.
        collected[name] = {
            "description": result.description,
            "data": result.data,
        }
    if args.output:
        from .experiments.common import write_experiment_data

        path = write_experiment_data(
            collected, args.output, quick=not args.full, seed=args.seed
        )
        print(f"wrote raw data for {len(collected)} experiment(s) to {path}")
    return 0


def _cmd_platforms(args) -> int:
    """List registered platforms and their spec-overridable fields."""
    table = ResultTable(["platform", "kind", "overridable fields"])
    for name in REGISTRY.names():
        entry = REGISTRY.entry(name)
        if entry.configurable:
            fields = ", ".join(REGISTRY.spec_fields(name))
            kind = "accelerator"
        else:
            fields = "-"
            kind = "fixed"
        table.add_row(name, kind, fields)
    print(table.render())
    print(
        "\nSpec strings: NAME or NAME@key=value[,key=value...], e.g. "
        '"CEGMA@bandwidth_gbps=512,num_pes=1024".'
    )
    return 0


#: Keys of a window snapshot: a one-line window log parses as one object.
_WINDOW_KEYS = {"index", "start", "end"}


def _cmd_obs_show(args) -> int:
    """What happened inside one run: render one artifact and check it.

    PATH is read as the first of these that fits:

    - a directory: a run store, every run's provenance stamp checked;
    - a RunReport: schema-checked, then rendered with its serving
      stage means, newest windows and exemplar span trees;
    - any other JSON object: its provenance stamp checked and rendered;
    - otherwise a window log (JSONL or a JSON list of snapshots).

    Exit 1 when PATH cannot be read or fails its check.
    """
    import json
    from pathlib import Path

    from .obs import read_windows
    from .obs.report import REPORT_KIND

    path = Path(args.path)
    try:
        if path.is_dir():
            return _show_store(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = None  # a JSONL window log, or not JSON at all
        if isinstance(payload, dict) and payload.get("kind") == REPORT_KIND:
            return _show_report(args, payload)
        if isinstance(payload, dict) and not _WINDOW_KEYS <= payload.keys():
            return _show_stamp(args.path, payload)
        windows = read_windows(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read {args.path}: {exc}")
        return 1
    if not windows:
        # An empty (or zero-window) log is a normal outcome of a short
        # run — e.g. `serve --window-seconds` larger than the run — not
        # an error.
        print(
            f"no windows recorded in {args.path} "
            "(run serve with --window-seconds shorter than the stream?)"
        )
        return 0
    _print_windows(windows, args)
    return 0


def _show_store(root) -> int:
    """Check the provenance stamp of every run in a run store."""
    from .obs import RunStore, validate_stamp

    store = RunStore(root)
    runs = [run for name in store.series() for run in store.read(name)]
    problems = [
        f"{run.series}/{run.entry_id}: {problem}"
        for run in runs
        for problem in validate_stamp(run.provenance)
    ]
    for problem in problems:
        print(f"INVALID: {problem}")
    if problems or not runs:
        print(f"{len(runs)} recorded run(s) under {store.root}")
        return 1
    print(f"{root}: all {len(runs)} recorded run(s) carry a valid stamp")
    return 0


def _show_stamp(path: str, payload: dict) -> int:
    """Check and render the provenance stamp of one JSON artifact."""
    from .obs import read_stamp, validate_stamp
    from .obs.provenance import render_stamp

    stamp = read_stamp(payload)
    if stamp is None:
        print(f"INVALID: {path} carries no provenance stamp")
        return 1
    problems = validate_stamp(stamp)
    for problem in problems:
        print(f"INVALID: {problem}")
    if problems:
        return 1
    print(f"{path}: valid provenance")
    print(render_stamp(stamp))
    return 0


def _show_report(args, payload: dict) -> int:
    """Schema-check a RunReport, then say which stage, which window and
    which request: stage means, newest windows, exemplar span trees."""
    from .obs import RunReport, render_tree, validate_report
    from .obs.analytics import stage_budget_means
    from .obs.timeseries import Window

    problems = validate_report(payload)
    for problem in problems:
        print(f"INVALID: {problem}")
    if problems:
        return 1
    report = RunReport.from_dict(payload)
    print(f"{args.path}: valid RunReport (schema v{payload['schema_version']})")
    print(report.render())
    means = stage_budget_means(report)
    if means:
        print("-- serving stages (mean seconds per request) --")
        for stage in sorted(means, key=means.get, reverse=True):
            print(f"{stage}: {means[stage]:.6f}s")
    if report.windows:
        print("-- windows --")
        _print_windows([Window.from_dict(w) for w in report.windows], args)
    if report.exemplars:
        print("-- exemplars (slowest first, then deadline-expired) --")
    for exemplar in report.exemplars:
        latency_ms = 1e3 * float(exemplar["latency_seconds"])
        print(f"{exemplar['status']} in {latency_ms:.3f} ms:")
        tree = exemplar.get("tree")
        if tree:
            print(render_tree(tree))
        else:
            print(f"request {exemplar['request_id']}\n  (no span tree recorded)")
    return 0


def _print_windows(windows, args) -> None:
    """The newest ``args.windows`` windows (0 = all), filtered by prefix."""
    from .obs import render_window

    shown = windows if args.windows <= 0 else windows[-args.windows :]
    skipped = len(windows) - len(shown)
    if skipped:
        print(f"... {skipped} older window(s) not shown ...")
    for window in shown:
        print(render_window(window, prefix=args.prefix or ""))


def _cmd_bench(args) -> int:
    from .perf.bench import main as bench_main

    return bench_main(args.bench_argv)


def _write_json(path: str, payload: dict, what: str) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {what} to {path}")


def _cmd_obs_record(args) -> int:
    """Append RunReport / BENCH JSON files to the run store.

    Idempotent: re-recording the same artifact is a no-op. Exit 1 when
    a file cannot be read or is not a recordable artifact.
    """
    import json

    from .obs import RunStore

    store = RunStore(args.store)
    status = 0
    for path in args.files:
        try:
            run, appended = store.record_file(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot record {path}: {exc}")
            status = 1
            continue
        verb = "recorded" if appended else "already recorded"
        print(f"{verb} {path} as {run.series}/{run.entry_id} under {store.root}")
    return status


def _cmd_obs_compare(args) -> int:
    """The one regression gate: exit 0 clean, 1 exact-value drift,
    2 timing regression or no comparable baseline.

    With FILE, that artifact is gated (not recorded) against the newest
    comparable run of its series; without, the newest run of every
    series is gated against the runs before it.
    """
    import json

    from .obs import RunStore, compare, ingest

    store = RunStore(args.store)
    if args.file:
        try:
            with open(args.file) as handle:
                candidate = ingest(json.load(handle))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot compare {args.file}: {exc}")
            return 2
        comparisons = [compare(store.read(candidate.series), candidate)]
    else:
        comparisons = [compare(store.read(name)) for name in store.series()]
    if not comparisons:
        print(f"no runs recorded under {store.root}")
        return 2
    for comparison in comparisons:
        print(comparison.render())
        print()
    if args.json_out:
        payload = {
            "schema_version": 1,
            "kind": "repro-compare-report",
            "comparisons": [c.to_dict() for c in comparisons],
        }
        _write_json(args.json_out, payload, "comparison report")
    codes = [comparison.exit_code for comparison in comparisons]
    # Exact drift must fail the gate even when another series only warns.
    return 1 if 1 in codes else max(codes)


def _cmd_obs_trend(args) -> int:
    """Each series' metrics over its runs, changepoints marked."""
    from .obs import RunStore, render_trend, trend_report

    store = RunStore(args.store)
    names = store.series()
    if not names:
        print(f"no runs recorded under {store.root}")
        return 2
    reports = []
    for name in names:
        report = trend_report(store.read(name))
        reports.append(report)
        print(render_trend(report))
        print()
    if args.json_out:
        payload = {
            "schema_version": 1,
            "kind": "repro-trend-report",
            "trends": reports,
        }
        _write_json(args.json_out, payload, "trend report")
    return 0


def _cmd_validate(args) -> int:
    """Run the differential/invariant validation checks.

    Exit codes follow ``obs compare``: 0 all pass, 1 divergences found,
    2 usage error (unknown check name).
    """
    import json

    from .obs.metrics import metrics_enabled
    from .validate import all_checks, get_check, mutation_smoke, run_checks

    if args.list:
        for check in all_checks():
            pair = f"  [{check.pair[0]} vs {check.pair[1]}]" if check.pair else ""
            print(f"{check.name:32s} {check.kind:12s} {check.description}{pair}")
        return 0
    names = args.only if args.only else None
    if names is not None:
        try:
            for name in names:
                get_check(name)
        except KeyError as exc:
            print(exc.args[0])
            return 2
    exit_status = 0
    with metrics_enabled() as registry:
        if args.smoke:
            # Mutation smoke: prove every selected check can fail.
            smoke_rows = []
            for check in [get_check(n) for n in names] if names else all_checks():
                outcomes = mutation_smoke(check.name, quick=args.quick)
                if not outcomes:
                    print(f"UNPROVEN {check.name}: no mutators registered")
                    exit_status = 1
                for mutator, tripped in outcomes.items():
                    verdict = "tripped" if tripped else "MISSED"
                    print(f"{verdict:8s} {check.name} :: {mutator}")
                    smoke_rows.append(
                        {
                            "check": check.name,
                            "mutator": mutator,
                            "tripped": tripped,
                        }
                    )
                    if not tripped:
                        exit_status = 1
            payload = {
                "schema_version": 1,
                "kind": "validate_smoke_report",
                "quick": args.quick,
                "mutations": smoke_rows,
            }
        else:
            results = run_checks(names, quick=args.quick)
            for result in results:
                print(
                    f"{result.status.upper():5s} {result.name} "
                    f"({result.duration_s:.2f}s): {result.detail}"
                )
                if not result.ok:
                    exit_status = 1
            passed = sum(1 for result in results if result.ok)
            print(f"{passed}/{len(results)} checks passed")
            payload = {
                "schema_version": 1,
                "kind": "validate_report",
                "quick": args.quick,
                "results": [result.to_dict() for result in results],
            }
        payload["counters"] = {
            name: value
            for name, value in registry.as_dict().get("counters", {}).items()
            if name.startswith("validate.")
        }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote validation report to {args.json_out}")
    return exit_status


def _cmd_serve(args) -> int:
    """Drive a synthetic query stream through the serving pipeline.

    The Section III-A workload end to end: admission queue, batch
    scheduler, sharded execution, ranking — with serving counters and
    p50/p99 latency surfaced through :mod:`repro.obs`.
    """
    import json
    from contextlib import ExitStack

    from .core.api import serve_query_stream
    from .obs import (
        RunReport,
        metrics_enabled,
        render_tree,
        tracing_enabled,
        write_exposition,
    )
    from .obs.provenance import stamp_payload
    from .perf.timing import StageTimer
    from .platforms import RunSpec

    if args.quick:
        args.queries = 8
        args.database = 16
        args.batch = 4

    window_sink = None
    window_log_handle = None
    if args.window_log:
        window_log_handle = open(args.window_log, "w")

        def window_sink(window):  # noqa: F811 - deliberate rebind
            json.dump(window.to_dict(), window_log_handle, sort_keys=True)
            window_log_handle.write("\n")
            window_log_handle.flush()

    timer = StageTimer()
    try:
        with ExitStack() as stack:
            # Metrics stay on unconditionally: the latency histogram
            # behind the p50/p99 stats lives in the registry.
            # --metrics controls whether a RunReport artifact is
            # written.
            registry = stack.enter_context(metrics_enabled())
            tracer = (
                stack.enter_context(tracing_enabled()) if args.trace else None
            )
            with timer.stage("serve_cli"):
                outcome = serve_query_stream(
                    args.model,
                    args.dataset,
                    num_queries=args.queries,
                    database_size=args.database,
                    database_unique=args.database_unique,
                    distinct_queries=args.distinct,
                    top_k=args.top_k,
                    policy=args.policy,
                    max_batch_queries=args.batch,
                    num_shards=args.shards,
                    workers=args.workers,
                    retrieval=args.retrieval,
                    max_queue_depth=args.queue_depth,
                    timeout_seconds=args.timeout,
                    seed=args.seed,
                    request_tracing=args.request_trace,
                    window_seconds=args.window_seconds,
                    on_window=window_sink,
                )
    finally:
        if window_log_handle is not None:
            window_log_handle.close()
    stats = outcome["stats"]
    config = outcome["config"]
    print(
        f"{config['model']} on {config['dataset']}: served "
        f"{int(stats['served'])}/{config['num_queries']} queries over a "
        f"{config['database_size']}-graph database "
        f"[policy={config['policy']}, retrieval={config['retrieval']}]"
    )
    table = ResultTable(["stat", "value"])
    for key in sorted(stats):
        table.add_row(key, stats[key])
    print(table.render())
    if tracer is not None:
        trace_path = tracer.write(args.trace)
        print(f"wrote Chrome trace ({len(tracer)} events) to {trace_path}")
    recorder = outcome.get("recorder")
    exemplars = outcome.get("exemplars")
    windows = list(outcome.get("windows") or [])
    exemplar_dicts = exemplars.as_dicts() if exemplars is not None else []
    if args.request_trace and exemplars is not None:
        slowest = exemplars.slowest()
        if slowest:
            worst = slowest[0]
            print(
                f"slowest request {worst.request_id}: "
                f"{worst.latency_seconds * 1e3:.3f} ms"
            )
            if worst.tree is not None:
                print(render_tree(worst.tree))
    if args.window_log and recorder is not None:
        print(
            f"wrote {len(windows)} window snapshot(s) to {args.window_log}"
        )
    if args.expo:
        window = recorder.latest() if recorder is not None else None
        write_exposition(registry, args.expo, window=window)
        print(f"wrote Prometheus exposition to {args.expo}")
    report_path = None
    spec = RunSpec(
        model=args.model,
        dataset=args.dataset,
        num_pairs=args.queries,
        batch_size=args.batch,
        seed=args.seed,
        fidelity="quick" if args.quick else "full",
    )
    if args.metrics:
        report = RunReport(
            spec=spec,
            metrics=registry,
            tracer=tracer,
            timer=timer,
            windows=windows,
            exemplars=exemplar_dicts,
        )
        report_path = report.write()
        print(f"wrote RunReport to {report_path}")
    if args.json_out:
        payload = {
            "schema_version": 1,
            "kind": "serve_report",
            "config": config,
            "stats": stats,
            "report_path": None if report_path is None else str(report_path),
        }
        stamp_payload(
            payload,
            spec=spec,
            metrics=registry.as_dict(),
            generator="repro serve",
        )
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote serve stats to {args.json_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CEGMA reproduction: simulate GMN workloads and "
        "regenerate the paper's evaluation.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging from repro.* loggers (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only log errors (overrides --verbose)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="profile a workload and simulate platforms"
    )
    _add_workload_arguments(simulate)
    simulate.add_argument(
        "--platforms",
        nargs="+",
        default=list(DEFAULT_PLATFORMS),
        metavar="SPEC",
        help="platform names or spec strings such as "
        '"CEGMA@bandwidth_gbps=512" (see: python -m repro platforms)',
    )
    simulate.add_argument(
        "--save",
        action="store_true",
        help="also write the results as a JSON artifact under results/",
    )
    simulate.add_argument(
        "--detailed",
        action="store_true",
        help="per-window-step simulation for accelerator platforms",
    )
    simulate.add_argument(
        "--config",
        help="JSON HardwareConfig file to simulate as an extra platform",
    )
    simulate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for batch-aligned chunked simulation "
        "(analytic engine only: not with --detailed or --config)",
    )
    simulate.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test workload size (overrides --pairs/--batch)",
    )
    simulate.add_argument(
        "--metrics",
        action="store_true",
        help="collect obs counters and print + save a RunReport",
    )
    simulate.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Perfetto-loadable Chrome trace of the run",
    )
    simulate.add_argument(
        "--profile",
        metavar="FILE",
        help="cProfile the run; write collapsed stacks (speedscope/"
        "flamegraph format) to FILE",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    serve = subparsers.add_parser(
        "serve",
        help="drive a synthetic query stream through the serving pipeline",
    )
    serve.add_argument("--model", choices=MODEL_NAMES, default="GMN-Li")
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="AIDS")
    serve.add_argument(
        "--queries", type=int, default=16, help="stream length"
    )
    serve.add_argument(
        "--database", type=int, default=32, help="database size (graphs)"
    )
    serve.add_argument(
        "--database-unique",
        type=int,
        default=None,
        help="distinct graphs in the database; byte-identical clones "
        "fill the rest (default: all distinct)",
    )
    serve.add_argument(
        "--distinct",
        type=int,
        default=None,
        help="distinct query graphs in the stream (repeats model hot "
        "queries; default min(queries, 8))",
    )
    serve.add_argument("--top-k", type=int, default=5)
    serve.add_argument(
        "--policy",
        choices=("fifo", "deadline", "size_bucketed"),
        default="fifo",
        help="batch scheduling policy",
    )
    serve.add_argument(
        "--retrieval",
        choices=("flat", "sketch"),
        default="flat",
        help="candidate retrieval: flat scores the whole database per "
        "batch; sketch prunes to an EMF/WL MinHash candidate set first "
        "and ranks only those candidates, so it is approximate below "
        "recall floor 1.0 (serve uses the default floor, 0.5)",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=8,
        help="max distinct queries per execution batch",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="database shards per query (default: worker count)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="executor worker processes (clamped to CPU count)",
    )
    serve.add_argument("--queue-depth", type=int, default=1024)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test stream size (8 queries, 16-graph database)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="also write a RunReport artifact with serving counters",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Perfetto-loadable Chrome trace of the run",
    )
    serve.add_argument(
        "--json-out",
        metavar="FILE",
        help="write stream config + serving stats as JSON (CI smoke)",
    )
    serve.add_argument(
        "--request-trace",
        action="store_true",
        help="per-request span trees + stage budget attribution + "
        "tail exemplars (the slowest request's tree is printed)",
    )
    serve.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="record windowed counter rates and latency quantiles on "
        "this interval (see: repro obs show)",
    )
    serve.add_argument(
        "--window-log",
        metavar="FILE",
        help="append each closed window as a JSONL line (needs "
        "--window-seconds)",
    )
    serve.add_argument(
        "--expo",
        metavar="FILE",
        help="write a Prometheus-style text exposition of the final "
        "registry (plus the latest window's quantiles)",
    )
    serve.set_defaults(handler=_cmd_serve)

    profile = subparsers.add_parser(
        "profile", help="profile a workload into a trace file"
    )
    _add_workload_arguments(profile)
    profile.add_argument("--output", required=True)
    profile.set_defaults(handler=_cmd_profile)

    replay = subparsers.add_parser(
        "replay", help="simulate platforms from a trace file"
    )
    replay.add_argument("--input", required=True)
    replay.add_argument(
        "--platforms",
        nargs="+",
        default=list(DEFAULT_PLATFORMS),
        metavar="SPEC",
        help="platform names or spec strings such as "
        '"CEGMA@bandwidth_gbps=512" (see: python -m repro platforms)',
    )
    replay.set_defaults(handler=_cmd_replay)

    platforms = subparsers.add_parser(
        "platforms",
        help="list registered platforms and their spec-string fields",
    )
    platforms.set_defaults(handler=_cmd_platforms)

    describe = subparsers.add_parser(
        "describe", help="summarize a workload (profiled or from a trace file)"
    )
    describe.add_argument("--model", choices=MODEL_NAMES)
    describe.add_argument("--dataset", choices=DATASET_NAMES)
    describe.add_argument("--pairs", type=int, default=8)
    describe.add_argument("--batch", type=int, default=8)
    describe.add_argument("--seed", type=int, default=0)
    describe.add_argument("--input", help="trace file instead of profiling")
    describe.set_defaults(handler=_cmd_describe)

    render = subparsers.add_parser(
        "render-schedule",
        help="print a window schedule's step table (Fig. 8 style)",
    )
    render.add_argument("--dataset", choices=DATASET_NAMES, default="AIDS")
    render.add_argument(
        "--scheme",
        choices=("single", "double", "joint", "coordinated"),
        default="coordinated",
    )
    render.add_argument("--capacity", type=int, default=8)
    render.add_argument("--max-steps", type=int, default=20)
    render.add_argument(
        "--matrix",
        action="store_true",
        help="also print the annotated adjacency matrix (Fig. 12 style)",
    )
    render.add_argument("--seed", type=int, default=0)
    render.set_defaults(handler=_cmd_render_schedule)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate evaluation figures/tables"
    )
    experiments.add_argument("experiment")
    experiments.add_argument("--full", action="store_true")
    experiments.add_argument("--plot", action="store_true",
                             help="render ASCII charts where available")
    experiments.add_argument(
        "--output", help="write the experiments' raw data as JSON"
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="pre-warm shared workloads across this many worker processes",
    )
    experiments.add_argument(
        "--profile",
        metavar="FILE",
        help="cProfile the harness; write collapsed stacks to FILE",
    )
    experiments.set_defaults(handler=_cmd_experiments)

    def _add_store_argument(sub_parser) -> None:
        sub_parser.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="run store root (default: results/obs/runs)",
        )

    # Every argument after `bench` goes to repro.perf.bench unchanged,
    # so its options are declared once, there.
    bench = subparsers.add_parser(
        "bench",
        add_help=False,
        help="run the perfbench workloads (each run is appended to the "
        "run store); options as python -m repro.perf.bench",
    )
    bench.set_defaults(handler=_cmd_bench)

    obs = subparsers.add_parser(
        "obs", help="show one run; record, gate and chart runs"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_show = obs_sub.add_parser(
        "show",
        help="what happened inside one run: render and check a RunReport, "
        "a window log, an artifact's provenance stamp, or every run of "
        "a store directory (exit 1 on problems)",
    )
    obs_show.add_argument("path", metavar="PATH")
    obs_show.add_argument(
        "--windows",
        type=int,
        default=5,
        metavar="N",
        help="newest windows shown (default 5; 0 = all)",
    )
    obs_show.add_argument(
        "--prefix",
        default=None,
        metavar="P",
        help="only window metrics whose name starts with P "
        "(e.g. search.serve.)",
    )
    obs_show.set_defaults(handler=_cmd_obs_show)

    obs_record = obs_sub.add_parser(
        "record",
        help="append RunReport / BENCH JSON files to the run store "
        "(idempotent; exit 1 on unreadable files)",
    )
    obs_record.add_argument("files", nargs="+", metavar="FILE")
    _add_store_argument(obs_record)
    obs_record.set_defaults(handler=_cmd_obs_record)

    obs_compare = obs_sub.add_parser(
        "compare",
        help="gate FILE (default: each series' newest run) against the "
        "store: exit 1 on exact-value drift, 2 on a timing regression "
        "or no baseline",
    )
    obs_compare.add_argument("file", nargs="?", metavar="FILE")
    _add_store_argument(obs_compare)
    obs_compare.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the comparison report as JSON",
    )
    obs_compare.set_defaults(handler=_cmd_obs_compare)

    obs_trend = obs_sub.add_parser(
        "trend",
        help="print each series' metrics over its runs with "
        "changepoints marked",
    )
    _add_store_argument(obs_trend)
    obs_trend.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the trend report as JSON",
    )
    obs_trend.set_defaults(handler=_cmd_obs_trend)

    validate = subparsers.add_parser(
        "validate",
        help="cross-check redundant implementation pairs and invariants",
    )
    validate.add_argument(
        "--quick",
        action="store_true",
        help="deterministic tier only (fixed seeds; what CI gates on) — "
        "default also runs the derandomized hypothesis drivers",
    )
    validate.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named check (repeatable; see --list)",
    )
    validate.add_argument(
        "--list",
        action="store_true",
        help="list registered checks and exit",
    )
    validate.add_argument(
        "--smoke",
        action="store_true",
        help="mutation smoke: perturb each implementation and assert "
        "the guarding check trips",
    )
    validate.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the results as a JSON report",
    )
    validate.set_defaults(handler=_cmd_validate)

    args, bench_argv = parser.parse_known_args(argv)
    if args.command == "bench":
        args.bench_argv = bench_argv
    elif bench_argv:
        parser.error(f"unrecognized arguments: {' '.join(bench_argv)}")
    from .obs.logging import configure_logging

    configure_logging(-1 if args.quiet else args.verbose)
    if getattr(args, "platforms", None):
        _check_platforms(parser, args.platforms)
    if args.command == "simulate" and args.jobs not in (None, 1) and (
        args.detailed or args.config
    ):
        simulate.error(
            "--jobs runs the chunked analytic engine over --platforms "
            "only; it cannot be combined with --detailed or --config"
        )
    profile_path = getattr(args, "profile", None)
    if profile_path:
        from .obs.profiling import profiled

        with profiled(profile_path):
            status = args.handler(args)
        print(f"wrote collapsed-stack profile to {profile_path}")
        return status
    return args.handler(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piping long output into `head`
        import os

        # Reopen stdout on /dev/null so the interpreter's shutdown
        # flush doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
