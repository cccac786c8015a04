"""The recorder for perfbench, the repository's one benchmark.

Run as ``python -m repro.perf.bench`` (add ``--quick`` for a fast
smoke-sized run). It runs ``BENCHMARK.json``'s command for every
workload the file declares, once per seed, and appends one
:class:`~repro.perf.timing.BenchReport` per workload to the run store
(``results/obs/runs/``, see :mod:`repro.obs.store`) as the series
``perfbench-<workload>``: one sample per seed of each end-to-end metric,
and the served answers' correctness as exact checks. ``repro obs
compare|trend`` gate and chart them. Each run's ``platform`` also
carries a host-speed calibration sampled before the first perfbench run
(:func:`host_calibration`, on perfbench's one BLAS thread), so runs
from different days can be told apart from code changes.

The process exits 1 when a boolean check is False: a perfbench run that
served a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs.logging import configure_logging
from ..obs.store import RunStore
from .parallel import BLAS_THREAD_VARIABLES
from .timing import BenchReport

__all__ = ["PerfbenchError", "bench_perfbench", "host_calibration", "main"]

logger = logging.getLogger("repro.perf.bench")


#: A perfbench run still going after this many seconds is a hang.
PERFBENCH_TIMEOUT_SECONDS = 300
#: perfbench run length under ``--quick``: the CI smoke length.
QUICK_RUN_SECONDS = 4
#: The benchmark declaration, at the repository root next to ``src/``.
BENCHMARK_PATH = Path(__file__).resolve().parents[3] / "BENCHMARK.json"
#: Timed calls per host-speed probe; the median is stored.
CALIBRATION_REPEATS = 21


class PerfbenchError(RuntimeError):
    """A perfbench run that gave no usable result."""


def _perfbench_run(
    command: Sequence[str],
    workload: str,
    seed: int,
    seconds: float,
    metric_names: Set[str],
) -> Tuple[bool, Dict]:
    """One perfbench run: (whether it passed, its final JSON line)."""
    where = f"perfbench {workload} seed {seed}"
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    # Its own session, so a hang is killed along with its pool workers.
    with subprocess.Popen(
        argv,
        cwd=BENCHMARK_PATH.parent,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=PERFBENCH_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PerfbenchError(
                f"{where}: no result within {PERFBENCH_TIMEOUT_SECONDS} s"
            ) from None
    stderr = err.strip().splitlines()[-1:] or ["(no stderr)"]
    if proc.returncode not in (0, 1):
        raise PerfbenchError(f"{where}: exit {proc.returncode}: {stderr[0]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise PerfbenchError(
            f"{where}: last line is not JSON (exit {proc.returncode}): "
            f"{stderr[0]}"
        ) from None
    metrics = result.get("metrics") if isinstance(result, dict) else None
    names = set(metrics) if isinstance(metrics, dict) else set()
    if names != metric_names:
        raise PerfbenchError(
            f"{where}: metrics {sorted(names)} differ from BENCHMARK.json's "
            f"end_to_end {sorted(metric_names)}"
        )
    return proc.returncode == 0 and result.get("correct") is True, result


def _median_seconds(probe: Callable[[], object]) -> float:
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _python_loop() -> int:
    total = 0
    for value in range(100_000):
        total += value * value
    return total


def host_calibration() -> Dict[str, float]:
    """Median seconds of two fixed probes of this host's speed.

    ``python_loop_s`` times a pure-Python loop (the interpreter) and
    ``gemm_256_s`` one 256x256 float64 matrix product (the BLAS). A
    ratio between two runs' probes says how much faster or slower their
    hosts ran; ``repro obs compare`` prints it and normalises nothing.
    """
    rng = np.random.default_rng(0)
    left, right = rng.standard_normal((2, 256, 256))
    return {
        "python_loop_s": _median_seconds(_python_loop),
        "gemm_256_s": _median_seconds(lambda: left @ right),
    }


def _calibrate_like_perfbench() -> Dict[str, float]:
    """:func:`host_calibration` in a fresh interpreter on one BLAS thread.

    perfbench pins one BLAS thread; a GEMM probe on more threads than
    that times the host's thread contention instead of its speed.
    """
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    source = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    probe = (
        "import json; from repro.perf.bench import host_calibration; "
        "print(json.dumps(host_calibration()))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=PERFBENCH_TIMEOUT_SECONDS,
    )
    return json.loads(completed.stdout)


def bench_perfbench(quick: bool = False, repeats: int = 3) -> List[BenchReport]:
    """perfbench's end-to-end metrics: one report per workload.

    Runs ``BENCHMARK.json``'s own command once per workload and seed
    ``0..repeats-1``, at the file's ``run_seconds`` (or
    :data:`QUICK_RUN_SECONDS`). Each seed is one sample of each
    end-to-end metric except ``agree_frac``; the config carries
    every sampled metric's ``better`` and ``bound`` from the file, which
    is where the gate reads them. ``correct`` (every seed passed) and
    ``agree_frac`` (the lowest seed's) are exact checks. Every report
    carries the :func:`host_calibration` taken before the first run.
    """
    if not BENCHMARK_PATH.is_file():
        raise PerfbenchError(
            f"{BENCHMARK_PATH} not found: perfbench runs need a source "
            "checkout with BENCHMARK.json at the repository root, next to "
            "src/"
        )
    with open(BENCHMARK_PATH) as handle:
        benchmark = json.load(handle)
    seconds = QUICK_RUN_SECONDS if quick else benchmark["run_seconds"]
    end_to_end = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    # agree_frac is a share of exact answers: an exact check, not a sample.
    sampled = [name for name in end_to_end if name != "agree_frac"]
    calibration = _calibrate_like_perfbench()
    reports = []
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        runs = []
        for seed in range(repeats):
            runs.append(
                _perfbench_run(
                    benchmark["command"], workload, seed, seconds, set(end_to_end)
                )
            )
            logger.info("perfbench %s seed %d done", workload, seed)
        report = BenchReport(
            f"perfbench-{workload}",
            config={
                "command": benchmark["command"],
                "workload": workload,
                "seeds": list(range(repeats)),
                "run_seconds": seconds,
                "metrics": {
                    name: {
                        "better": end_to_end[name]["better"],
                        "bound": end_to_end[name]["bound"],
                    }
                    for name in sampled
                },
            },
        )
        report.repeats = repeats
        report.calibration = calibration
        for name in sampled:
            samples = [result["metrics"][name]["value"] for _, result in runs]
            report.add_timing(name, statistics.median(samples), samples)
        report.checks = {
            "correct": all(passed for passed, _ in runs),
            "agree_frac": min(
                result["metrics"]["agree_frac"]["value"] for _, result in runs
            ),
            # Per-seed lists: the store keeps non-scalar checks as info.
            "attempted": [result.get("attempted") for _, result in runs],
            "failed": [result.get("failed") for _, result in runs],
        }
        reports.append(report)
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="run the perfbench workloads (appends each run to the "
        "run store)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_RUN_SECONDS} s perfbench runs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="perfbench seeds 0..N-1 (at least 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="run store to append each run to (default results/obs/runs)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    # Bench results are the command's whole point: log them at INFO.
    configure_logging(1)

    reports = bench_perfbench(quick=args.quick, repeats=args.repeats)

    # Appending happens after all runs are done, so recording costs
    # the benchmark nothing.
    store = RunStore(args.store)
    failures = 0
    for report in reports:
        run, appended = store.append(report.as_dict())
        logger.info(
            "%s run %s to %s",
            "appended" if appended else "already recorded",
            run.entry_id,
            store.path_for(run.series),
        )
        for label, value in report.checks.items():
            logger.info("  check %s: %s", label, value)
            # A False check is a perfbench run that served a wrong
            # answer; it fails the run so CI's bench smoke gates on it.
            if value is False:
                failures += 1
    if failures:
        logger.error("%d check(s) failed", failures)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
