"""The benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload clone_hot --seed 0 --seconds 30 --trace 0

Prints a readable report, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Exit status: 0 when every output check passed, 1 when one
failed or the run raised, 2 when the program's source is not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clone_hot", "unique_ingest", "paper_sim")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stop_resource_tracker() -> None:
    """Stop the helper process that shared memory starts, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out",
        default=None,
        help="where a traced run writes its spans "
        "(default .perfbench_out/<workload>-seed<seed>.spans.jsonl)",
    )
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: the program's source is missing: {source}", file=sys.stderr)
        return 2
    # The reproduction workload must run cold: no on-disk trace cache.
    os.environ["REPRO_TRACE_CACHE"] = "off"
    # The matrices are tiny; BLAS threads only add contention with the
    # pool's workers and noise on a small shared host.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    from perfbench import paper, serving

    try:
        if args.workload == "paper_sim":
            outcome = paper.run(args.seed, args.seconds, bool(args.trace), ROOT)
        else:
            outcome = serving.run(
                serving.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
            )
    finally:
        _stop_resource_tracker()

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    values = dict(outcome["metrics"])
    if args.trace:
        stray = set(values) - set(units)
        # Layers a workload leaves idle report zero.
        values = {**dict.fromkeys(units, 0.0), **values}
    else:
        values["peak_rss_mb"] = _peak_rss_mb()
        stray = set(values) ^ set(units)
    if stray:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(stray)}", file=sys.stderr)
        return 1

    for line in outcome["report"]:
        print(line)
    print(f"{kind} metrics ({args.workload}, seed {args.seed}):")
    for name, unit in units.items():
        print(f"  {name:<34}{values[name]:>18.6g} {unit}")
    recorder = outcome["recorder"]
    if recorder is not None:
        path = Path(args.spans_out) if args.spans_out else (
            ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            recorder.dump(handle, workload=args.workload, seed=args.seed, seconds=args.seconds)
        print(f"spans: {len(recorder.spans)} written to {path}")
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
