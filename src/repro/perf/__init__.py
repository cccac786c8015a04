"""Performance layer: timing and parallel fan-out.

This package holds the infrastructure that makes the reproduction run
"as fast as the hardware allows":

- :mod:`repro.perf.timing` — wall-clock stage timers and the
  machine-readable :class:`BenchReport` format.
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor`` runner that
  fans (model, dataset) workloads and graph-pair chunks across cores.
- :mod:`repro.perf.bench` — ``python -m repro.perf.bench``, which
  records every perfbench workload's end-to-end metrics in the run
  store.
"""

from .timing import BenchReport, StageTimer, time_stage
from .parallel import available_workers, parallel_simulate_workload

__all__ = [
    "BenchReport",
    "StageTimer",
    "time_stage",
    "available_workers",
    "parallel_simulate_workload",
]
