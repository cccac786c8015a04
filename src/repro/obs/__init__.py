"""Observability: metrics registry, span tracing, RunReport artifacts.

The counted quantities behind CEGMA's claims — duplicate-node skip
rates (Fig. 18), DRAM accesses (Fig. 17), window revisits minimized by
AOE — are emitted as structured telemetry while the simulator, the EMF,
and the CGC scheduler run, instead of existing only inside the figure
scripts.

Three cooperating pieces:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms; free when disabled, mergeable across worker
  processes.
- :mod:`repro.obs.tracing` — hierarchical :func:`span` tracing exported
  as Chrome trace-event JSON (loadable in Perfetto).
- :mod:`repro.obs.report` — the schema-versioned :class:`RunReport`
  artifact combining metrics, spans, and
  :class:`~repro.perf.timing.StageTimer` data under ``results/obs/``.

On top of those, the **consumption layer** closes the loop — a report
is only useful if something notices when it changes:

- :mod:`repro.obs.store` — the one append-only store of runs under
  ``results/obs/runs/``: every RunReport (keyed by RunSpec) and every
  ``repro bench`` report (keyed by bench name) is one provenance-stamped
  JSONL entry, classified once into exact values, environmental values
  and timing samples.
- :mod:`repro.obs.analytics` — the gate over that store
  (``repro obs compare``: exact values must match, timings get a
  median ± k·MAD decision), changepoint-annotated trends
  (``repro obs trend``), and the per-stage serving means that
  ``repro obs show`` prints.
- :mod:`repro.obs.provenance` — stamps every written artifact with
  RunSpec + git SHA + timestamp + metrics digest
  (``repro obs show FILE`` checks it).
- :mod:`repro.obs.profiling` — cProfile harness stages into collapsed
  stacks for speedscope/flamegraph tools.

The **request-scoped layer** serves the long-lived serving pipeline,
where run-scoped aggregates are blind:

- :mod:`repro.obs.context` — :class:`RequestContext` carried through
  every pipeline stage (and across the shm worker boundary) plus the
  :class:`RequestTracker` of per-request stage spans, whose summed
  top-level budgets equal the measured request latency.
- :mod:`repro.obs.timeseries` — :class:`TimeseriesRecorder` windowed
  snapshots: counter rates and per-window histogram p50/p99.
- :mod:`repro.obs.exemplars` — :class:`ExemplarBuffer` retaining the
  span trees of the K slowest and all deadline-expired requests.
- :mod:`repro.obs.export` — Prometheus-style text exposition and the
  window renderer behind ``repro obs show``.

Plus :func:`~repro.obs.logging.configure_logging` for the ``repro.*``
stdlib-logging hierarchy used by the library in place of ``print``.
"""

from .analytics import compare, render_trend, trend_report
from .context import render_tree
from .export import read_windows, render_window, write_exposition
from .metrics import LATENCY_BUCKETS, get_metrics, metrics_enabled
from .provenance import read_stamp, validate_stamp
from .report import RunReport, validate_report
from .store import RunStore, ingest
from .tracing import span, tracing_enabled

__all__ = [
    "LATENCY_BUCKETS",
    "RunReport",
    "RunStore",
    "compare",
    "get_metrics",
    "ingest",
    "metrics_enabled",
    "read_stamp",
    "read_windows",
    "render_tree",
    "render_trend",
    "render_window",
    "span",
    "tracing_enabled",
    "trend_report",
    "validate_report",
    "validate_stamp",
    "write_exposition",
]
