"""Windowed metrics: periodic snapshots of the live registry.

The :class:`~repro.obs.metrics.MetricsRegistry` accumulates for a whole
run, which is the right artifact for batch figure reproduction but the
wrong view inside a long-lived ``repro serve``: lifetime aggregates
answer "what happened since boot", not "what is happening now". A
:class:`TimeseriesRecorder` closes that gap — it snapshots the registry
on a configurable interval (injectable clock, same contract as
:class:`~repro.search.requests.AdmissionQueue`) and turns cumulative
state into per-window deltas:

- counters become window deltas and per-second **rates**,
- gauges are sampled at the window boundary,
- histograms are differenced bucket-by-bucket, and p50/p99 are
  estimated from the *delta* buckets — the quantiles of the traffic in
  this window, not of everything since the registry was created.

Windows are plain dicts end to end (:meth:`Window.to_dict` /
:meth:`Window.from_dict`), so they serialize into RunReport schema v3,
stream as JSONL through ``repro serve --window-log``, and render via
``repro obs show`` without any extra machinery. A bounded deque keeps
the last ``max_windows`` in memory.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, get_metrics

__all__ = ["Window", "TimeseriesRecorder", "delta_quantile"]


def delta_quantile(
    bounds: Sequence[float], bucket_deltas: Sequence[int], q: float
) -> Optional[float]:
    """Estimated ``q``-quantile of one window's bucket deltas.

    The cumulative :meth:`~repro.obs.metrics.Histogram.quantile` clamps
    to the *lifetime* min/max, which is wrong for a window view; here
    the estimate is simply the upper bound of the bucket holding the
    q-th ranked delta observation (the last finite bound for overflow).
    Returns ``None`` when the window saw no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(bucket_deltas)
    if total <= 0:
        return None
    rank = max(1, int(-(-q * total // 1)))  # ceil without math
    cumulative = 0
    for index, count in enumerate(bucket_deltas):
        cumulative += count
        if cumulative >= rank:
            return float(bounds[min(index, len(bounds) - 1)])
    return float(bounds[-1])  # pragma: no cover - counts sum to total


@dataclass
class Window:
    """One interval's worth of metric movement.

    ``counters`` are deltas, ``rates`` are deltas per second,
    ``gauges`` are boundary samples, and each ``histograms`` entry is
    ``{"count", "sum", "mean", "p50", "p99"}`` computed from the delta
    buckets. ``index`` increases monotonically across the run even
    after old windows fall out of the recorder's deque.
    """

    index: int
    start: float
    end: float
    counters: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Optional[float]]] = field(
        default_factory=dict
    )

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
            "rates": dict(self.rates),
            "gauges": dict(self.gauges),
            "histograms": {
                key: dict(entry) for key, entry in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Window":
        return cls(
            index=int(payload["index"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            counters={
                str(k): float(v)
                for k, v in payload.get("counters", {}).items()
            },
            rates={
                str(k): float(v) for k, v in payload.get("rates", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in payload.get("gauges", {}).items()
            },
            histograms={
                str(k): {
                    str(fk): (None if fv is None else float(fv))
                    for fk, fv in entry.items()
                }
                for k, entry in payload.get("histograms", {}).items()
            },
        )


class TimeseriesRecorder:
    """Snapshot the live registry into a rolling deque of windows.

    Parameters
    ----------
    registry:
        The registry to snapshot; defaults to the active one (resolved
        at each snapshot, so the recorder can be built before
        ``metrics_enabled`` activates).
    interval_seconds:
        Minimum window length; :meth:`maybe_snapshot` is a no-op until
        the interval has elapsed, so callers can invoke it once per
        serving round unconditionally.
    max_windows:
        Rolling retention — how many windows the quantile panel can
        look back over.
    clock:
        Monotonic-seconds callable, injectable for tests.
    on_window:
        Optional sink called with each completed :class:`Window`
        (``repro serve --window-log`` streams JSONL through this).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval_seconds: float = 1.0,
        max_windows: int = 120,
        clock: Callable[[], float] = time.monotonic,
        on_window: Optional[Callable[[Window], None]] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.registry = registry
        self.interval_seconds = float(interval_seconds)
        self.clock = clock
        self.on_window = on_window
        self.windows: Deque[Window] = deque(maxlen=max_windows)
        self._next_index = 0
        self._window_start = clock()
        self._last_counters: Dict[str, float] = {}
        self._last_histograms: Dict[str, Tuple[Tuple[float, ...], List[int], int, float]] = {}

    def _resolve_registry(self) -> Optional[MetricsRegistry]:
        return self.registry if self.registry is not None else get_metrics()

    # -- snapshotting ------------------------------------------------------
    def maybe_snapshot(self, force: bool = False) -> Optional[Window]:
        """Close the current window if the interval has elapsed.

        ``force=True`` closes it regardless (end-of-stream flush).
        Returns the new :class:`Window`, or ``None`` when it is not yet
        time.
        """
        now = self.clock()
        if not force and now - self._window_start < self.interval_seconds:
            return None
        return self._snapshot(now)

    def _snapshot(self, now: float) -> Window:
        registry = self._resolve_registry()
        window = Window(
            index=self._next_index, start=self._window_start, end=now
        )
        duration = window.duration_seconds
        if registry is not None:
            counters = registry.counters
            for key, value in counters.items():
                delta = value - self._last_counters.get(key, 0.0)
                window.counters[key] = delta
                window.rates[key] = delta / duration if duration > 0 else 0.0
            self._last_counters = counters
            window.gauges = registry.gauges
            for key, histogram in registry.histograms.items():
                previous = self._last_histograms.get(key)
                if previous is not None and previous[0] == histogram.bounds:
                    deltas = [
                        current - past
                        for current, past in zip(
                            histogram.bucket_counts, previous[1]
                        )
                    ]
                    count = histogram.count - previous[2]
                    total = histogram.total - previous[3]
                else:
                    deltas = list(histogram.bucket_counts)
                    count = histogram.count
                    total = histogram.total
                self._last_histograms[key] = (
                    histogram.bounds,
                    list(histogram.bucket_counts),
                    histogram.count,
                    histogram.total,
                )
                if count <= 0:
                    continue
                window.histograms[key] = {
                    "count": float(count),
                    "sum": total,
                    "mean": total / count,
                    "p50": delta_quantile(histogram.bounds, deltas, 0.5),
                    "p99": delta_quantile(histogram.bounds, deltas, 0.99),
                }
        self._next_index += 1
        self._window_start = now
        self.windows.append(window)
        if self.on_window is not None:
            self.on_window(window)
        return window

    # -- reading -------------------------------------------------------------
    def latest(self) -> Optional[Window]:
        return self.windows[-1] if self.windows else None

    def window_dicts(self) -> List[Dict[str, object]]:
        """All retained windows as plain dicts (RunReport v3 payload)."""
        return [window.to_dict() for window in self.windows]
