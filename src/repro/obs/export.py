"""Prometheus-style text exposition and the ``obs show`` window renderer.

The registry's native ``render()`` is a human-readable dump; a
long-running ``repro serve`` additionally wants a scrape-able surface.
:func:`render_exposition` writes the standard text format — counters
and gauges as single samples, histograms as cumulative ``_bucket{le=}``
series plus ``_sum``/``_count`` — with metric names sanitized to the
Prometheus grammar and the registry's ``name{key=value}`` label keys
split back into real label sets. When the latest
:class:`~repro.obs.timeseries.Window` is supplied, its per-window
histogram quantiles are exported as ``<ns>_window_*{quantile=}``
gauges, so a scraper sees current-traffic p50/p99 rather than lifetime
aggregates.

:func:`render_window` is the companion terminal view: ``repro obs
show`` reads windows from a ``--window-log`` JSONL stream or a
RunReport v3 artifact (:func:`read_windows` handles both shapes) and
pretty-prints the most recent ones.
"""

from __future__ import annotations

import json
import logging
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .metrics import MetricsRegistry
from .timeseries import Window

__all__ = [
    "split_metric_key",
    "render_exposition",
    "write_exposition",
    "render_window",
    "read_windows",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_KEY_RE = re.compile(r"[^a-zA-Z0-9_]")


def split_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`~repro.obs.metrics.metric_key`.

    ``"name{a=1,b=x}"`` → ``("name", {"a": "1", "b": "x"})``; keys
    without labels come back with an empty dict.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for item in inner.split(","):
        label, _, value = item.partition("=")
        labels[label] = value
    return name, labels


def _prom_name(namespace: str, name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    return f"{namespace}_{sanitized}" if namespace else sanitized


def _prom_labels(
    labels: Dict[str, str], extra: Optional[Dict[str, str]] = None
) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_KEY_RE.sub("_", key)}="{_escape(merged[key])}"'
        for key in sorted(merged)
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_exposition(
    registry: MetricsRegistry,
    namespace: str = "repro",
    window: Optional[Window] = None,
) -> str:
    """The registry (and optionally the latest window) as exposition text."""
    lines: List[str] = []
    typed: set = set()

    def emit_type(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(registry.counters):
        name, labels = split_metric_key(key)
        prom = _prom_name(namespace, name)
        emit_type(prom, "counter")
        lines.append(
            f"{prom}{_prom_labels(labels)} "
            f"{_format(registry.counters[key])}"
        )
    for key in sorted(registry.gauges):
        name, labels = split_metric_key(key)
        prom = _prom_name(namespace, name)
        emit_type(prom, "gauge")
        lines.append(
            f"{prom}{_prom_labels(labels)} {_format(registry.gauges[key])}"
        )
    for key in sorted(registry.histograms):
        histogram = registry.histograms[key]
        name, labels = split_metric_key(key)
        prom = _prom_name(namespace, name)
        emit_type(prom, "histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.bucket_counts):
            cumulative += count
            lines.append(
                f"{prom}_bucket"
                f"{_prom_labels(labels, {'le': _format(bound)})} "
                f"{cumulative}"
            )
        lines.append(
            f"{prom}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
            f"{histogram.count}"
        )
        lines.append(
            f"{prom}_sum{_prom_labels(labels)} {_format(histogram.total)}"
        )
        lines.append(f"{prom}_count{_prom_labels(labels)} {histogram.count}")
    if window is not None:
        prefix = f"{namespace}_window" if namespace else "window"
        lines.append(f"# TYPE {prefix} gauge")
        lines.append(f"{prefix}{{field=\"index\"}} {window.index}")
        lines.append(
            f"{prefix}{{field=\"duration_seconds\"}} "
            f"{_format(window.duration_seconds)}"
        )
        for key in sorted(window.histograms):
            entry = window.histograms[key]
            name, labels = split_metric_key(key)
            prom = _prom_name(f"{namespace}_window" if namespace else "window", name)
            emit_type(prom, "gauge")
            for field, quantile in (("p50", "0.5"), ("p99", "0.99")):
                value = entry.get(field)
                if value is None:
                    continue
                lines.append(
                    f"{prom}"
                    f"{_prom_labels(labels, {'quantile': quantile})} "
                    f"{_format(value)}"
                )
    return "\n".join(lines) + "\n"


def write_exposition(
    registry: MetricsRegistry,
    path: Union[str, Path],
    namespace: str = "repro",
    window: Optional[Window] = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_exposition(registry, namespace, window))
    return path


def render_window(window: Window, prefix: str = "") -> str:
    """One window as readable terminal text (``repro obs show``)."""
    lines = [
        f"window #{window.index}  "
        f"[{window.start:.3f}s -> {window.end:.3f}s]  "
        f"({window.duration_seconds:.3f}s)"
    ]
    rated = [
        key
        for key in sorted(window.rates)
        if key.startswith(prefix) and window.counters.get(key)
    ]
    if rated:
        lines.append("  rates:")
        for key in rated:
            lines.append(
                f"    {key}: {window.counters[key]:g} "
                f"({window.rates[key]:.2f}/s)"
            )
    gauged = [key for key in sorted(window.gauges) if key.startswith(prefix)]
    if gauged:
        lines.append("  gauges:")
        for key in gauged:
            lines.append(f"    {key} = {window.gauges[key]:g}")
    histed = [
        key for key in sorted(window.histograms) if key.startswith(prefix)
    ]
    if histed:
        lines.append("  histograms:")
        for key in histed:
            entry = window.histograms[key]

            def _ms(field: str) -> str:
                value = entry.get(field)
                return "-" if value is None else f"{1e3 * value:.3f}ms"

            lines.append(
                f"    {key}: count={entry.get('count', 0):g} "
                f"p50={_ms('p50')} p99={_ms('p99')}"
            )
    if len(lines) == 1:
        lines.append("  (no matching activity)")
    return "\n".join(lines)


def read_windows(path: Union[str, Path]) -> List[Window]:
    """Load windows from a JSONL window log or a RunReport v3 file.

    A JSONL log may end in a truncated line (the writer crashed or is
    mid-append); such lines are skipped and counted with a warning
    rather than crashing the read. A file where *no* line parses is
    still a :class:`ValueError` — that is the wrong file, not a
    damaged one.
    """
    text = Path(path).read_text()
    stripped = text.strip()
    if not stripped:
        return []
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "windows" in payload:  # RunReport v3 (or serve outcome dump)
            return [Window.from_dict(entry) for entry in payload["windows"]]
        return [Window.from_dict(payload)]  # a single window object
    if isinstance(payload, list):
        return [Window.from_dict(entry) for entry in payload]
    windows = []
    skipped = 0
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        windows.append(Window.from_dict(entry))
    if not windows:
        raise ValueError(
            f"no window snapshots could be parsed from {path}"
            + (f" ({skipped} malformed line(s))" if skipped else "")
        )
    if skipped:
        logging.getLogger("repro.obs.export").warning(
            "skipped %d malformed window line(s) in %s (truncated write?)",
            skipped,
            path,
        )
    return windows
