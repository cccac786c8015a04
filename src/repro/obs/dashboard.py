"""Static HTML dashboard over the run store.

``python -m repro obs dashboard`` renders one self-contained HTML file
(inline-SVG sparklines, no JavaScript, no external assets, viewable
from ``file://`` and uploadable as a CI artifact) with two parts:

- the **benchmark trajectory**: one sparkline per bench metric over its
  recorded runs, changepoints marked on the line and listed with the
  commit they landed in, plus a stage-level attribution table when two
  serving RunReports carry per-stage
  ``search.serve.budget_seconds{stage=}`` histograms;
- one section per **RunReport series**: its exact counters and stage
  timings over the recorded runs, the newest value compared against the
  previous one so drift stands out before ``repro obs compare`` fails,
  and — when the newest report carries serving telemetry — per-window
  ``search.serve.*`` p50/p99 sparklines and the tail exemplars' span
  trees.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .report import RunReport
from .store import Run, RunStore

__all__ = ["render_dashboard", "write_dashboard", "DEFAULT_DASHBOARD_PATH"]

DEFAULT_DASHBOARD_PATH = Path("results") / "obs" / "dashboard.html"

_SPARK_W = 160
_SPARK_H = 28

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em; color: #1a1a2e; background: #fafafc; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #d8d8e0; padding: 3px 10px;
         font-size: 0.85em; text-align: left; }
th { background: #eeeef4; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.up { color: #b3261e; } .down { color: #176b37; } .flat { color: #888; }
.meta { color: #666; font-size: 0.8em; }
svg { vertical-align: middle; }
""".strip()


def _sparkline(
    values: Sequence[float], marks: Optional[Sequence[int]] = None
) -> str:
    """Inline SVG polyline over a value history (last point dotted).

    ``marks`` are indices into ``values`` drawn as hollow changepoint
    circles, so the trajectory page shows *where* a metric shifted.
    """
    if len(values) < 2:
        return '<span class="flat">&mdash;</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    points = []
    for index, value in enumerate(values):
        x = 2 + index * (_SPARK_W - 4) / (len(values) - 1)
        y = _SPARK_H - 3 - (value - lo) / span * (_SPARK_H - 6)
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    marked = []
    for index in marks or ():
        if 0 <= index < len(points):
            mark_x, mark_y = points[index].split(",")
            marked.append(
                f'<circle cx="{mark_x}" cy="{mark_y}" r="3.5" '
                'fill="none" stroke="#b3261e" stroke-width="1.5"/>'
            )
    return (
        f'<svg width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}">'
        f'<polyline points="{" ".join(points)}" fill="none" '
        'stroke="#4a4a8a" stroke-width="1.5"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5" fill="#b3261e"/>'
        f'{"".join(marked)}'
        "</svg>"
    )


def _delta_cell(previous: Optional[float], latest: float) -> str:
    if previous is None:
        return '<td class="num flat">new</td>'
    if previous == latest:
        return '<td class="num flat">=</td>'
    if previous == 0:
        return '<td class="num up">&#8734;</td>'
    drift = (latest - previous) / previous
    css = "up" if drift > 0 else "down"
    return f'<td class="num {css}">{drift:+.2%}</td>'


def _series_rows(
    series: Dict[str, List[Optional[float]]], caption: str
) -> List[str]:
    """One <table> of metric rows: name, sparkline, latest, delta."""
    if not series:
        return []
    rows = [
        "<table>",
        f"<tr><th>{html.escape(caption)}</th><th>trend</th>"
        "<th>latest</th><th>vs prev</th></tr>",
    ]
    for name in sorted(series):
        history = [v for v in series[name] if v is not None]
        if not history:
            continue
        latest = history[-1]
        previous = history[-2] if len(history) > 1 else None
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{_sparkline(history)}</td>"
            f'<td class="num">{latest:g}</td>'
            f"{_delta_cell(previous, latest)}</tr>"
        )
    rows.append("</table>")
    return rows


def _collect(per_run: Sequence[Dict[str, float]]) -> Dict[str, List[Optional[float]]]:
    """One series per name over the runs (``None`` where a run lacks it)."""
    names = {name for values in per_run for name in values}
    return {name: [values.get(name) for values in per_run] for name in names}


def _window_quantile_series(
    windows: Sequence[dict],
) -> Dict[str, List[Optional[float]]]:
    """Per-window histogram quantiles keyed ``<metric> <field>``.

    One series point per window, so the sparkline is the quantile's
    trajectory *within* the newest run — the request-scoped view,
    versus the per-run trend of the other tables.
    """
    names = {
        name
        for window in windows
        for name in (window.get("histograms") or {})
    }
    series: Dict[str, List[Optional[float]]] = {}
    for name in sorted(names):
        for field in ("p50", "p99"):
            key = f"{name} {field}"
            for window in windows:
                entry = (window.get("histograms") or {}).get(name) or {}
                series.setdefault(key, []).append(entry.get(field))
    return series


def _serving_rows(report: RunReport) -> List[str]:
    """Windowed quantile sparklines + tail exemplars (newest report)."""
    from .context import render_tree

    parts: List[str] = []
    windows = list(getattr(report, "windows", []) or [])
    if windows:
        parts.append(
            f'<p class="meta">serving telemetry: {len(windows)} '
            "window(s) from the newest report; one point per window</p>"
        )
        parts.extend(
            _series_rows(
                _window_quantile_series(windows),
                "windowed quantile (seconds)",
            )
        )
    exemplars = list(getattr(report, "exemplars", []) or [])
    if exemplars:
        parts.append(
            f'<p class="meta">{len(exemplars)} tail exemplar(s): slowest '
            "requests first, then deadline-expired</p>"
        )
        for exemplar in exemplars:
            latency_ms = 1e3 * float(exemplar.get("latency_seconds", 0.0))
            header = (
                f"request {exemplar.get('request_id')} "
                f"[{html.escape(str(exemplar.get('status', '?')))}] "
                f"{latency_ms:.3f} ms"
            )
            tree = exemplar.get("tree")
            try:
                body = (
                    render_tree(tree) if tree else "(no span tree recorded)"
                )
            except (KeyError, TypeError, ValueError):
                # An exemplar from an older/foreign report whose tree
                # shape this build cannot walk — show the request line
                # anyway rather than losing the whole dashboard.
                body = "(unrenderable span tree)"
            parts.append(
                f"<pre>{html.escape(header)}\n{html.escape(body)}</pre>"
            )
    return parts


def _trajectory_rows(bench: str, runs: Sequence[Run]) -> List[str]:
    """One bench's trajectory: a sparkline per metric over its runs,
    changepoints circled on the line and listed with their commit."""
    from .analytics import detect_changepoints, metric_names, metric_series

    newest = runs[-1]
    rows = [
        f"<h2>bench: {html.escape(bench)}</h2>",
        f'<p class="meta">{len(runs)} recorded run(s) &middot; '
        f"newest commit {html.escape(newest.git_sha)} "
        f"at {html.escape(newest.created_at or '?')}</p>",
        "<table>",
        "<tr><th>metric</th><th>trend</th><th>latest</th>"
        "<th>vs prev</th><th>changepoints</th></tr>",
    ]
    for name in metric_names(runs):
        series = metric_series(runs, name)
        changepoints = detect_changepoints(series)
        # Compact out the Nones for drawing, remapping changepoint
        # indices onto the compacted line.
        compact: List[float] = []
        remap: Dict[int, int] = {}
        for index, value in enumerate(series):
            if value is None:
                continue
            remap[index] = len(compact)
            compact.append(value)
        if not compact:
            continue
        marks = [remap[i] for i in changepoints if i in remap]
        latest = compact[-1]
        previous = compact[-2] if len(compact) > 1 else None
        if changepoints:
            shifts = ", ".join(
                html.escape(runs[i].git_sha[:12]) for i in changepoints
            )
            change_cell = f'<td class="up">{shifts}</td>'
        else:
            change_cell = '<td class="flat">&mdash;</td>'
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{_sparkline(compact, marks)}</td>"
            f'<td class="num">{latest:g}</td>'
            f"{_delta_cell(previous, latest)}"
            f"{change_cell}</tr>"
        )
    rows.append("</table>")
    return rows


def _attribution_rows(reports: Dict[str, List[Run]]) -> List[str]:
    """Stage-level slowdown attribution between the two newest serving
    reports of a series that carry ``search.serve.budget_seconds{stage=}``
    histograms — the table that turns "the search bench got slower"
    into "the execute stage got slower"."""
    from .analytics import attribute_stages, stage_budget_means

    for runs in reports.values():
        serving = [
            report
            for report in (run.report() for run in runs[-2:])
            if stage_budget_means(report)
        ]
        if len(serving) == 2:
            break
    else:
        return []
    rows = attribute_stages(serving[0], serving[1])
    parts = [
        '<p class="meta">stage attribution: newest serving report vs '
        "its predecessor (mean seconds/request from "
        "search.serve.budget_seconds{stage=})</p>",
        "<table>",
        "<tr><th>stage</th><th>baseline</th><th>current</th>"
        "<th>delta</th><th>share</th></tr>",
    ]
    for row in rows:
        css = "up" if row["delta_seconds"] > 0 else "down"
        parts.append(
            f"<tr><td>{html.escape(str(row['stage']))}</td>"
            f'<td class="num">{row["baseline_mean_seconds"]:.6f}s</td>'
            f'<td class="num">{row["current_mean_seconds"]:.6f}s</td>'
            f'<td class="num {css}">{row["delta_seconds"]:+.6f}s</td>'
            f'<td class="num">{row["share_of_total_delta"]:+.0%}</td>'
            "</tr>"
        )
    parts.append("</table>")
    return parts


def render_dashboard(store: RunStore, max_points: int = 30) -> str:
    """The dashboard HTML for a run store (empty store included)."""
    runs = {name: store.read(name)[-max_points:] for name in store.series()}
    benches = {name: r for name, r in runs.items() if r and r[0].kind == "bench"}
    reports = {name: r for name, r in runs.items() if r and r[0].kind == "report"}
    root = html.escape(str(store.root))
    parts = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8">',
        "<title>repro obs dashboard</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>repro observability dashboard</h1>",
        f'<p class="meta">run store: {root}</p>',
    ]
    if benches:
        parts.append("<h1>benchmark trajectory</h1>")
        for name, bench_runs in benches.items():
            parts.extend(_trajectory_rows(name, bench_runs))
        parts.extend(_attribution_rows(reports))
    else:
        parts.append(f'<p class="meta">no bench history recorded under {root}</p>')
    if not reports:
        parts.append(
            "<p>No RunReports recorded yet. Record one with "
            "<code>python -m repro obs record REPORT</code>.</p>"
        )
    for key, report_runs in reports.items():
        newest = report_runs[-1]
        report = newest.report()
        parts.append(f"<h2>{html.escape(report.spec.stem)}</h2>")
        parts.append(
            f'<p class="meta">{len(report_runs)} run(s) &middot; '
            f"key {html.escape(key)} &middot; newest commit "
            f"{html.escape(newest.git_sha)} "
            f"at {html.escape(newest.created_at or '?')}</p>"
        )
        counters = _collect([run.exact.get("counter", {}) for run in report_runs])
        timings = _collect(
            [
                {stage: readings[0] for stage, readings in run.samples.items()}
                for run in report_runs
            ]
        )
        parts.extend(_series_rows(counters, "deterministic counter"))
        parts.extend(_series_rows(timings, "stage seconds"))
        parts.extend(_serving_rows(report))
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(
    store: RunStore,
    path: Union[str, Path, None] = None,
    max_points: int = 30,
) -> Path:
    """Render and write the dashboard; returns the written path."""
    path = Path(path) if path is not None else DEFAULT_DASHBOARD_PATH
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(render_dashboard(store, max_points=max_points))
        handle.write("\n")
    return path
