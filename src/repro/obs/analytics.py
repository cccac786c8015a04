"""The gate over the run store: one comparison, trends, stage means.

- :func:`compare` — the regression gate behind ``repro obs compare``.
  A run's exact values (deterministic counters, gauges and histogram
  fingerprints of a RunReport; non-environmental checks of a bench)
  must match the newest comparable run **exactly**. Every sampled
  metric goes through :func:`timing_decision`: median ± k·MAD
  confidence intervals with a minimum effect when both sides carry
  enough raw repeats, and a deliberately wide ratio band otherwise
  (RunReport stage timings are single readings). A sampled metric is a
  timing (lower is better, :data:`MIN_EFFECT`) unless the run's config
  names its ``better`` and ``bound``, as perfbench runs do. Exact drift
  *fails* (exit 1); a regression of a sampled metric or a missing
  baseline *warns* (exit 2).
- :func:`trend_report` — one series point per run (timings as sample
  medians) with a sliding z-score :func:`detect_changepoints` pass that
  flags the run — and therefore the commit — where a metric shifted.
- :func:`stage_budget_means` — the mean seconds per serving stage from
  a RunReport's ``search.serve.budget_seconds{stage=...}`` histograms,
  which ``repro obs show`` prints so "search got slow" names a stage.

Everything is plain stdlib math over plain dicts: no numpy in the
decision path, so the gate runs identically everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .store import Run

__all__ = [
    "COMPARISON_SCHEMA_VERSION",
    "COMPARISON_KIND",
    "median",
    "mad",
    "timing_decision",
    "Finding",
    "Comparison",
    "compare",
    "metric_names",
    "metric_series",
    "detect_changepoints",
    "trend_report",
    "render_trend",
    "stage_budget_means",
]

COMPARISON_SCHEMA_VERSION = 1
COMPARISON_KIND = "repro-comparison"

#: A timing only regresses when its median moves by more than this
#: (relative) and the two median±k·MAD/√n intervals are disjoint.
MIN_EFFECT = 0.10
MAD_K = 3.0
#: Raw readings each side needs before the interval test applies.
MIN_SAMPLES = 3
#: Ratio band for fewer readings: a 2x slowdown trips, noise does not.
FALLBACK_REL_TOL = 0.5

#: Consistency constant relating MAD to the standard deviation of a
#: normal distribution (sigma ~= 1.4826 * MAD).
_MAD_SIGMA = 1.4826


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation — the robust spread estimate."""
    center = median(values)
    return median([abs(float(v) - center) for v in values])


def _interval(values: Sequence[float], k: float) -> Tuple[float, float, float]:
    """(median, lo, hi): a median ± k·sigma_MAD/sqrt(n) interval."""
    center = median(values)
    half = k * _MAD_SIGMA * mad(values) / math.sqrt(len(values))
    return center, center - half, center + half


def timing_decision(
    baseline: Sequence[float],
    current: Sequence[float],
    better: str = "lower",
    min_effect: float = MIN_EFFECT,
) -> Dict[str, object]:
    """Statistical verdict on one sampled metric.

    With :data:`MIN_SAMPLES` raw readings on both sides the decision is
    CI-overlap: *regressed* only when the current median moves the
    wrong way (up when ``better`` is ``"lower"``, down when it is
    ``"higher"``) by more than ``min_effect`` **and** the two
    median±k·MAD/√n intervals are disjoint — so a byte-identical rerun
    can never be flagged, and repeat-to-repeat noise widens the
    intervals until it silences itself. *improved* is the symmetric
    verdict. With fewer readings only a ratio beyond the wide
    :data:`FALLBACK_REL_TOL` band is called. A side without readings,
    or a baseline median of zero or less, is ``no-data``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    base = [float(v) for v in baseline]
    cur = [float(v) for v in current]
    if not base or not cur or median(base) <= 0:
        return {"decision": "no-data", "method": "none"}
    base_med = median(base)
    cur_med = median(cur)
    ratio = cur_med / base_med
    effect = ratio - 1.0
    result: Dict[str, object] = {
        "baseline_median": base_med,
        "current_median": cur_med,
        "baseline_n": len(base),
        "current_n": len(cur),
        "ratio": ratio,
        "effect": effect,
    }
    if len(base) >= MIN_SAMPLES and len(cur) >= MIN_SAMPLES:
        _, base_lo, base_hi = _interval(base, MAD_K)
        _, cur_lo, cur_hi = _interval(cur, MAD_K)
        result["method"] = "ci-overlap"
        result["baseline_interval"] = [base_lo, base_hi]
        result["current_interval"] = [cur_lo, cur_hi]
        rose = effect > min_effect and cur_lo > base_hi
        fell = effect < -min_effect and cur_hi < base_lo
    else:
        result["method"] = "ratio-fallback"
        rose = effect > FALLBACK_REL_TOL
        fell = ratio < 1.0 / (1.0 + FALLBACK_REL_TOL)
    worse, improved = (rose, fell) if better == "lower" else (fell, rose)
    result["decision"] = (
        "regressed" if worse else "improved" if improved else "ok"
    )
    return result


# ---------------------------------------------------------------------------
# Regression gate


@dataclass(frozen=True)
class Finding:
    """One gated difference between a run and its baseline."""

    kind: str  # counter | gauge | histogram | check | timing | spec
    name: str
    baseline: object
    current: object
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            kind=str(payload["kind"]),
            name=str(payload["name"]),
            baseline=payload.get("baseline"),
            current=payload.get("current"),
            detail=str(payload.get("detail", "")),
        )

    def render(self) -> str:
        text = (
            f"[{self.kind}] {self.name}: "
            f"baseline={self.baseline} current={self.current}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class Comparison:
    """Outcome of gating one run against its series.

    ``findings`` are exact-value drift (exit 1); ``warnings`` are timing
    regressions (exit 2, the "probably slower — look" band); ``infos``
    are observations (improvements, environmental drift). ``status`` is
    one of ``ok`` / ``regressed`` / ``warned`` / ``no-baseline``.
    """

    series: str
    baseline_id: str = ""
    current_id: str = ""
    status: str = "ok"
    findings: List[Finding] = field(default_factory=list)
    warnings: List[Finding] = field(default_factory=list)
    infos: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.findings:
            return 1
        if self.warnings or self.status == "no-baseline":
            return 2
        return 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": COMPARISON_SCHEMA_VERSION,
            "kind": COMPARISON_KIND,
            "series": self.series,
            "baseline_id": self.baseline_id,
            "current_id": self.current_id,
            "status": self.status,
            "exit_code": self.exit_code,
            "findings": [item.to_dict() for item in self.findings],
            "warnings": [item.to_dict() for item in self.warnings],
            "infos": [item.to_dict() for item in self.infos],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Comparison":
        version = payload.get("schema_version")
        if version != COMPARISON_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported Comparison schema version {version!r} "
                f"(supported: {COMPARISON_SCHEMA_VERSION})"
            )
        if payload.get("kind") != COMPARISON_KIND:
            raise ValueError(
                f"kind is {payload.get('kind')!r}, not {COMPARISON_KIND!r}"
            )
        return cls(
            series=str(payload.get("series", "")),
            baseline_id=str(payload.get("baseline_id", "")),
            current_id=str(payload.get("current_id", "")),
            status=str(payload.get("status", "ok")),
            **{
                key: [Finding.from_dict(item) for item in payload.get(key, [])]
                for key in ("findings", "warnings", "infos")
            },
        )

    def render(self) -> str:
        lines = [
            f"== compare: {self.series or '(empty)'} "
            f"({self.current_id or 'current'} vs "
            f"{self.baseline_id or 'no baseline'}) =="
        ]
        if self.status == "no-baseline":
            lines.append(
                "NO BASELINE: no earlier run with a matching config "
                "(record one with `repro obs record`)"
            )
            return "\n".join(lines)
        if self.findings:
            lines.append(f"REGRESSIONS ({len(self.findings)}):")
            lines.extend(f"  {item.render()}" for item in self.findings)
        if self.warnings:
            lines.append(f"timing warnings ({len(self.warnings)}):")
            lines.extend(f"  {item.render()}" for item in self.warnings)
        if not self.findings and not self.warnings:
            lines.append(
                "OK: exact values match; timings within the statistical band"
            )
        if self.infos:
            lines.append(f"info ({len(self.infos)}):")
            lines.extend(f"  {item.render()}" for item in self.infos)
        return "\n".join(lines)


def _label(run: Run) -> str:
    return f"{run.entry_id}@{run.git_sha[:12]}"


def _section_values(run: Run, section: str) -> Dict[str, object]:
    return {
        **run.environmental.get(section, {}),
        **run.exact.get(section, {}),
    }


def _direction(run: Run, variant: str) -> Dict[str, object]:
    """A sampled metric's ``better``/``bound`` from the run's config.

    A perfbench report copies them from ``BENCHMARK.json``; every other
    run has none and is gated as a timing (lower is better,
    :data:`MIN_EFFECT`).
    """
    metrics = run.config.get("metrics")
    entry = metrics.get(variant) if isinstance(metrics, dict) else None
    if not isinstance(entry, dict):
        return {}
    return {"better": entry["better"], "min_effect": float(entry["bound"])}


def _host_speed(baseline: Run, candidate: Run) -> str:
    """Candidate/baseline ratio of each host-speed probe both runs carry.

    Above 1 the candidate's host ran that probe slower. Printed next to
    timing verdicts as information only: nothing is normalised by it.
    """
    probes = []
    for run in (baseline, candidate):
        host = run.artifact.get("platform")
        calibration = host.get("calibration") if isinstance(host, dict) else None
        probes.append(calibration if isinstance(calibration, dict) else {})
    names = sorted(set(probes[0]) & set(probes[1]))
    ratios = [
        f"{name} {probes[1][name] / probes[0][name]:.2f}x"
        for name in names
        if probes[0][name] > 0
    ]
    if not ratios:
        return "host speed: not calibrated on both runs"
    return "host speed run/baseline: " + ", ".join(ratios)


def compare(history: Sequence[Run], candidate: Optional[Run] = None) -> Comparison:
    """Gate a run against the newest comparable run of ``history``.

    Without ``candidate`` the newest run of ``history`` is gated against
    the runs before it — the "did the run I just recorded regress
    anything" shape. Comparable means the same series and config digest
    (quick-mode runs never gate full-mode history). A history of other
    series only is itself a finding: the caller matched the wrong
    baseline.
    """
    if candidate is None:
        if not history:
            return Comparison(series="", status="no-baseline")
        *history, candidate = history
    result = Comparison(series=candidate.series, current_id=_label(candidate))
    if history and all(run.series != candidate.series for run in history):
        result.findings.append(
            Finding(
                "spec",
                "series",
                history[-1].series,
                candidate.series,
                "runs describe different workloads",
            )
        )
        result.status = "regressed"
        return result
    comparable = [
        run
        for run in history
        if run.series == candidate.series
        and run.config_key == candidate.config_key
    ]
    if not comparable:
        result.status = "no-baseline"
        return result
    baseline = comparable[-1]
    result.baseline_id = _label(baseline)

    sections = sorted(
        set(baseline.exact)
        | set(baseline.environmental)
        | set(candidate.exact)
        | set(candidate.environmental)
    )
    for section in sections:
        base = _section_values(baseline, section)
        cur = _section_values(candidate, section)
        exact = set(baseline.exact.get(section, {})) | set(
            candidate.exact.get(section, {})
        )
        for name in sorted(set(base) | set(cur)):
            sink = result.findings if name in exact else result.infos
            if name not in cur:
                sink.append(
                    Finding(section, name, base[name], None, "missing from run")
                )
            elif name not in base:
                sink.append(
                    Finding(section, name, None, cur[name], "not in baseline")
                )
            elif base[name] != cur[name]:
                sink.append(Finding(section, name, base[name], cur[name]))

    for variant in sorted(set(baseline.samples) | set(candidate.samples)):
        if variant not in candidate.samples or variant not in baseline.samples:
            side = "run" if variant not in candidate.samples else "baseline"
            result.infos.append(
                Finding("timing", variant, None, None, f"missing from {side}")
            )
            continue
        verdict = timing_decision(
            baseline.samples[variant],
            candidate.samples[variant],
            **_direction(candidate, variant),
        )
        decision = verdict["decision"]
        if decision not in ("regressed", "improved"):
            continue
        detail = (
            f"{verdict['method']}: ratio {verdict['ratio']:.3f} "
            f"(n={verdict['baseline_n']}->{verdict['current_n']}); "
            f"{_host_speed(baseline, candidate)}"
        )
        finding = Finding(
            "timing",
            variant,
            verdict["baseline_median"],
            verdict["current_median"],
            detail if decision == "regressed" else f"improved; {detail}",
        )
        (result.warnings if decision == "regressed" else result.infos).append(
            finding
        )
    if result.findings:
        result.status = "regressed"
    elif result.warnings:
        result.status = "warned"
    return result


# ---------------------------------------------------------------------------
# Trends and changepoints


def metric_names(runs: Sequence[Run]) -> List[str]:
    """All trendable metric names: ``timing:<variant>``."""
    names = set()
    for run in runs:
        names.update(f"timing:{variant}" for variant in run.samples)
    return sorted(names)


def metric_series(runs: Sequence[Run], metric: str) -> List[Optional[float]]:
    """One value per run (``None`` where absent). Timings use the
    sample median — the robust point — rather than the stored best-of
    aggregate, so a single lucky repeat does not bend the trend."""
    kind, _, name = metric.partition(":")
    series: List[Optional[float]] = []
    for run in runs:
        if kind == "timing":
            samples = run.samples.get(name)
            series.append(median(samples) if samples else None)
        else:
            raise ValueError(
                f"unknown metric kind {kind!r} (expected 'timing:<variant>')"
            )
    return series


def detect_changepoints(
    values: Sequence[Optional[float]],
    window: int = 5,
    z_threshold: float = 3.0,
    min_rel_shift: float = 0.25,
) -> List[int]:
    """Indices where a series shifts away from its recent level.

    A simple sliding z-score detector: each point is compared against
    the mean/std of up to ``window`` preceding non-``None`` points and
    flagged when its deviation exceeds **both** ``z_threshold`` sigmas
    and ``min_rel_shift`` of the recent level. The relative floor keeps
    near-constant series (std → 0) from flagging measurement jitter,
    so only genuine level shifts — the commit where a metric moved —
    are reported.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    flagged: List[int] = []
    for index, value in enumerate(values):
        if value is None:
            continue
        prior = [
            v for v in values[max(0, index - window) : index] if v is not None
        ]
        if len(prior) < 2:
            continue
        mean = sum(prior) / len(prior)
        variance = sum((v - mean) ** 2 for v in prior) / len(prior)
        std = math.sqrt(variance)
        deviation = abs(value - mean)
        threshold = max(z_threshold * std, min_rel_shift * abs(mean), 1e-12)
        if deviation > threshold:
            flagged.append(index)
    return flagged


def trend_report(runs: Sequence[Run]) -> Dict[str, object]:
    """Series + changepoints for every metric of one series' runs."""
    points = [
        {
            "entry_id": run.entry_id,
            "git_sha": run.git_sha,
            "created_at": run.created_at,
            "config_key": run.config_key,
        }
        for run in runs
    ]
    metrics: Dict[str, object] = {}
    for name in metric_names(runs):
        values = metric_series(runs, name)
        metrics[name] = {
            "values": values,
            "changepoints": detect_changepoints(values),
        }
    return {
        "schema_version": 1,
        "kind": "repro-trend",
        "series": runs[0].series if runs else "",
        "points": points,
        "metrics": metrics,
    }


def render_trend(report: Dict[str, object]) -> str:
    """Terminal view of one series' trend report."""
    lines = [
        f"== trend: {report.get('series') or '(empty)'} "
        f"({len(report.get('points', []))} entr{'y' if len(report.get('points', [])) == 1 else 'ies'}) =="
    ]
    points = report.get("points", [])
    metrics = report.get("metrics", {})
    for name in sorted(metrics):
        entry = metrics[name]
        values = entry["values"]
        changepoints = set(entry["changepoints"])
        rendered = []
        for index, value in enumerate(values):
            text = "-" if value is None else f"{value:.6g}"
            if index in changepoints:
                text += "*"
            rendered.append(text)
        lines.append(f"{name}: {' -> '.join(rendered)}")
        for index in sorted(changepoints):
            sha = str(points[index].get("git_sha", "?"))[:12]
            lines.append(
                f"  changepoint at entry {index} "
                f"(commit {sha}, {points[index].get('created_at', '?')})"
            )
    if len(lines) == 1:
        lines.append("(no recorded metrics)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-stage serving budget


def stage_budget_means(report) -> Dict[str, float]:
    """Mean seconds per serving stage from a RunReport's
    ``search.serve.budget_seconds{stage=...}`` histograms.

    Returns an empty dict for reports without serving telemetry (v1/v2
    artifacts, or batch runs that never served).
    """
    from .export import split_metric_key

    means: Dict[str, float] = {}
    for key, histogram in report.metrics.histograms.items():
        name, labels = split_metric_key(key)
        if name != "search.serve.budget_seconds" or "stage" not in labels:
            continue
        count = getattr(histogram, "count", 0)
        if count:
            means[labels["stage"]] = histogram.total / count
    return means
