"""Schema-versioned RunReport artifacts.

One :class:`RunReport` captures everything a run observed — the metrics
registry snapshot, the span events, and the wall-clock
:class:`~repro.perf.timing.StageTimer` stages — keyed by the run's
:class:`~repro.platforms.runspec.RunSpec`. Reports are written as JSON
under ``results/obs/``; ``python -m repro obs show`` checks and renders
one, and ``obs record`` + ``obs compare`` gate one run against another
without a figure-script rerun.

The schema is versioned independently of the other artifact formats:
bump :data:`RUN_REPORT_SCHEMA_VERSION` on any layout change so old
reports are rejected loudly, never misread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .metrics import MetricsRegistry
from .provenance import current_git_sha, now_iso
from .tracing import Tracer

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from ..perf.timing import StageTimer
    from ..platforms.runspec import RunSpec

__all__ = [
    "RunReport",
    "RUN_REPORT_SCHEMA_VERSION",
    "REPORT_KIND",
    "default_report_path",
    "validate_report",
]

# v1: spec + metrics + spans + timings. v2 adds run identity: created_at
# (wall clock, via the REPRO_CREATED_AT env seam) and git_sha (via
# REPRO_GIT_SHA). v3 adds the serving-telemetry sections: "windows"
# (TimeseriesRecorder snapshots) and "exemplars" (ExemplarBuffer span
# trees). Readers accept v3 only.
RUN_REPORT_SCHEMA_VERSION = 3
REPORT_KIND = "repro-run-report"

#: Default artifact directory, relative to the working directory.
DEFAULT_REPORT_DIR = Path("results") / "obs"

#: Top-level keys every valid report payload must carry.
REQUIRED_KEYS = ("schema_version", "kind", "spec", "metrics", "spans", "timings")

#: Run-identity keys: a string or null each.
IDENTITY_KEYS = ("created_at", "git_sha")

#: Serving-telemetry keys: a list each.
TELEMETRY_KEYS = ("windows", "exemplars")


class RunReport:
    """Metrics + spans + stage timings for one run, as one artifact."""

    __slots__ = (
        "spec",
        "metrics",
        "spans",
        "timings",
        "notes",
        "created_at",
        "git_sha",
        "windows",
        "exemplars",
    )

    def __init__(
        self,
        spec: Optional[RunSpec] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        timer: Optional[StageTimer] = None,
        notes: Optional[Dict[str, object]] = None,
        created_at: Optional[str] = None,
        git_sha: Optional[str] = None,
        windows: Optional[List[Dict[str, object]]] = None,
        exemplars: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        self.spec = spec
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Dict[str, object]] = (
            list(tracer.events) if tracer is not None else []
        )
        self.timings: Dict[str, Dict[str, float]] = (
            timer.as_dict() if timer is not None else {}
        )
        self.notes: Dict[str, object] = dict(notes or {})
        # v3 serving-telemetry sections: TimeseriesRecorder window
        # snapshots and ExemplarBuffer span trees, both already plain
        # dicts (window_dicts() / as_dicts()).
        self.windows: List[Dict[str, object]] = list(windows or [])
        self.exemplars: List[Dict[str, object]] = list(exemplars or [])
        # Identity defaults go through the provenance env seams
        # (REPRO_CREATED_AT / REPRO_GIT_SHA) so tests stay deterministic.
        self.created_at: Optional[str] = (
            created_at if created_at is not None else now_iso()
        )
        self.git_sha: Optional[str] = (
            git_sha if git_sha is not None else current_git_sha()
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": RUN_REPORT_SCHEMA_VERSION,
            "kind": REPORT_KIND,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "metrics": self.metrics.as_dict(),
            "spans": list(self.spans),
            "timings": dict(self.timings),
            "notes": dict(self.notes),
            "windows": list(self.windows),
            "exemplars": list(self.exemplars),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunReport":
        problems = validate_report(payload)
        if problems:
            raise ValueError(
                "invalid RunReport payload: " + "; ".join(problems)
            )
        report = cls(notes=payload.get("notes") or {})
        if payload["spec"] is not None:
            from ..platforms.runspec import RunSpec  # deferred: avoids cycle

            report.spec = RunSpec.from_dict(payload["spec"])
        report.created_at = payload["created_at"]
        report.git_sha = payload["git_sha"]
        report.metrics = MetricsRegistry.from_dict(payload["metrics"])
        report.spans = list(payload["spans"])
        report.windows = list(payload["windows"])
        report.exemplars = list(payload["exemplars"])
        report.timings = {
            str(stage): {str(k): float(v) for k, v in entry.items()}
            for stage, entry in payload["timings"].items()
        }
        return report

    def write(self, path: Optional[Union[str, Path]] = None) -> Path:
        if path is None:
            path = default_report_path(self.spec)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable summary: spec, timings, then all metrics."""
        lines = []
        header = self.spec.stem if self.spec is not None else "unkeyed run"
        lines.append(f"== RunReport: {header} ==")
        if self.created_at or self.git_sha:
            lines.append(
                f"created {self.created_at or '?'} "
                f"at commit {self.git_sha or '?'}"
            )
        if self.timings:
            lines.append("-- stage timings --")
            for stage in sorted(self.timings):
                entry = self.timings[stage]
                lines.append(
                    f"{stage}: {entry['seconds']:.4f}s"
                    f" over {int(entry['calls'])} call(s)"
                )
        if len(self.metrics):
            lines.append("-- metrics --")
            lines.append(self.metrics.render())
        lines.append(f"-- spans: {len(self.spans)} recorded --")
        if self.windows or self.exemplars:
            lines.append(
                f"-- serving telemetry: {len(self.windows)} window(s), "
                f"{len(self.exemplars)} exemplar(s) --"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunReport(spec={self.spec}, metrics={len(self.metrics)}, "
            f"spans={len(self.spans)})"
        )


def default_report_path(spec: Optional[RunSpec]) -> Path:
    """``results/obs/<spec-stem>_report.json`` (or ``run_report.json``)."""
    stem = spec.stem if spec is not None else "run"
    return DEFAULT_REPORT_DIR / f"{stem}_report.json"


def validate_report(payload: object) -> List[str]:
    """Schema problems with a report payload; empty list means valid.

    Used by :meth:`RunReport.from_dict` and ``repro obs show`` (the CI
    smoke step).
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    version = payload["schema_version"]
    if version != RUN_REPORT_SCHEMA_VERSION:
        problems.append(
            f"unsupported schema version {version!r} (this build supports "
            f"version {RUN_REPORT_SCHEMA_VERSION} only; a newer version "
            "means the report was written by a newer repro — upgrade to "
            "read it; an older one must be re-recorded)"
        )
        return problems
    for key in IDENTITY_KEYS:
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif payload[key] is not None and not isinstance(payload[key], str):
            problems.append(f"key {key!r} must be a string or null")
    for key in TELEMETRY_KEYS:
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif not isinstance(payload[key], list):
            problems.append(f"key {key!r} must be a list")
    if payload["kind"] != REPORT_KIND:
        problems.append(f"kind is {payload['kind']!r}, not {REPORT_KIND!r}")
    metrics = payload["metrics"]
    if not isinstance(metrics, dict) or not all(
        section in metrics for section in ("counters", "gauges", "histograms")
    ):
        problems.append("metrics must hold counters/gauges/histograms")
    if not isinstance(payload["spans"], list):
        problems.append("spans must be a list of trace events")
    if not isinstance(payload["timings"], dict):
        problems.append("timings must be a StageTimer mapping")
    return problems
