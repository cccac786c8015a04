"""The run store: one append-only history of provenance-stamped runs.

CEGMA's evaluation rests on counted quantities that are pure functions
of the code — DRAM bytes (Fig. 17), the remaining matching fraction
(Fig. 18), cycle counts — while wall-clock time is host noise. Every
artifact that carries either kind of number is "a run":

- a :class:`~repro.obs.report.RunReport` (``--metrics`` output) is one
  point of the series keyed by :func:`spec_key` of its RunSpec;
- a :class:`~repro.perf.timing.BenchReport` (``repro bench``) is one
  point of the series keyed by its bench name; perfbench's reports are
  the series ``perfbench-<workload>``, one sample per seed of each
  end-to-end metric, with the metric's ``better`` and ``bound`` in the
  config for the gate.

Each series is one JSONL file, ``results/obs/runs/<series>.jsonl``.
Lines carry the source artifact verbatim, so consumers (the dashboard,
stage attribution) read serving histograms, windows and exemplars back
from the store. :func:`ingest` classifies an artifact once: exact
values (deterministic-prefixed counters, gauges and histogram
fingerprints; scalar bench checks not named as throughput or latency),
environmental values (info only: everything else, such as perfbench's
per-seed ``attempted``/``failed`` lists), samples and speedups.

Properties the store guarantees:

- **Append-only.** Nothing is rewritten in place; the file is also the
  audit log. Reads return runs in ``created_at`` order (append order
  breaks ties).
- **Idempotent.** ``entry_id`` is a digest of the artifact, so
  recording the same file twice is a no-op.
- **Honest about damage.** A truncated or malformed line (a crashed
  writer) is skipped and counted; a valid line with an unknown schema
  version is rejected, so an old reader never misreads new data.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .provenance import metrics_digest
from .report import REPORT_KIND, RunReport

if TYPE_CHECKING:
    from ..platforms.runspec import RunSpec

__all__ = [
    "DEFAULT_STORE_DIR",
    "DETERMINISTIC_PREFIXES",
    "ENTRY_KIND",
    "STORE_SCHEMA_VERSION",
    "Run",
    "RunStore",
    "config_digest",
    "ingest",
    "is_deterministic",
    "is_environmental_check",
    "spec_key",
]

STORE_SCHEMA_VERSION = 1
ENTRY_KIND = "repro-run-entry"

DEFAULT_STORE_DIR = Path("results") / "obs" / "runs"

#: Serving counters that are pure functions of (code, stream): how many
#: requests were admitted/rejected at a given queue depth, how many the
#: scheduler deduplicated, how many candidate scorings the executor
#: broadcast, and how many batches a policy built. Deadline-dependent
#: serving metrics (``expired``, ``responses{status=}``), the live
#: ``queue_depth`` gauge, and the wall-clock latency/budget histograms
#: stay environmental — they move with the host, not the code.
SERVING_DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "search.serve.admitted",
    "search.serve.rejected",
    "search.serve.batches",
    "search.serve.deduped_requests",
    "search.serve.candidate_dedup_hits",
)

#: Metric-name prefixes whose values are pure functions of (code, spec).
#: Everything else — memo/disk-cache hit counters, worker-failure
#: counts — depends on the environment and is reported informationally.
DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "sim.",
    "emf.",
    "cgc.",
    "dram.",
    "pe.",
) + SERVING_DETERMINISTIC_PREFIXES

#: Bench check names containing these move with the host, not the code
#: (queries/sec, latency quantiles, per-pass averages).
ENVIRONMENTAL_MARKERS: Tuple[str, ...] = ("seconds", "per_second")

logger = logging.getLogger("repro.obs.store")


def is_deterministic(name: str) -> bool:
    """Whether a RunReport metric must match its baseline exactly."""
    return name.startswith(DETERMINISTIC_PREFIXES)


def is_environmental_check(name: str) -> bool:
    """Whether a bench check value is host-dependent (info only)."""
    return any(marker in name for marker in ENVIRONMENTAL_MARKERS)


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: object, length: int) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[
        :length
    ]


def spec_key(spec: "RunSpec") -> str:
    """Series name for one workload identity: stem + payload digest.

    The digest guards against stem collisions if the stem format ever
    changes.
    """
    return f"{spec.stem}-{_digest(spec.to_dict(), 8)}"


def config_digest(config: Optional[Dict]) -> str:
    """Short stable digest of a run's config (bench parameters or spec).

    Runs are only comparable when their configs match (quick vs. full
    sizes, worker counts, ...).
    """
    return _digest(config or {}, 16)


def _check_series(name: str) -> str:
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"invalid series name {name!r}")
    return name


@dataclass(frozen=True)
class Run:
    """One recorded run, classified at ingestion.

    ``exact`` and ``environmental`` map a section (``counter``,
    ``gauge``, ``histogram`` for RunReports; ``check`` for benches) to
    ``{name: value}``. ``samples`` maps each timed variant (a bench
    variant or a RunReport stage) to its raw readings.
    """

    series: str
    kind: str  # "report" | "bench"
    entry_id: str
    artifact: Dict
    provenance: Dict
    config: Dict = field(default_factory=dict)
    exact: Dict[str, Dict[str, object]] = field(default_factory=dict)
    environmental: Dict[str, Dict[str, object]] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    speedups: Dict[str, float] = field(default_factory=dict)

    @property
    def git_sha(self) -> str:
        return str(self.provenance.get("git_sha") or "unknown")

    @property
    def created_at(self) -> str:
        return str(self.provenance.get("created_at") or "")

    @property
    def config_key(self) -> str:
        return config_digest(self.config)

    def report(self) -> RunReport:
        """The source RunReport (``kind == "report"`` only)."""
        if self.kind != "report":
            raise ValueError(f"run {self.entry_id} is a {self.kind}, not a report")
        return RunReport.from_dict(self.artifact)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "kind": ENTRY_KIND,
            "entry_id": self.entry_id,
            "artifact": self.artifact,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Run":
        if not isinstance(payload, dict):
            raise ValueError("store entry is not a JSON object")
        version = payload.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-store schema version {version!r} "
                f"(this build supports version {STORE_SCHEMA_VERSION}; "
                "a newer version means the store was written by a newer "
                "repro — upgrade to read it)"
            )
        if payload.get("kind") != ENTRY_KIND:
            raise ValueError(
                f"kind is {payload.get('kind')!r}, not {ENTRY_KIND!r}"
            )
        if "artifact" not in payload:
            raise ValueError("store entry is missing key 'artifact'")
        return ingest(payload["artifact"])


def _fingerprint(histogram: Dict[str, object]) -> Tuple:
    """The deterministic part of a serialized histogram."""
    return (
        tuple(histogram.get("bucket_counts", ())),
        histogram.get("count"),
        histogram.get("total"),
        histogram.get("min"),
        histogram.get("max"),
    )


def _ingest_report(artifact: Dict) -> Run:
    report = RunReport.from_dict(artifact)
    if report.spec is None:
        raise ValueError("cannot record an unkeyed RunReport (spec=None)")
    exact: Dict[str, Dict[str, object]] = {}
    environmental: Dict[str, Dict[str, object]] = {}
    sections = (
        ("counter", report.metrics.counters),
        ("gauge", report.metrics.gauges),
        (
            "histogram",
            {
                name: _fingerprint(histogram.as_dict())
                for name, histogram in report.metrics.histograms.items()
            },
        ),
    )
    for section, values in sections:
        for name, value in values.items():
            sink = exact if is_deterministic(name) else environmental
            sink.setdefault(section, {})[name] = value
    provenance = {
        "schema_version": 1,
        "git_sha": report.git_sha or "unknown",
        "created_at": report.created_at or "",
        "metrics_digest": metrics_digest(artifact["metrics"]),
        "generator": "repro.obs.report",
        "spec": report.spec.to_dict(),
    }
    return Run(
        series=spec_key(report.spec),
        kind="report",
        entry_id=_digest(artifact, 16),
        artifact=artifact,
        provenance=provenance,
        config=report.spec.to_dict(),
        exact=exact,
        environmental=environmental,
        # A stage timing is one reading; the gate's ratio band applies.
        samples={
            stage: [float(entry.get("seconds", 0.0))]
            for stage, entry in report.timings.items()
        },
    )


def _ingest_bench(artifact: Dict) -> Run:
    from ..perf.timing import BenchReport

    report = BenchReport.from_dict(artifact)
    exact: Dict[str, Dict[str, object]] = {}
    environmental: Dict[str, Dict[str, object]] = {}
    for name, value in report.checks.items():
        host_bound = is_environmental_check(name) or not isinstance(
            value, (bool, int, float, str)
        )
        sink = environmental if host_bound else exact
        sink.setdefault("check", {})[name] = value
    stamp = artifact.get("provenance")
    return Run(
        series=_check_series(report.name),
        kind="bench",
        entry_id=_digest(artifact, 16),
        artifact=artifact,
        provenance=dict(stamp) if isinstance(stamp, dict) else {},
        config=report.config,
        exact=exact,
        environmental=environmental,
        samples=report.samples,
        speedups=report.speedups,
    )


def ingest(artifact: Dict) -> Run:
    """Classify a RunReport or BenchReport payload into a :class:`Run`.

    Raises ``ValueError`` for anything else, for unkeyed RunReports,
    and for unknown schema versions of either artifact.
    """
    if not isinstance(artifact, dict):
        raise ValueError("artifact is not a JSON object")
    if artifact.get("kind") == REPORT_KIND:
        return _ingest_report(artifact)
    return _ingest_bench(artifact)


class RunStore:
    """The on-disk store: one JSONL file per series."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_STORE_DIR
        #: Malformed lines skipped by the most recent :meth:`read`.
        self.last_skipped = 0

    def path_for(self, series: str) -> Path:
        return self.root / f"{_check_series(series)}.jsonl"

    def series(self) -> List[str]:
        """Series names with recorded runs, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem for path in self.root.glob("*.jsonl") if path.is_file()
        )

    def read(self, series: str) -> List[Run]:
        """All runs of a series, oldest first."""
        path = self.path_for(series)
        self.last_skipped = 0
        if not path.is_file():
            return []
        runs: List[Run] = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                self.last_skipped += 1
                continue
            runs.append(Run.from_dict(payload))
        if self.last_skipped:
            logger.warning(
                "skipped %d malformed line(s) in %s (truncated write?)",
                self.last_skipped,
                path,
            )
        runs.sort(key=lambda run: run.created_at)
        return runs

    def latest(self, series: str) -> Optional[Run]:
        runs = self.read(series)
        return runs[-1] if runs else None

    def append(self, payload: Union[Run, Dict]) -> Tuple[Run, bool]:
        """Record one run; returns ``(run, appended)``.

        ``payload`` is a :class:`Run` or a raw artifact dict. A run
        whose ``entry_id`` is already on file is not appended again.
        """
        run = payload if isinstance(payload, Run) else ingest(payload)
        if any(known.entry_id == run.entry_id for known in self.read(run.series)):
            return run, False
        path = self.path_for(run.series)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(_canonical(run.to_dict()))
            handle.write("\n")
        return run, True

    def record_file(self, path: Union[str, Path]) -> Tuple[Run, bool]:
        """Record one artifact file (RunReport or BENCH JSON)."""
        with open(path) as handle:
            return self.append(json.load(handle))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunStore(root={str(self.root)!r})"
