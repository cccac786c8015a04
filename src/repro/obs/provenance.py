"""Artifact provenance: who produced a file, from what, and when.

Every JSON artifact the harness writes — RunReports, figure data from
``repro experiments --output``, ``results/`` simulation artifacts — is
stamped with a ``provenance`` object carrying the producing
:class:`~repro.platforms.runspec.RunSpec` (when one applies), the git
commit, a wall-clock timestamp, and a digest of the metrics snapshot
that was live at write time. A figure regenerated from stale inputs or
an unknown working tree is then detectable by inspection
(``python -m repro obs show FILE``) instead of by archaeology.

Both identity sources go through env seams so tests stay deterministic:

- ``REPRO_GIT_SHA`` overrides commit discovery (otherwise
  ``git rev-parse HEAD``; ``unknown`` when not in a checkout).
- ``REPRO_CREATED_AT`` overrides the timestamp verbatim, and
  ``SOURCE_DATE_EPOCH`` (the reproducible-builds convention) is honored
  next; otherwise the current UTC time is used.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from typing import Dict, List, Optional

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "PROVENANCE_KEY",
    "current_git_sha",
    "now_iso",
    "metrics_digest",
    "make_stamp",
    "stamp_payload",
    "read_stamp",
    "validate_stamp",
]

PROVENANCE_SCHEMA_VERSION = 1

#: Key under which the stamp is embedded in a JSON artifact.
PROVENANCE_KEY = "provenance"

#: Stamp fields that must always be present.
REQUIRED_STAMP_KEYS = (
    "schema_version",
    "git_sha",
    "created_at",
    "metrics_digest",
    "generator",
)

_UNKNOWN_SHA = "unknown"


def current_git_sha() -> str:
    """The commit the working tree is at (``REPRO_GIT_SHA`` wins).

    Never raises: outside a git checkout (or with git missing) the
    sentinel ``"unknown"`` is returned, so artifact writing works in
    exported tarballs too.
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return _UNKNOWN_SHA
    sha = completed.stdout.strip()
    if completed.returncode != 0 or not sha:
        return _UNKNOWN_SHA
    return sha


def now_iso() -> str:
    """UTC timestamp ``YYYY-mm-ddTHH:MM:SSZ`` behind the env seams.

    ``REPRO_CREATED_AT`` is returned verbatim (tests pin it to a known
    string); ``SOURCE_DATE_EPOCH`` is interpreted as a Unix timestamp.
    """
    override = os.environ.get("REPRO_CREATED_AT")
    if override:
        return override
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        try:
            stamp = float(epoch)
        except ValueError:
            stamp = time.time()
    else:
        stamp = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


def metrics_digest(metrics_payload: Optional[Dict]) -> str:
    """Short stable digest of a metrics snapshot (``as_dict`` payload).

    ``None`` (metrics disabled at write time) digests the empty object,
    so the field is always comparable.
    """
    canonical = json.dumps(
        metrics_payload or {}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def make_stamp(
    spec: Optional[object] = None,
    metrics: Optional[Dict] = None,
    generator: str = "repro",
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A fresh provenance stamp.

    ``spec`` may be a :class:`~repro.platforms.runspec.RunSpec` (its
    ``to_dict`` is embedded) or ``None`` for artifacts not tied to one
    workload. ``metrics`` is the live registry snapshot to digest;
    pass ``get_metrics().as_dict()`` or ``None``.
    """
    spec_payload = None
    if spec is not None:
        spec_payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    stamp: Dict[str, object] = {
        "schema_version": PROVENANCE_SCHEMA_VERSION,
        "git_sha": current_git_sha(),
        "created_at": now_iso(),
        "metrics_digest": metrics_digest(metrics),
        "generator": str(generator),
        "spec": spec_payload,
    }
    if extra:
        stamp.update({str(k): v for k, v in extra.items()})
    return stamp


def stamp_payload(
    payload: Dict[str, object],
    spec: Optional[object] = None,
    metrics: Optional[Dict] = None,
    generator: str = "repro",
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Embed a stamp into an artifact payload (mutates and returns it)."""
    payload[PROVENANCE_KEY] = make_stamp(
        spec=spec, metrics=metrics, generator=generator, extra=extra
    )
    return payload


def read_stamp(payload: object) -> Optional[Dict[str, object]]:
    """The embedded stamp of an artifact payload, or ``None``."""
    if not isinstance(payload, dict):
        return None
    stamp = payload.get(PROVENANCE_KEY)
    return stamp if isinstance(stamp, dict) else None


def validate_stamp(stamp: object) -> List[str]:
    """Schema problems with a provenance stamp; empty list means valid."""
    if not isinstance(stamp, dict):
        return ["provenance stamp is not a JSON object"]
    problems: List[str] = []
    for key in REQUIRED_STAMP_KEYS:
        if key not in stamp:
            problems.append(f"missing provenance key {key!r}")
    if problems:
        return problems
    version = stamp["schema_version"]
    if version != PROVENANCE_SCHEMA_VERSION:
        problems.append(
            f"unsupported provenance schema version {version!r} "
            f"(supported: {PROVENANCE_SCHEMA_VERSION})"
        )
    for key in ("git_sha", "created_at", "metrics_digest", "generator"):
        if not isinstance(stamp[key], str) or not stamp[key]:
            problems.append(f"provenance key {key!r} must be a non-empty string")
    spec_payload = stamp.get("spec")
    if spec_payload is not None:
        if not isinstance(spec_payload, dict):
            problems.append("provenance spec must be an object or null")
        else:
            from ..platforms.runspec import RunSpec

            try:
                RunSpec.from_dict(spec_payload)
            except (KeyError, ValueError, TypeError) as exc:
                problems.append(f"provenance spec does not load: {exc}")
    return problems


def render_stamp(stamp: Dict[str, object]) -> str:
    """Human-readable one-stamp summary for the CLI."""
    lines = [
        f"git sha:        {stamp.get('git_sha')}",
        f"created at:     {stamp.get('created_at')}",
        f"metrics digest: {stamp.get('metrics_digest')}",
        f"generator:      {stamp.get('generator')}",
    ]
    spec_payload = stamp.get("spec")
    if isinstance(spec_payload, dict):
        from ..platforms.runspec import RunSpec

        try:
            lines.append(f"run spec:       {RunSpec.from_dict(spec_payload).stem}")
        except (KeyError, ValueError, TypeError):
            lines.append(f"run spec:       {spec_payload}")
    else:
        lines.append("run spec:       (none)")
    for key in sorted(stamp):
        if key in REQUIRED_STAMP_KEYS or key == "spec":
            continue
        lines.append(f"{key + ':':<16}{stamp[key]}")
    return "\n".join(lines)
