"""Tail exemplars: full span trees of the requests that hurt.

Aggregates (histograms, windows) say *that* the tail is slow; an SLO
postmortem needs *which* requests were slow and where their time went.
The :class:`ExemplarBuffer` keeps exactly the interesting evidence:

- the **K slowest** completed requests, maintained with a min-heap so a
  long stream costs O(log K) per offer and bounded memory, and
- **every deadline-expired request** (up to a generous bound —
  expirations are the SLO violations themselves, so none are sampled
  away silently; overflow is counted, not dropped quietly).

Each exemplar carries the request's full span tree from the
:class:`~repro.obs.context.RequestTracker`, so RunReport schema v3 (and
``repro obs show``) can show per-stage budget attribution for the exact
requests that missed (or nearly missed) their deadlines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Exemplar", "ExemplarBuffer"]


@dataclass(frozen=True)
class Exemplar:
    """One retained request: identity, outcome, and its span tree."""

    request_id: int
    latency_seconds: float
    status: str
    tree: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "latency_seconds": self.latency_seconds,
            "status": self.status,
            "tree": self.tree,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Exemplar":
        return cls(
            request_id=int(payload["request_id"]),
            latency_seconds=float(payload["latency_seconds"]),
            status=str(payload["status"]),
            tree=payload.get("tree"),
        )


class ExemplarBuffer:
    """Retain the K slowest completions and all deadline expirations."""

    def __init__(self, k_slowest: int = 8, max_expired: int = 256) -> None:
        if k_slowest < 1:
            raise ValueError("k_slowest must be >= 1")
        if max_expired < 1:
            raise ValueError("max_expired must be >= 1")
        self.k_slowest = k_slowest
        self.max_expired = max_expired
        # Min-heap of (latency, sequence, exemplar): the root is the
        # fastest retained request, evicted first.
        self._slow: List[tuple] = []
        self._expired: List[Exemplar] = []
        self._sequence = 0
        self.expired_seen = 0
        self.expired_dropped = 0

    def __len__(self) -> int:
        return len(self._slow) + len(self._expired)

    def offer(
        self,
        request_id: int,
        latency_seconds: float,
        status: str,
        tree: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Consider one finished request; returns True when retained."""
        exemplar = Exemplar(
            request_id=int(request_id),
            latency_seconds=float(latency_seconds),
            status=str(status),
            tree=tree,
        )
        if exemplar.status != "ok":
            self.expired_seen += 1
            if len(self._expired) >= self.max_expired:
                self.expired_dropped += 1
                return False
            self._expired.append(exemplar)
            return True
        self._sequence += 1
        entry = (exemplar.latency_seconds, self._sequence, exemplar)
        if len(self._slow) < self.k_slowest:
            heapq.heappush(self._slow, entry)
            return True
        if entry[0] <= self._slow[0][0]:
            return False
        heapq.heapreplace(self._slow, entry)
        return True

    @property
    def threshold_seconds(self) -> Optional[float]:
        """Latency a completion must exceed to enter the slow set."""
        if len(self._slow) < self.k_slowest:
            return None
        return self._slow[0][0]

    def slowest(self) -> List[Exemplar]:
        """Retained completions, slowest first."""
        return [
            entry[2]
            for entry in sorted(self._slow, key=lambda e: (-e[0], e[1]))
        ]

    def expired(self) -> List[Exemplar]:
        """Retained expirations, in arrival order."""
        return list(self._expired)

    def as_dicts(self) -> List[Dict[str, object]]:
        """Every retained exemplar as a plain dict (RunReport v3)."""
        return [exemplar.to_dict() for exemplar in self.slowest()] + [
            exemplar.to_dict() for exemplar in self.expired()
        ]
