"""Batch scheduling: coalesce admitted queries into GMN batches.

Middle stage of the serving pipeline. Drained requests are first
**deduplicated** — byte-identical queries (same graph signature, same
``top_k``) collapse into one :class:`QueryGroup` whose primary request
is scored once and whose followers share the frozen results. This is
the EMF move (detect exact duplicates, compute once, broadcast) applied
at request granularity: code-clone search traffic is exactly the
workload where many users submit the same hot graph.

Groups are then ordered by a pluggable :class:`SchedulingPolicy` (the
Helix ``SchedulingMethod`` shape — a string-valued enum selecting the
strategy) and chunked into :class:`QueryBatch`\\ es sized for the
cross-pair batched engines: every query in a batch is scored against
the database in one coalesced sweep, so batch size here is the unit
the executor hands to them.

Policies:

- ``fifo`` — arrival order; the latency-fair default.
- ``deadline`` — earliest deadline first (deadline-less requests run
  last); overloaded queues finish urgent work before it expires.
- ``size_bucketed`` — ascending query-graph node count; batches become
  size-uniform, which keeps the batched engines' padded programs dense.

All orderings tie-break by arrival (request id), so scheduling is
deterministic and results remain bit-identical to the flat path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import get_metrics
from ..obs.context import RequestTracker
from .requests import QueryRequest
from .storage import graph_signature

__all__ = ["SchedulingPolicy", "QueryGroup", "QueryBatch", "BatchScheduler"]


class SchedulingPolicy(Enum):
    """How a scheduling round orders query groups into batches."""

    FIFO = "fifo"
    DEADLINE = "deadline"
    SIZE_BUCKETED = "size_bucketed"

    @classmethod
    def parse(cls, value: "SchedulingPolicy | str") -> "SchedulingPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(policy.value for policy in cls)
            raise ValueError(
                f"unknown scheduling policy {value!r}; known: {known}"
            ) from None


@dataclass(frozen=True)
class QueryGroup:
    """Requests sharing one (query graph, top_k) — scored once.

    ``requests[0]`` is the primary (earliest arrival); followers are
    byte-identical duplicates that receive the primary's results.
    """

    requests: Tuple[QueryRequest, ...]

    @property
    def primary(self) -> QueryRequest:
        return self.requests[0]

    @property
    def graph(self):
        return self.primary.graph

    @property
    def top_k(self) -> int:
        return self.primary.top_k

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class QueryBatch:
    """One unit of execution: query groups scored in a single sweep."""

    batch_id: int
    groups: Tuple[QueryGroup, ...]
    policy: SchedulingPolicy

    @property
    def num_queries(self) -> int:
        """Distinct queries scored (one per group)."""
        return len(self.groups)

    @property
    def num_requests(self) -> int:
        """Requests answered, including dedup followers."""
        return sum(len(group) for group in self.groups)

    def get_description(self) -> str:
        return (
            f"QueryBatch {self.batch_id} [{self.policy.value}]: "
            f"{self.num_queries} queries serving {self.num_requests} "
            "requests"
        )


class BatchScheduler:
    """Turn drained requests into ordered, bounded query batches.

    Parameters
    ----------
    policy:
        A :class:`SchedulingPolicy` (or its string value).
    max_batch_queries:
        Upper bound on *distinct* queries per batch — the cross-pair
        batch the executor coalesces for the batched engines.
    tracker:
        Optional :class:`~repro.obs.context.RequestTracker`; when set,
        every scheduled request is annotated with its batch id, group
        size, and primary — the scheduling decision joined to the
        request's span tree.
    """

    def __init__(
        self,
        policy: "SchedulingPolicy | str" = SchedulingPolicy.FIFO,
        max_batch_queries: int = 8,
        tracker: Optional[RequestTracker] = None,
    ) -> None:
        if max_batch_queries < 1:
            raise ValueError("max_batch_queries must be >= 1")
        self.policy = SchedulingPolicy.parse(policy)
        self.max_batch_queries = max_batch_queries
        self.tracker = tracker
        self._next_batch_id = 0

    def group_requests(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryGroup]:
        """Collapse byte-identical (graph, top_k) requests into groups."""
        buckets: Dict[Tuple[bytes, int], List[QueryRequest]] = {}
        for request in requests:
            key = (graph_signature(request.graph), request.top_k)
            buckets.setdefault(key, []).append(request)
        groups = [QueryGroup(tuple(members)) for members in buckets.values()]
        # Insertion order of a dict is arrival order of each primary,
        # but make it explicit: groups are FIFO by primary until a
        # policy reorders them.
        groups.sort(key=lambda group: group.primary.request_id)
        return groups

    def _order(self, groups: List[QueryGroup]) -> List[QueryGroup]:
        if self.policy is SchedulingPolicy.FIFO:
            key = lambda g: (g.primary.request_id,)  # noqa: E731
        elif self.policy is SchedulingPolicy.DEADLINE:
            key = lambda g: (  # noqa: E731
                g.primary.deadline is None,
                g.primary.deadline if g.primary.deadline is not None else 0.0,
                g.primary.request_id,
            )
        else:  # SIZE_BUCKETED
            key = lambda g: (g.graph.num_nodes, g.primary.request_id)  # noqa: E731
        return sorted(groups, key=key)

    def build_batches(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryBatch]:
        """One scheduling round: dedup, order by policy, chunk."""
        if not requests:
            return []
        groups = self._order(self.group_requests(requests))
        batches: List[QueryBatch] = []
        for start in range(0, len(groups), self.max_batch_queries):
            batch = QueryBatch(
                batch_id=self._next_batch_id,
                groups=tuple(groups[start : start + self.max_batch_queries]),
                policy=self.policy,
            )
            self._next_batch_id += 1
            batches.append(batch)
        metrics = get_metrics()
        if metrics is not None:
            metrics.inc("search.serve.batches", len(batches))
            metrics.inc(
                "search.serve.deduped_requests",
                len(requests) - len(groups),
            )
        if self.tracker is not None:
            for batch in batches:
                for group in batch.groups:
                    for request in group.requests:
                        self.tracker.annotate(
                            request.request_id,
                            batch=batch.batch_id,
                            group_size=len(group),
                            primary=group.primary.request_id,
                            policy=self.policy.value,
                        )
        return batches
