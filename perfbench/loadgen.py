"""Load generation over a ``ServingPipeline``: seeded Poisson schedules, an
open loop that times every request from its due time, and a closed loop of
callers that each resubmit on reply.

``ServingPipeline.run_round`` is synchronous, so a request that falls due
while a round runs can only be submitted once the round returns. The open
loop submits every such request before the next round and still times it
from when it was due, which charges the stall to the requests that waited
for it. How late each submission ran is kept as the generator's lag.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-quantile of ``values``.

    Raises ``ValueError`` when fewer than ``min_tail`` samples lie beyond
    it: such a tail is a handful of unlucky requests, not a property of
    the system.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    rank = max(1, math.ceil(q * len(values)))
    beyond = len(values) - rank
    if beyond < min_tail:
        raise ValueError(
            f"p{100 * q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {min_tail}"
        )
    return float(sorted(values)[rank - 1])


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due offsets, in seconds from the phase start, of Poisson arrivals."""
    if rate <= 0 or count < 1:
        raise ValueError("need a positive rate and at least one arrival")
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass(frozen=True)
class Op:
    """One scheduled operation; ``kind`` is ``"query"`` or ``"insert"``."""

    due: float
    kind: str
    graph: object


@dataclass
class Served:
    """What became of one query."""

    graph: object
    due: float
    #: ``pending``, then ``ok``, ``expired``, ``rejected`` or ``error``.
    status: str = "pending"
    request_id: int = -1
    submitted_at: float = math.nan
    #: From the due time to the response.
    latency_s: float = math.nan
    #: Database size when the query was served.
    db_size: int = 0
    results: tuple = ()


@dataclass
class Tally:
    """Operations attempted and failed. A failure is a rejection, an
    expiry, or an operation that raised."""

    attempted: int = 0
    rejected: int = 0
    expired: int = 0
    errors: int = 0

    @property
    def failed(self) -> int:
        return self.rejected + self.expired + self.errors

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Driver:
    """Feeds one pipeline, and its index for inserts, and keeps the tally.

    ``clock`` must be the pipeline's clock, because latency joins the due
    times kept here with the submit times the pipeline stamps.
    """

    def __init__(
        self,
        index,
        pipeline,
        top_k: int,
        limit_s: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.index = index
        self.pipeline = pipeline
        self.top_k = top_k
        self.limit_s = limit_s
        self.clock = clock
        self.sleep = sleep
        self.tally = Tally()
        #: Submission time minus due time, per open-loop operation.
        self.lags: List[float] = []
        self.first_error: Optional[str] = None

    def _error(self, exc: BaseException, count: int = 1) -> None:
        self.tally.errors += count
        if self.first_error is None:
            self.first_error = f"{type(exc).__name__}: {exc}"

    def _insert(self, graph) -> None:
        self.tally.attempted += 1
        try:
            self.index.add(graph)
        except Exception as exc:  # a failed operation, counted and reported
            self._error(exc)

    def _submit(self, graph, due: float, pending: Dict[int, Served]) -> Served:
        self.tally.attempted += 1
        record = Served(graph, due)
        try:
            request = self.pipeline.submit(
                graph, self.top_k, timeout_seconds=self.limit_s
            )
        except Exception as exc:  # a failed operation, counted and reported
            self._error(exc)
            record.status = "error"
            return record
        if request is None:
            self.tally.rejected += 1
            record.status = "rejected"
            return record
        record.request_id = request.request_id
        record.submitted_at = request.submitted_at
        pending[request.request_id] = record
        return record

    def _fail_pending(self, pending: Dict[int, Served], exc: BaseException) -> int:
        lost = list(pending.values())
        pending.clear()
        for record in lost:
            record.status = "error"
        self._error(exc, len(lost))
        return len(lost)

    def _round(self, pending: Dict[int, Served]) -> int:
        """Run one round; returns how many pending queries it settled."""
        db_size = len(self.index)
        try:
            responses = self.pipeline.run_round()
        except Exception as exc:  # every query of the round failed
            return self._fail_pending(pending, exc)
        for response in responses:
            record = pending.pop(response.request_id)
            record.latency_s = (
                record.submitted_at + response.latency_seconds - record.due
            )
            record.db_size = db_size
            if response.ok:
                record.status = "ok"
                record.results = tuple(response.results)
            else:
                record.status = "expired"
                self.tally.expired += 1
        if not responses and pending and not len(self.pipeline.queue):
            return self._fail_pending(pending, RuntimeError("queries left unanswered"))
        return len(responses)

    def open_loop(self, ops: Sequence[Op]) -> List[Served]:
        """Run ``ops`` at their due times; one record per query, in order."""
        start = self.clock()
        served: List[Served] = []
        pending: Dict[int, Served] = {}
        position = 0
        while position < len(ops) or pending:
            now = self.clock()
            while position < len(ops) and start + ops[position].due <= now:
                op = ops[position]
                position += 1
                due = start + op.due
                if op.kind == "insert":
                    self.lags.append(self.clock() - due)
                    self._insert(op.graph)
                    continue
                record = self._submit(op.graph, due, pending)
                if record.status == "pending":
                    self.lags.append(record.submitted_at - due)
                served.append(record)
            if pending:
                self._round(pending)
            elif position < len(ops):
                self.sleep(max(0.0, start + ops[position].due - self.clock()))
        return served

    def closed_loop(
        self,
        next_op: Callable[[], Op],
        clients: int,
        duration_s: float,
        minimum: int = 0,
    ) -> Tuple[List[Served], float]:
        """``clients`` callers each resubmit on reply until ``duration_s``
        has passed and at least ``minimum`` queries were sent. Returns the
        records and completed queries per second."""
        served: List[Served] = []
        pending: Dict[int, Served] = {}

        def call() -> None:
            op = next_op()
            while op.kind == "insert":
                self._insert(op.graph)
                op = next_op()
            served.append(self._submit(op.graph, self.clock(), pending))

        start = end = self.clock()
        for _ in range(clients):
            call()
        while pending:
            replies = self._round(pending)
            end = self.clock()
            if end - start < duration_s or len(served) < minimum:
                for _ in range(replies):
                    call()
        done = sum(record.status == "ok" for record in served)
        return served, done / max(end - start, 1e-9)
