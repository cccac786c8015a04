"""Spans recorded from outside the program, around each layer's entry points.

A traced run installs wrappers on the public entry points of every layer
(the target lists live with each workload's probe). Each call records one
span: name, start, end, parent span, and the request or batch id it
serves. Spans stay in memory and are written out when the run ends.
Uninstalling restores every wrapped attribute exactly as it was, so the
untraced runs that produce the end-to-end metrics execute unmodified
program code.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        tag: Optional[object] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span log; the innermost open span parents the next one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def open(self, name: str, tag: Optional[object] = None) -> int:
        parent = self._open[-1] if self._open else -1
        now = self.clock()
        self.spans.append(Span(name, now, now, parent, tag))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if not self._open or self._open.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextmanager
    def span(self, name: str, tag: Optional[object] = None) -> Iterator[Span]:
        index = self.open(name, tag)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def dump(self, handle, **meta: object) -> None:
        """Write the spans as JSON lines, after one header line."""
        handle.write(json.dumps({"meta": meta}, default=str) + "\n")
        for index, span in enumerate(self.spans):
            record = {
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "tag": span.tag,
            }
            handle.write(json.dumps(record, default=str) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[child].start, span.start), min(spans[child].end, span.end))
            for child in children[index]
        )
        covered = 0.0
        run_start = run_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


def totals_by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"count", "total_s", "self_s"}}`` over a span log."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span.name, {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table


def format_table(spans: List[Span], per: float, per_label: str) -> List[str]:
    """Count, total and self time per span name, and self time per unit."""
    rows = sorted(totals_by_name(spans).items(), key=lambda item: -item[1]["self_s"])
    lines = [
        f"  {'span':<36}{'count':>9}{'total_ms':>12}{'self_ms':>12}"
        f"{'self_ms/' + per_label:>14}"
    ]
    for name, row in rows:
        lines.append(
            f"  {name:<36}{row['count']:>9.0f}{row['total_s'] * 1e3:>12.1f}"
            f"{row['self_s'] * 1e3:>12.1f}"
            f"{row['self_s'] * 1e3 / max(per, 1.0):>14.3f}"
        )
    return lines


#: ``observe(span_index, args, kwargs, result)``, called after each call.
Observer = Callable[[int, tuple, dict, object], None]


class Wrappers:
    """Span wrappers installed on module or class attributes.

    ``wrap`` replaces ``owner.attr`` with a function that records a span
    around the original call and then hands the span's index, the
    arguments and the result to ``observe``. ``uninstall`` restores every
    attribute in reverse order; an attribute the owner only inherited is
    deleted again rather than pinned on the owner.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: ``(owner, attr, had_own, original)`` per installed wrapper.
        self.installed: List[tuple] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: "str | Callable[[tuple], str]",
        tag: Optional[Callable[[tuple, dict], object]] = None,
        observe: Optional[Observer] = None,
    ) -> None:
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain callable")
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            index = recorder.open(label, None if tag is None else tag(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, had_own, original))

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, had_own, original = self.installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __len__(self) -> int:
        return len(self.installed)
