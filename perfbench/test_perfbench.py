"""Tests of the benchmark's own machinery.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest

from perfbench.loadgen import Driver, Op, percentile, poisson_schedule
from perfbench.spans import Span, SpanRecorder, Wrappers, self_times, totals_by_name


class FakeTime:
    """A clock that moves only when the driver sleeps or a round runs."""

    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class StubPipeline:
    """Answers by the query's label: ``ok`` is served, ``expire`` expires,
    ``boom`` makes its round raise and ``reject`` is refused at submit.
    Every round takes ``round_s`` on the fake clock."""

    def __init__(self, fake: FakeTime, round_s: float = 0.0) -> None:
        self.fake = fake
        self.round_s = round_s
        self.queue: list = []
        self._next_id = 0

    def submit(self, graph, top_k, timeout_seconds=None):
        if graph == "reject":
            return None
        request = types.SimpleNamespace(
            request_id=self._next_id, submitted_at=self.fake.now, graph=graph
        )
        self._next_id += 1
        self.queue.append(request)
        return request

    def run_round(self):
        taken, self.queue = self.queue, []
        self.fake.now += self.round_s
        if any(request.graph == "boom" for request in taken):
            raise RuntimeError("boom")
        return [
            types.SimpleNamespace(
                request_id=request.request_id,
                latency_seconds=self.fake.now - request.submitted_at,
                ok=request.graph == "ok",
                results=(),
            )
            for request in taken
        ]


class StubIndex:
    def __init__(self) -> None:
        self.graphs: list = []

    def __len__(self) -> int:
        return len(self.graphs)

    def add(self, graph) -> int:
        if graph == "bad":
            raise ValueError("graph feature dim does not match the index's model")
        self.graphs.append(graph)
        return len(self.graphs) - 1


def _driver(round_s: float = 0.0) -> Driver:
    fake = FakeTime()
    return Driver(
        StubIndex(),
        StubPipeline(fake, round_s),
        top_k=1,
        limit_s=10.0,
        clock=fake.clock,
        sleep=fake.sleep,
    )


class TestSchedules:
    def test_same_seed_gives_the_same_schedule(self):
        first = poisson_schedule(np.random.default_rng(7), 5.0, 200)
        again = poisson_schedule(np.random.default_rng(7), 5.0, 200)
        other = poisson_schedule(np.random.default_rng(8), 5.0, 200)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)
        assert np.all(np.diff(first) > 0)

    def test_workload_operations_depend_only_on_the_seed(self):
        from repro.search.storage import graph_signature

        from perfbench import serving

        workload = dataclasses.replace(
            serving.UNIQUE_INGEST, database_unique=8, database_size=8, distinct_queries=16
        )

        def stream(seed):
            inputs = serving.make_inputs(workload, seed)
            ops = serving.open_ops(workload, inputs, seed, "high", 30)
            return [(op.due, op.kind, graph_signature(op.graph)) for op in ops]

        assert stream(5) == stream(5)
        assert stream(5) != stream(6)
        assert sum(kind == "query" for _, kind, _ in stream(5)) == 30


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(ValueError):
            percentile(list(range(99)), 0.9)
        with pytest.raises(ValueError):
            percentile(list(range(19)), 0.5)

    def test_nearest_rank(self):
        assert percentile(list(range(100)), 0.9) == 89
        assert percentile(list(reversed(range(20))), 0.5) == 9


class TestSelfTime:
    def test_nested_spans_from_the_recorder(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
        recorder = SpanRecorder(clock=lambda: next(ticks))
        with recorder.span("root"):
            with recorder.span("a"):
                with recorder.span("b"):
                    pass
            with recorder.span("c"):
                pass
        assert [span.parent for span in recorder.spans] == [-1, 0, 1, 0]
        assert self_times(recorder.spans) == [5.0, 3.0, 1.0, 1.0]
        table = totals_by_name(recorder.spans)
        assert table["root"] == {"count": 1.0, "total_s": 10.0, "self_s": 5.0}

    def test_overlapping_and_outlying_children_count_once(self):
        spans = [
            Span("parent", 0.0, 10.0),
            Span("x", 1.0, 4.0, parent=0),
            Span("y", 3.0, 6.0, parent=0),
            Span("z", 9.0, 12.0, parent=0),
        ]
        # x and y cover [1, 6]; z is clipped to [9, 10].
        assert self_times(spans)[0] == pytest.approx(4.0)


class TestFailAccounting:
    def test_rejected_expired_and_raised_operations_fail(self):
        driver = _driver()
        ops = [
            Op(0.0, "query", "ok"),
            Op(1.0, "query", "reject"),
            Op(2.0, "query", "expire"),
            Op(3.0, "insert", "bad"),
            Op(4.0, "insert", "good"),
            Op(5.0, "query", "boom"),
        ]
        records = driver.open_loop(ops)
        assert [record.status for record in records] == [
            "ok",
            "rejected",
            "expired",
            "error",
        ]
        tally = driver.tally
        assert (tally.attempted, tally.rejected, tally.expired, tally.errors) == (
            6,
            1,
            1,
            2,
        )
        assert tally.fail_frac == pytest.approx(4 / 6)
        assert len(driver.index) == 1

    def test_latency_runs_from_the_due_time(self):
        driver = _driver(round_s=0.5)
        records = driver.open_loop([Op(0.0, "query", "ok"), Op(0.2, "query", "ok")])
        # The second query fell due while the first round ran: it is
        # submitted after that round, and still timed from when it was due.
        assert [record.latency_s for record in records] == pytest.approx([0.5, 0.8])
        assert driver.lags == pytest.approx([0.0, 0.3])

    def test_closed_loop_resubmits_until_the_duration(self):
        driver = _driver(round_s=0.1)
        records, qps = driver.closed_loop(
            lambda: Op(0.0, "query", "ok"), clients=4, duration_s=0.35
        )
        assert len(records) == 16
        assert qps == pytest.approx(16 / 0.4)


class Base:
    def inherited(self):
        return "base"


class Sub(Base):
    def own(self, value):
        return value + 1


def helper(value):
    return 2 * value


class TestWrappers:
    def test_records_nested_spans_and_uninstalls_completely(self):
        namespace = types.SimpleNamespace(helper=helper)
        namespace.outer = lambda value: namespace.helper(value) + 1
        before = dict(vars(Sub))
        recorder = SpanRecorder()
        wrappers = Wrappers(recorder)
        seen = []
        wrappers.wrap(Sub, "inherited", "sub.inherited")
        wrappers.wrap(
            Sub,
            "own",
            "sub.own",
            observe=lambda index, args, kwargs, result: seen.append((index, result)),
        )
        wrappers.wrap(namespace, "helper", "ns.helper")
        wrappers.wrap(namespace, "outer", "ns.outer")
        assert Sub().own(1) == 2
        assert Sub().inherited() == "base"
        assert namespace.outer(3) == 7
        assert [span.name for span in recorder.spans] == [
            "sub.own",
            "sub.inherited",
            "ns.outer",
            "ns.helper",
        ]
        assert recorder.spans[3].parent == 2
        assert seen == [(0, 2)]
        wrappers.uninstall()
        assert dict(vars(Sub)) == before
        assert "inherited" not in vars(Sub)
        assert namespace.helper is helper
        assert len(wrappers) == 0

    @pytest.mark.parametrize("workload", ["serving", "paper"])
    def test_probes_leave_the_program_unwrapped(self, workload):
        if workload == "serving":
            from perfbench.serving import ServingProbe as Probe
        else:
            from perfbench.paper import PaperProbe as Probe
        probe = Probe()
        wrappers = Wrappers(probe.recorder)
        probe.install(wrappers)
        installed = list(wrappers.installed)
        assert installed
        for owner, attr, _, original in installed:
            assert getattr(owner, attr) is not original
        wrappers.uninstall()
        for owner, attr, had_own, original in installed:
            if had_own:
                assert vars(owner)[attr] is original
            else:
                assert attr not in vars(owner)
            assert not hasattr(getattr(owner, attr), "__wrapped__")
