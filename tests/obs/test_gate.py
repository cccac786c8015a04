"""Gate scenarios over both artifact kinds: RunReports and bench runs.

Every scenario runs once per kind through the same store and the same
:func:`~repro.obs.analytics.compare`, so the two kinds cannot drift
apart in how they are recorded or gated.
"""

import json
import random

import pytest

from repro.obs.analytics import compare
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.store import STORE_SCHEMA_VERSION, RunStore, ingest
from repro.perf.timing import StageTimer
from repro.platforms import RunSpec

SPEC = RunSpec.make("GMN-Li", "AIDS", 4, 4, 0)


def _report(readings, drift=False, env=3.0, stamp="2026-08-08T00:00:00Z"):
    """A RunReport: a stage timing is one reading, as ``--metrics`` writes."""
    registry = MetricsRegistry()
    registry.inc("sim.dram.read_bytes", 1025.0 if drift else 1024.0, platform="CEGMA")
    registry.inc("harness.trace_memo.hit", env)
    timer = StageTimer()
    timer.record("simulate", readings[0])
    return RunReport(
        spec=SPEC, metrics=registry, timer=timer, created_at=stamp, git_sha="cafe"
    ).to_dict()


def _bench(readings, drift=False, env=3.0, stamp="2026-08-08T00:00:00Z"):
    """A BenchReport payload carrying every repeat."""
    return {
        "schema_version": 2,
        "name": "harness",
        "provenance": {"git_sha": "cafe", "created_at": stamp, "generator": "test"},
        "config": {"quick": True},
        "timings": {"simulate": min(readings)},
        "samples": {"simulate": list(readings)},
        "repeats": len(readings),
        "speedups": {},
        "checks": {"batched_matches_serial": not drift, "queries_per_second": env},
    }


#: kind -> (artifact builder, exact value name, environmental value name)
KINDS = {
    "report": (
        _report,
        "sim.dram.read_bytes{platform=CEGMA}",
        "harness.trace_memo.hit",
    ),
    "bench": (_bench, "batched_matches_serial", "queries_per_second"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _readings(rng, center):
    return [center * (1.0 + rng.uniform(-0.05, 0.05)) for _ in range(5)]


def _gate(build, baseline_kwargs, current_kwargs):
    baseline = ingest(build(**baseline_kwargs))
    current = ingest(build(stamp="2026-08-09T00:00:00Z", **current_kwargs))
    return compare([baseline], current)


class TestTimingGate:
    def test_injected_2x_slowdown_flagged_across_seeds(self, kind):
        build = kind[0]
        for seed in range(50):
            rng = random.Random(seed)
            result = _gate(
                build,
                {"readings": _readings(rng, 1.0)},
                {"readings": _readings(rng, 2.0)},
            )
            assert result.exit_code == 2, (seed, result.render())
            assert [w.name for w in result.warnings] == ["simulate"]

    def test_identical_distribution_never_flagged(self, kind):
        build = kind[0]
        for seed in range(50):
            rng = random.Random(seed)
            result = _gate(
                build,
                {"readings": _readings(rng, 1.0)},
                {"readings": _readings(rng, 1.0)},
            )
            assert result.exit_code == 0, (seed, result.render())


def _perfbench(readings, stamp="2026-08-08T00:00:00Z"):
    """A perfbench-shaped payload: one sample per seed of a metric whose
    direction and bound the config carries, as BENCHMARK.json gives them."""
    return {
        "schema_version": 2,
        "name": "perfbench-unit",
        "provenance": {"git_sha": "cafe", "created_at": stamp, "generator": "test"},
        "config": {"metrics": {"sat_ops_per_s": {"better": "higher", "bound": 0.25}}},
        "timings": {"sat_ops_per_s": sorted(readings)[len(readings) // 2]},
        "samples": {"sat_ops_per_s": list(readings)},
        "repeats": len(readings),
        "speedups": {},
        "checks": {"correct": True},
    }


class TestHigherIsBetterGate:
    """A sampled metric whose config says higher is better."""

    @staticmethod
    def _gate_scaled(seed, factor):
        rng = random.Random(seed)
        return _gate(
            _perfbench,
            {"readings": _readings(rng, 20.0)},
            {"readings": _readings(rng, 20.0 * factor)},
        )

    def test_halved_throughput_warns_across_seeds(self):
        for seed in range(50):
            result = self._gate_scaled(seed, 0.5)
            assert result.exit_code == 2, (seed, result.render())
            assert [w.name for w in result.warnings] == ["sat_ops_per_s"]

    def test_doubled_throughput_is_reported_improved(self):
        for seed in range(50):
            result = self._gate_scaled(seed, 2.0)
            assert result.exit_code == 0, (seed, result.render())
            (info,) = result.infos
            assert info.name == "sat_ops_per_s"
            assert info.detail.startswith("improved")

    def test_identical_distribution_never_flagged(self):
        for seed in range(50):
            result = self._gate_scaled(seed, 1.0)
            assert result.exit_code == 0, (seed, result.render())
            assert not result.infos

    def test_single_reading_uses_the_ratio_band(self):
        result = _gate(_perfbench, {"readings": [20.0]}, {"readings": [10.0]})
        assert [w.name for w in result.warnings] == ["sat_ops_per_s"]


class TestHostSpeed:
    """The calibration ratio rides along with timing verdicts, unchanged."""

    @staticmethod
    def _gate_on_hosts(base_host, current_host):
        payloads = [_perfbench([20.0]), _perfbench([10.0], "2026-08-09T00:00:00Z")]
        for payload, host in zip(payloads, (base_host, current_host)):
            if host is not None:
                payload["platform"] = {"cpus": 2, "calibration": host}
        baseline, current = (ingest(payload) for payload in payloads)
        return compare([baseline], current)

    def test_ratio_printed_next_to_each_timing_verdict(self):
        fast = {"python_loop_s": 0.01, "gemm_256_s": 0.001}
        slow = {"python_loop_s": 0.02, "gemm_256_s": 0.0025}
        (warning,) = self._gate_on_hosts(fast, slow).warnings
        assert warning.detail.endswith(
            "host speed run/baseline: gemm_256_s 2.50x, python_loop_s 2.00x"
        )

    def test_verdict_and_exit_code_do_not_depend_on_it(self):
        fast = {"python_loop_s": 0.01, "gemm_256_s": 0.001}
        slow = {"python_loop_s": 0.02, "gemm_256_s": 0.002}
        calibrated = self._gate_on_hosts(fast, slow)
        uncalibrated = self._gate_on_hosts(None, None)
        assert calibrated.exit_code == uncalibrated.exit_code == 2
        assert [w.name for w in calibrated.warnings] == ["sat_ops_per_s"]
        assert uncalibrated.warnings[0].detail.endswith(
            "host speed: not calibrated on both runs"
        )


class TestExactGate:
    def test_exact_drift_exits_1(self, kind):
        build, exact_name, _ = kind
        result = _gate(
            build, {"readings": [1.0]}, {"readings": [1.0], "drift": True}
        )
        assert result.exit_code == 1
        assert [f.name for f in result.findings] == [exact_name]
        assert exact_name in result.render()

    def test_environmental_drift_is_info_only(self, kind):
        build, _, env_name = kind
        result = _gate(build, {"readings": [1.0]}, {"readings": [1.0], "env": 30.0})
        assert result.exit_code == 0
        assert [info.name for info in result.infos] == [env_name]


class TestStore:
    def test_re_recording_is_a_no_op(self, kind, tmp_path):
        store = RunStore(tmp_path)
        artifact = kind[0]([1.0])
        run, appended = store.append(artifact)
        assert appended
        _, appended = store.append(json.loads(json.dumps(artifact)))
        assert not appended
        assert [r.entry_id for r in store.read(run.series)] == [run.entry_id]

    def test_truncated_line_skipped_and_counted(self, kind, tmp_path):
        store = RunStore(tmp_path)
        run, _ = store.append(kind[0]([1.0]))
        with open(store.path_for(run.series), "a") as handle:
            handle.write(json.dumps(run.to_dict())[:40])
        assert [r.entry_id for r in store.read(run.series)] == [run.entry_id]
        assert store.last_skipped == 1

    def test_unknown_schema_version_rejected(self, kind, tmp_path):
        store = RunStore(tmp_path)
        run, _ = store.append(kind[0]([1.0]))
        line = dict(run.to_dict(), schema_version=STORE_SCHEMA_VERSION + 1)
        with open(store.path_for(run.series), "a") as handle:
            handle.write(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            store.read(run.series)
