"""Tests for StageTimer and BenchReport edge cases."""

import pytest

from repro.perf.timing import BenchReport, StageTimer, time_stage


class TestStageTimer:
    def test_records_elapsed_and_calls(self):
        timer = StageTimer()
        with timer.stage("work"):
            pass
        with timer.stage("work"):
            pass
        assert timer.calls["work"] == 2
        assert timer.seconds["work"] >= 0
        assert timer.as_dict()["work"]["calls"] == 2

    def test_raising_stage_still_records(self):
        """A stage that raises must still record its elapsed time and
        call count — otherwise a crashed run's report undercounts."""
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("doomed"):
                raise RuntimeError("boom")
        assert timer.calls["doomed"] == 1
        assert timer.seconds["doomed"] >= 0
        assert timer.total_seconds == timer.seconds["doomed"]

    def test_time_stage_tolerates_none(self):
        with time_stage(None, "ignored"):
            pass

    def test_time_stage_raising_records(self):
        timer = StageTimer()
        with pytest.raises(ValueError):
            with time_stage(timer, "doomed"):
                raise ValueError("boom")
        assert timer.calls["doomed"] == 1

    def test_record_accumulates(self):
        timer = StageTimer()
        timer.record("stage", 1.0)
        timer.record("stage", 2.0)
        assert timer.seconds["stage"] == 3.0
        assert timer.calls["stage"] == 2


class TestBenchReportSchemaV2:
    def _report(self):
        report = BenchReport("unit", config={"n": 4})
        report.add_timing("slow", 2.0, samples=[2.0, 2.1, 2.05])
        report.add_timing("fast", 1.0, samples=[1.0, 1.02, 0.98])
        report.repeats = 3
        report.checks["identical"] = True
        return report

    def test_as_dict_carries_schema_samples_repeats(self):
        payload = self._report().as_dict()
        assert payload["schema_version"] == 2
        assert payload["samples"]["fast"] == [1.0, 1.02, 0.98]
        assert payload["repeats"] == 3
        assert "provenance" in payload and "platform" in payload

    def test_round_trip_preserves_samples_and_stamp(self):
        payload = self._report().as_dict()
        clone = BenchReport.from_dict(payload)
        assert clone.samples == payload["samples"]
        assert clone.repeats == 3
        # Re-serializing a loaded report keeps the original stamp
        # instead of minting a fresh one.
        assert clone.as_dict()["provenance"] == payload["provenance"]
        assert clone.as_dict()["platform"] == payload["platform"]

    def test_payload_with_retired_speedups_key_loads(self):
        """v2 runs recorded before the speedup ratios were retired carry
        a ``speedups`` key; readers ignore it."""
        payload = self._report().as_dict()
        assert "speedups" not in payload
        payload["speedups"] = {"gain": 2.0}
        clone = BenchReport.from_dict(payload)
        assert clone.timings == {"slow": 2.0, "fast": 1.0}
        assert clone.checks == {"identical": True}

    def test_timing_without_samples_stays_sampleless(self):
        report = BenchReport("unit")
        report.add_timing("only", 1.5)
        assert report.samples == {}

    def test_unknown_newer_schema_rejected(self):
        payload = self._report().as_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="upgrade"):
            BenchReport.from_dict(payload)
        # A payload without a version is the retired v1 layout.
        for key in ("schema_version", "samples", "repeats"):
            del payload[key]
        with pytest.raises(ValueError, match="schema version 1"):
            BenchReport.from_dict(payload)

    def test_non_bench_payload_rejected(self):
        with pytest.raises(ValueError, match="BenchReport"):
            BenchReport.from_dict({"schema_version": 2, "other": 1})
        with pytest.raises(ValueError):
            BenchReport.from_dict("not a dict")
