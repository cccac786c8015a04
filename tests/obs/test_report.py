"""Tests for RunReport serialization, validation, and diffing."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    REPORT_KIND,
    RUN_REPORT_SCHEMA_VERSION,
    RunReport,
    default_report_path,
    validate_report,
)
from repro.obs.tracing import Tracer
from repro.perf.timing import StageTimer
from repro.platforms import RunSpec

SPEC = RunSpec.make("GMN-Li", "AIDS", 4, 4, 0)


def _report():
    registry = MetricsRegistry()
    registry.inc("sim.cycles", 100, platform="CEGMA")
    registry.observe("occupancy", 8)
    tracer = Tracer()
    with tracer.span("simulate", platform="CEGMA"):
        pass
    timer = StageTimer()
    timer.record("profile", 1.5)
    return RunReport(spec=SPEC, metrics=registry, tracer=tracer, timer=timer)


class TestRoundTrip:
    def test_to_dict_has_required_keys(self):
        payload = _report().to_dict()
        assert validate_report(payload) == []
        assert payload["schema_version"] == RUN_REPORT_SCHEMA_VERSION
        assert payload["kind"] == REPORT_KIND

    def test_from_dict_round_trip(self):
        report = _report()
        restored = RunReport.from_dict(report.to_dict())
        assert restored.spec == SPEC
        assert restored.metrics.as_dict() == report.metrics.as_dict()
        assert restored.spans == report.spans
        assert restored.timings == report.timings

    def test_write_and_load(self, tmp_path):
        path = _report().write(tmp_path / "report.json")
        assert path.is_file()
        loaded = RunReport.load(path)
        assert loaded.spec == SPEC
        assert loaded.metrics.counter("sim.cycles", platform="CEGMA") == 100

    def test_default_path_uses_spec_stem(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _report().write()
        assert path.name == f"{SPEC.stem}_report.json"
        assert path.parent.parts[-2:] == ("results", "obs")

    def test_unkeyed_report(self):
        report = RunReport()
        restored = RunReport.from_dict(report.to_dict())
        assert restored.spec is None
        assert default_report_path(None).name == "run_report.json"

    def test_render_mentions_stem_and_metrics(self):
        rendered = _report().render()
        assert SPEC.stem in rendered
        assert "sim.cycles{platform=CEGMA} = 100" in rendered
        assert "profile: 1.5000s over 1 call(s)" in rendered


class TestRunIdentity:
    def test_defaults_come_from_env_seams(self, monkeypatch):
        monkeypatch.setenv("REPRO_CREATED_AT", "2026-08-07T00:00:00Z")
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        report = _report()
        assert report.created_at == "2026-08-07T00:00:00Z"
        assert report.git_sha == "cafebabe"

    def test_identity_round_trips(self):
        report = _report()
        report.created_at = "2026-08-07T00:00:00Z"
        report.git_sha = "cafebabe"
        restored = RunReport.from_dict(report.to_dict())
        assert restored.created_at == "2026-08-07T00:00:00Z"
        assert restored.git_sha == "cafebabe"

    def test_render_mentions_identity(self):
        report = _report()
        report.created_at = "2026-08-07T00:00:00Z"
        report.git_sha = "cafebabe"
        rendered = report.render()
        assert "2026-08-07T00:00:00Z" in rendered
        assert "cafebabe" in rendered


class TestValidation:
    def test_non_dict_payload(self):
        assert validate_report([1, 2]) == ["payload is not a JSON object"]

    def test_missing_keys_reported(self):
        problems = validate_report({"schema_version": 1})
        assert any("kind" in problem for problem in problems)
        assert any("metrics" in problem for problem in problems)

    def test_wrong_schema_version(self):
        # 1 and 2 are retired layouts: rejected like a future version.
        for version in (99, 1, 2):
            payload = _report().to_dict()
            payload["schema_version"] = version
            assert any(
                "schema version" in p for p in validate_report(payload)
            )
            with pytest.raises(ValueError, match=f"version {version}"):
                RunReport.from_dict(payload)

    def test_future_version_error_is_actionable(self):
        payload = _report().to_dict()
        payload["schema_version"] = 99
        problems = validate_report(payload)
        assert len(problems) == 1
        message = problems[0]
        assert "99" in message
        assert f"version {RUN_REPORT_SCHEMA_VERSION}" in message
        assert "newer" in message

    def test_v2_requires_identity_keys(self):
        payload = _report().to_dict()
        del payload["created_at"]
        problems = validate_report(payload)
        assert any("created_at" in p for p in problems)

    def test_v2_identity_keys_must_be_string_or_null(self):
        payload = _report().to_dict()
        payload["git_sha"] = 12345
        problems = validate_report(payload)
        assert any("git_sha" in p and "string" in p for p in problems)

    def test_wrong_kind(self):
        payload = _report().to_dict()
        payload["kind"] = "something-else"
        assert any("kind" in problem for problem in validate_report(payload))

    def test_malformed_sections(self):
        payload = _report().to_dict()
        payload["metrics"] = {"counters": {}}
        payload["spans"] = "nope"
        payload["timings"] = []
        problems = validate_report(payload)
        assert len(problems) == 3

    def test_survives_json_round_trip(self):
        payload = json.loads(json.dumps(_report().to_dict()))
        assert validate_report(payload) == []


class TestServingTelemetrySections:
    def _window(self):
        return {
            "index": 0,
            "start": 0.0,
            "end": 1.0,
            "counters": {"search.serve.admitted": 4.0},
            "rates": {"search.serve.admitted": 4.0},
            "gauges": {},
            "histograms": {},
        }

    def _exemplar(self):
        return {
            "request_id": 7,
            "latency_seconds": 0.25,
            "status": "ok",
            "tree": {"request_id": 7, "annotations": {}, "spans": []},
        }

    def test_v3_round_trip(self):
        registry = MetricsRegistry()
        report = RunReport(
            spec=SPEC,
            metrics=registry,
            windows=[self._window()],
            exemplars=[self._exemplar()],
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema_version"] == 3
        assert validate_report(payload) == []
        restored = RunReport.from_dict(payload)
        assert restored.windows == [self._window()]
        assert restored.exemplars == [self._exemplar()]

    def test_v3_requires_list_sections(self):
        payload = _report().to_dict()
        payload["windows"] = {"nope": 1}
        problems = validate_report(payload)
        assert any("windows" in p for p in problems)
        payload = _report().to_dict()
        del payload["exemplars"]
        problems = validate_report(payload)
        assert any("exemplars" in p for p in problems)

    def test_render_mentions_telemetry(self):
        registry = MetricsRegistry()
        report = RunReport(
            spec=SPEC,
            metrics=registry,
            windows=[self._window()],
            exemplars=[self._exemplar()],
        )
        rendered = report.render()
        assert "1 window(s)" in rendered
        assert "1 exemplar(s)" in rendered
