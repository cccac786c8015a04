"""Tests for RunReport series in the run store: keys and lookup."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.store import RunStore, spec_key
from repro.platforms import RunSpec

SPEC = RunSpec.make("GMN-Li", "AIDS", 4, 4, 0)
OTHER = RunSpec.make("SimGNN", "AIDS", 4, 4, 0)


def _report(spec=SPEC, created_at="2026-08-07T00:00:00Z", sha="deadbeef", macs=100):
    registry = MetricsRegistry()
    registry.inc("sim.macs", macs, platform="CEGMA")
    return RunReport(
        spec=spec, metrics=registry, created_at=created_at, git_sha=sha
    )


def _macs(run):
    return RunReport.from_dict(run.artifact).metrics.counter(
        "sim.macs", platform="CEGMA"
    )


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


class TestLayout:
    def test_spec_key_is_stem_plus_digest(self):
        key = spec_key(SPEC)
        assert key.startswith(SPEC.stem + "-")
        assert len(key) == len(SPEC.stem) + 1 + 8

    def test_unkeyed_report_rejected(self, store):
        with pytest.raises(ValueError, match="unkeyed"):
            store.append(RunReport().to_dict())


class TestLookup:
    def test_latest_none_when_empty(self, store):
        assert store.latest(spec_key(SPEC)) is None
        assert store.read(spec_key(SPEC)) == []

    def test_latest_returns_newest_by_created_at(self, store):
        store.append(_report(created_at="2026-08-05T00:00:00Z", macs=1).to_dict())
        store.append(_report(created_at="2026-08-07T00:00:00Z", macs=3).to_dict())
        store.append(_report(created_at="2026-08-06T00:00:00Z", macs=2).to_dict())
        assert _macs(store.latest(spec_key(SPEC))) == 3
        assert len(store.read(spec_key(SPEC))) == 3

    def test_v1_report_without_created_at_sorts_oldest(self, store):
        old = _report(macs=1)
        old.created_at = None
        old.git_sha = None
        store.append(_report(created_at="2026-08-07T00:00:00Z", macs=2).to_dict())
        store.append(old.to_dict())
        assert _macs(store.latest(spec_key(SPEC))) == 2

    def test_specs_lists_all_keys(self, store):
        store.append(_report().to_dict())
        store.append(_report(spec=OTHER).to_dict())
        assert store.series() == sorted([spec_key(SPEC), spec_key(OTHER)])

    def test_specs_skips_broken_entries(self, store):
        store.append(_report().to_dict())
        with open(store.path_for(spec_key(SPEC)), "a") as handle:
            handle.write("not json\n")
        runs = store.read(spec_key(SPEC))
        assert [run.series for run in runs] == [spec_key(SPEC)]
        assert store.last_skipped == 1
