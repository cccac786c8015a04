"""The harness memos over one cold quick pass of the headline table.

Every model profiled on a dataset shares one generated set of pairs, so
each window schedule over those pairs is built once per pass, and
``clear_workload_caches`` makes the next pass cold again.
"""

import pytest

from repro.cgc import summary as summary_mod
from repro.cgc.summary import schedule_key
from repro.experiments import common
from repro.platforms import DEFAULT_PLATFORMS


def cold_quick_pass(seed=0):
    for model in common.MODEL_ORDER:
        for dataset in common.DATASET_ORDER:
            num_pairs, batch_size = common.workload_size(True, dataset)
            common.workload_results(
                model, dataset, DEFAULT_PLATFORMS, num_pairs, batch_size, seed
            )


@pytest.fixture
def counted(monkeypatch):
    """Records every dataset generation and every schedule build."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    loads, builds = [], []
    load_dataset = common.load_dataset

    def counting_load(name, **kwargs):
        loads.append(name)
        return load_dataset(name, **kwargs)

    monkeypatch.setattr(common, "load_dataset", counting_load)
    for scheme, builder in summary_mod._BUILDERS.items():

        def counting_build(pair, capacity, targets, queries, scheme=scheme,
                           builder=builder):
            # Holding the pair keeps its id unique for the whole test.
            builds.append((pair, schedule_key(scheme, capacity, targets, queries)))
            return builder(pair, capacity, targets, queries)

        monkeypatch.setitem(summary_mod._BUILDERS, scheme, counting_build)
    common.clear_workload_caches()
    yield loads, builds
    common.clear_workload_caches()


def distinct(builds):
    return {(id(pair), key) for pair, key in builds}


def test_one_cold_pass_generates_and_builds_once(counted):
    loads, builds = counted
    cold_quick_pass()
    assert sorted(loads) == sorted(common.DATASET_ORDER)
    assert builds
    assert len(distinct(builds)) == len(builds)
    # Models share pair objects: one per generated pair, not per model.
    generated = sum(
        common.workload_size(True, dataset)[0]
        for dataset in common.DATASET_ORDER
    )
    assert len({id(pair) for pair, _ in builds}) == generated


def test_clear_makes_the_next_pass_cold(counted):
    loads, builds = counted
    cold_quick_pass()
    first_loads, first_builds = len(loads), len(builds)
    cold_quick_pass()  # warm: every cell is memoized
    assert (len(loads), len(builds)) == (first_loads, first_builds)
    common.clear_workload_caches()
    cold_quick_pass()
    assert len(loads) == 2 * first_loads
    assert len(builds) == 2 * first_builds
    assert len(distinct(builds)) == len(builds)
