"""Golden digests of the joint-window walk's exact output.

The joint (Fig. 12a), coordinated (Fig. 12b, Algorithm 2) and oracle
schedules, and ``oracle_decisions``, all take one walk over the
cross-graph matching blocks. The other tests check coverage, capacity
and determinism; this one pins *which* windows the walk visits, in
which order, with which work — so a refactor of the walk (or of its
tie-breaking) that changes any schedule fails here.

Each schedule step is digested as (sorted input nodes, matchings,
edges, kind, misses). The ``cgc.*`` metrics collected while building
them (AOE decision counters and outlier histograms) are pinned too, so
AOE runs exactly where and as often as before.

To print fresh digests after an intended schedule change::

    PYTHONPATH=src python tests/cgc/test_walk_golden.py
"""

import hashlib
import json

import pytest

from repro.cgc import SCHEDULERS, oracle_decisions
from repro.obs.metrics import metrics_enabled
from repro.validate.workloads import adversarial_pairs, random_pairs

CAPACITIES = (2, 3, 4, 5, 8, 16, 32, 64)
SCHEMES = ("joint", "coordinated", "oracle")

GOLDEN = {
    "joint": "3fd974a2edc6bee482603ac8cf27383c2bca4a228b22abc553fec7e9315152ab",
    "coordinated": "154c50d48099b02e8ad30cb0bf89098bc89091c1bdad4dbf385f564eabd8a5af",
    "oracle": "5e3966072e0f0035ffc43af575c30f633d54f2c98259d1edced166aac01f40de",
    "oracle_decisions": "e668ec409da5e7cc644e05c3280d099df76dc7a1bcf73ea3fdc6bedb5d2fcb07",
    "metrics": "3a8b4a45073f393e9ee627c6d4be7cc88c5525db8e469c911bd2fdeae4330f66",
}


def _pairs():
    # All at most 22 nodes, small enough for the oracle's rollouts.
    pairs = list(adversarial_pairs())
    for seed in range(4):
        pairs += [
            (f"random{seed}_{i}", pair)
            for i, pair in enumerate(random_pairs(seed))
        ]
    return pairs


def _steps(schedule):
    return [
        [sorted(step.input_nodes), step.num_matchings, step.num_edges,
         step.kind, step.misses]
        for step in schedule.steps
    ]


def _digest(records) -> str:
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _records():
    records = {name: [] for name in GOLDEN}
    with metrics_enabled() as registry:
        for label, pair in _pairs():
            for capacity in CAPACITIES:
                for scheme in SCHEMES:
                    schedule = SCHEDULERS[scheme](pair, capacity)
                    records[scheme].append(
                        [label, capacity, _steps(schedule)]
                    )
                records["oracle_decisions"].append(
                    [label, capacity, oracle_decisions(pair, capacity)]
                )
            # One active-subset (EMF-filtered) case per scheme and pair.
            active_targets = range(0, pair.target.num_nodes, 2)
            active_queries = range(1, pair.query.num_nodes, 2)
            for scheme in SCHEMES:
                schedule = SCHEDULERS[scheme](
                    pair, 4, active_targets, active_queries
                )
                records[scheme].append(
                    [label, "active", _steps(schedule)]
                )
        snapshot = registry.as_dict()
    records["metrics"] = {
        section: {
            key: value
            for key, value in entries.items()
            if key.startswith("cgc.")
        }
        for section, entries in snapshot.items()
    }
    return records


@pytest.fixture(scope="module")
def digests():
    return {name: _digest(value) for name, value in _records().items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_walk_output_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} output changed; if intended, regenerate with "
        "`python tests/cgc/test_walk_golden.py`"
    )


if __name__ == "__main__":
    for name, value in _records().items():
        print(f'    "{name}": "{_digest(value)}",')
