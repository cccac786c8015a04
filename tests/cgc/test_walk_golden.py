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
    "joint": "538a79e99eaac2d6ec524c904e042c6d240144bd40b5daedc2a3b71ff5b833e6",
    "coordinated": "4023acde3223f81ed699177ebc9b2f1d479cf8a5ab51a318e8be4734e8745d4f",
    "oracle": "9069c4922f889df60449957bdf70385664f1868904a71719b783346220221e80",
    "oracle_decisions": "e668ec409da5e7cc644e05c3280d099df76dc7a1bcf73ea3fdc6bedb5d2fcb07",
    "metrics": "06dcee188f6a0ef9f456224ad9a18c6846205b3b70072ca2aaaf249d8de63e34",
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
