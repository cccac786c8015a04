"""Golden digests of GMN-Li's exact ``forward_pair`` output.

``forward_pair`` feeds every trace the reproduction simulates (and so
the headline table), and its score and head features are what serving
ranks by. This test pins all of it bit for bit, with and without the
Elastic Matching Filter:

- the score and the head features;
- every layer's target and query features (the ``X^l`` / ``Y^l`` the
  matching stage reads);
- every layer's ``FlopCounter`` counts and the readout's.

Pairs: validate's adversarial pairs (empty sides, one-node and edgeless
graphs, self loops), ``random_pairs(0..3)``, and two pairs each of
AIDS, COLLAB and RD-B. A refactor of the forward that changes any bit
of any of these fails here.

The digests are bit-level, so they hold for one BLAS build and CPU
kernel (they were taken with numpy's bundled OpenBLAS) and depend on
its thread count: RD-B's GEMMs are large enough for OpenBLAS to split
them across threads, which changes their rounding. The test therefore
computes the digests in a child process with every BLAS pool pinned
to one thread, as the benchmark runs. To print fresh digests after an
intended model change (the child pins the threads the same way)::

    PYTHONPATH=src python tests/models/test_forward_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.graphs.datasets import load_dataset
from repro.models import build_model
from repro.validate.workloads import adversarial_pairs, random_pairs

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GOLDEN = {
    "emf_off.outputs": "70fddb97a452bf66691223256605e1dd2d1f8d27137ab8a39a11c247026c73d5",
    "emf_off.layers": "3c7554a2edfa2f1164cae5642a3f16ce22e1b61fabff7652ed0d492646356675",
    "emf_off.flops": "7e2eee57b3f5d08b4c2baea3a5708d18a6bea7511ace91eae91f0685db549852",
    "emf_on.outputs": "30a60d16080735857b77794754321a5997ffd8c303480ea1867d86be598aa8ab",
    "emf_on.layers": "0b59a6a9379a2c903244959542a915223cef7deb3dd2aa5e63115e13c02d3e8d",
    "emf_on.flops": "7d4f749b708e0a097a60928d06eef0b469019b25cb0c1cdc569014480d35454c",
}


def _pairs():
    pairs = list(adversarial_pairs())
    for seed in range(4):
        pairs += [
            (f"random{seed}_{i}", pair)
            for i, pair in enumerate(random_pairs(seed))
        ]
    for dataset in ("AIDS", "COLLAB", "RD-B"):
        pairs += [
            (f"{dataset}_{i}", pair)
            for i, pair in enumerate(load_dataset(dataset, seed=0, num_pairs=2))
        ]
    return pairs


def _array(values) -> list:
    """Shape and exact bytes of an array (bit-level, NaN-safe)."""
    return [list(values.shape), str(values.dtype), values.tobytes().hex()]


def _records():
    records = {name: [] for name in GOLDEN}
    models = {}
    for label, pair in _pairs():
        for use_emf in (False, True):
            dim = pair.target.feature_dim
            key = (dim, use_emf)
            if key not in models:
                models[key] = build_model(
                    "GMN-Li", input_dim=dim, seed=0, use_emf=use_emf
                )
            trace = models[key].forward_pair(pair)
            prefix = "emf_on" if use_emf else "emf_off"
            records[f"{prefix}.outputs"].append(
                [label, float(trace.score).hex(), _array(trace.head_features)]
            )
            records[f"{prefix}.layers"].append(
                [
                    label,
                    [
                        [_array(layer.target_features),
                         _array(layer.query_features)]
                        for layer in trace.layers
                    ],
                ]
            )
            records[f"{prefix}.flops"].append(
                [
                    label,
                    [layer.flops.counts for layer in trace.layers],
                    trace.readout_flops.counts,
                ]
            )
    return records


def _digest(records) -> str:
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _pinned_digests() -> dict:
    """The digests, computed in a child process on one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    child = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def digests():
    return _pinned_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_forward_output_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} output changed; if intended, regenerate with "
        "`python tests/models/test_forward_golden.py`"
    )


if __name__ == "__main__":
    if "--child" in sys.argv:
        print(json.dumps({name: _digest(v) for name, v in _records().items()}))
    else:
        for name, value in _pinned_digests().items():
            print(f'    "{name}": "{value}",')
