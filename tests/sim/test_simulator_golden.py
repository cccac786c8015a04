"""Golden digests of the simulators' exact output.

Every evaluation number (Table III platforms, Figs. 17-21) is a
:class:`~repro.sim.engine.PlatformResult` folded by one batch body per
simulator. The differential check ``sim.batched_vs_serial`` holds the
batched per-pair stats to the per-pair references, but both sides share
that fold, so a bug in the fold itself shows on neither side. This test
pins the fold's output bit for bit:

- ``PlatformResult.to_dict()`` (floats as ``float.hex``), metric-free;
- the result and the whole metric snapshot under an active registry.

Simulators: the five stock accelerators (CEGMA, CEGMA-EMF, CEGMA-CGC,
HyGCN, AWB-GCN), each as the analytic engine, the detailed per-step
simulator and the detailed simulator with the tile model. Workloads:
validate's ``small_traces`` of AIDS (4 pairs, batch 2) and RD-B
(2 pairs, batch 2), and AIDS in batches of three (9 pairs), each
profiled afresh for every run so no memo carried over from an earlier
run decides which counters are emitted.

The EMF plans depend on the exact bits of the forward's node features,
and RD-B's GEMMs are large enough for OpenBLAS to split them across
threads, which changes their rounding. The test therefore computes the
digests in a child process with every BLAS pool pinned to one thread,
like ``tests/models/test_forward_golden.py``. To print fresh digests
after an intended simulator change (the child pins the threads the
same way)::

    PYTHONPATH=src python tests/sim/test_simulator_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PLATFORMS = ("CEGMA", "CEGMA-EMF", "CEGMA-CGC", "HyGCN", "AWB-GCN")
# (dataset, pairs, batch): validate's two ``small_traces`` workloads,
# plus batches of three, where a fold that reassociates its sum shows
# (a sum of two floats is the same in either order).
_WORKLOADS = (("AIDS", 4, 2), ("RD-B", 2, 2), ("AIDS", 9, 3))
_MODES = ("engine", "detailed", "detailed_tile")

GOLDEN = {
    "engine.results": "edc863ec7394efe575fb6322094f7c98884182d116396e0cb9b81bb6521c2e6f",
    "engine.metrics": "36ab71092acee2b2184f1304da75aaa8c864d9614d2e825b3e7762476f7371d1",
    "detailed.results": "d5a514c369771e17cc5d883e221b665425ee0b37d7a170356fbee724c5bc0482",
    "detailed.metrics": "c5f5744eaf82dafd8a53f879d1242b7857034a6a13c915d2319e18ab31ce891b",
    "detailed_tile.results": "9e7d705e18aae58334754b572dadd47a39b7ede91f50aeb0795afec1f9d200dd",
    "detailed_tile.metrics": "6a02e4e4db088382cd1766f75b9694d2c51d758faa1a53bf19c9042a8487e47d",
}


def _exact(value):
    """JSON form of a result or snapshot with every float as its hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _build(platform: str, mode: str):
    from repro.platforms import REGISTRY
    from repro.sim.detailed import DetailedSimulator

    simulator = REGISTRY.build(platform)
    if mode == "engine":
        return simulator
    return DetailedSimulator(
        simulator.config, tile_model=mode == "detailed_tile"
    )


def _records():
    from repro.obs.metrics import metrics_enabled
    from repro.validate.workloads import small_traces

    records = {
        f"{mode}.{kind}": []
        for mode in _MODES
        for kind in ("results", "metrics")
    }
    for mode in _MODES:
        for platform in _PLATFORMS:
            for dataset, num_pairs, batch_size in _WORKLOADS:
                label = f"{platform}/{dataset}/{num_pairs}x{batch_size}"
                traces = small_traces(
                    dataset=dataset, num_pairs=num_pairs, batch_size=batch_size
                )
                result = _build(platform, mode).simulate_batches(traces)
                records[f"{mode}.results"].append(
                    [label, _exact(result.to_dict())]
                )
                traces = small_traces(
                    dataset=dataset, num_pairs=num_pairs, batch_size=batch_size
                )
                with metrics_enabled() as registry:
                    result = _build(platform, mode).simulate_batches(traces)
                records[f"{mode}.metrics"].append(
                    [
                        label,
                        _exact(result.to_dict()),
                        _exact(registry.as_dict()),
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
def test_simulator_output_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} output changed; if intended, regenerate with "
        "`python tests/sim/test_simulator_golden.py`"
    )


if __name__ == "__main__":
    if "--child" in sys.argv:
        print(json.dumps({name: _digest(v) for name, v in _records().items()}))
    else:
        for name, value in _pinned_digests().items():
            print(f'    "{name}": "{value}",')
