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
    "engine.results": "273392a6d9dedcf098bf2dc27ec296e036bcbf8c170f893b0e9eaeeffb19a130",
    "engine.metrics": "27f252d8360a1498c46d58aa290b68a3310c4847e102ff07b8f6c1a666d4392d",
    "detailed.results": "2e9e735c29b41114490cd1741c496bdb3002020c5412019f5c047251d2ca2f20",
    "detailed.metrics": "e7b3b5f64545fc46144af1c767cd64b27bea8abe25bd0cf59cdd7d349ee73675",
    "detailed_tile.results": "2d8de64dc110bbb77def6ae4d3510c4d1730f1a4737760da95d966ac102e239d",
    "detailed_tile.metrics": "68e768e5fe7b888114b4a8138953b7b5b52e5785ef4c714eb1f5b0adec5e2cfa",
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
