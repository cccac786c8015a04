"""The committed headline, ``results/summary.json``, is what the code computes.

perfbench's ``paper_sim`` workload checks its seed-0 pass against this
file, so a code change that moves a headline number without
regenerating the artifact fails here first. The pass runs in a child
process like perfbench's, with every BLAS pool on one thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_SUMMARY = Path(__file__).resolve().parents[2] / "results" / "summary.json"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CHILD = (
    "import json\n"
    "from repro.experiments.registry_helpers import headline_metrics\n"
    "print(json.dumps(headline_metrics(quick=True, seed=0)))\n"
)


def test_quick_seed0_headline_equals_committed_summary():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, check=True,
    )
    measured = json.loads(child.stdout)
    with open(_SUMMARY) as handle:
        rows = json.load(handle)["summary"]["data"]
    committed = {name: row["measured"] for name, row in rows.items()}
    assert measured == committed
