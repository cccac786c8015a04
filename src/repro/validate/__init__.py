"""Differential validation harness.

The repo deliberately keeps redundant implementation pairs — a scalar
and a vectorized XXH32, the event-driven EMF pipeline and its
cycle-accurate reference, the analytic engine and the detailed
simulator, serial and process-pool harness runs, trace-cache-on and
cache-off profiling — plus documented invariants of the CGC window
schedulers. This package machine-checks all of them: a registry of
named, independently runnable correctness checks, each either a

- **differential check**: run both implementations of a redundant pair
  on generated workloads and assert bit-identity (or the documented
  tolerance), or an
- **invariant check**: assert schedule/quantization properties on
  adversarial inputs.

``python -m repro validate [--quick] [--only NAME] [--list] [--smoke]``
runs them with ``obs compare``-style exit codes (0 pass, 1 failures,
2 usage error). Every check also declares *mutators* — deliberate
single-implementation perturbations — and the mutation smoke tier
(``--smoke``, also ``tests/validate/test_mutation_smoke.py``) asserts
each check actually trips under each of them, so a check that can never
fail cannot silently rot.
"""

from .registry import (
    Check,
    CheckContext,
    CheckFailure,
    CheckResult,
    all_checks,
    get_check,
    mutation_smoke,
    register_check,
    run_checks,
)

# Importing the module registers the built-in checks.
from . import checks as _checks  # noqa: F401  (registration side effect)

__all__ = [
    "Check",
    "CheckContext",
    "CheckFailure",
    "CheckResult",
    "all_checks",
    "get_check",
    "mutation_smoke",
    "register_check",
    "run_checks",
]
