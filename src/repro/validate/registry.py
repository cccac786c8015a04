"""Check registry: registration, execution, and mutation smoke.

A check is a plain function taking a :class:`CheckContext` and raising
:class:`CheckFailure` (or ``AssertionError``) when the pair it guards
diverges or the invariant it guards is violated. Checks register
themselves with :func:`register_check`, carrying

- ``kind``: ``"differential"`` (two implementations compared) or
  ``"invariant"`` (properties of one implementation),
- ``pair``: the dotted names of the two compared implementations (for
  differential checks),
- ``mutators``: named context managers that each perturb exactly one
  implementation; :func:`mutation_smoke` asserts the check fails under
  every one of them, proving the check is able to fail at all.

:func:`run_checks` executes each check body with no metrics registry
installed (checks that compare metric streams install their own),
counts ``validate.checks.*`` on the caller's registry, records one
``validate.check`` span per check, and returns structured
:class:`CheckResult` rows the CLI renders and serializes.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import set_metrics
from ..obs.tracing import span

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


class CheckFailure(AssertionError):
    """A divergence between redundant implementations or a violated
    invariant; the message pinpoints the disagreeing inputs/fields."""


class CheckContext:
    """Per-run knobs passed to every check.

    ``quick`` selects the deterministic tier (fixed seeds, small
    workload grid — what CI gates on); the full tier adds the
    hypothesis-driven randomized drivers on top.
    """

    __slots__ = ("quick",)

    def __init__(self, quick: bool = True) -> None:
        self.quick = quick


class Check:
    """One registered correctness check."""

    __slots__ = ("name", "kind", "pair", "fn", "mutators", "description")

    def __init__(
        self,
        name: str,
        kind: str,
        fn: Callable[[CheckContext], Optional[str]],
        pair: Optional[Tuple[str, str]] = None,
        mutators: Optional[Dict[str, Callable[[], ContextManager]]] = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.kind = kind
        self.fn = fn
        self.pair = pair
        self.mutators = dict(mutators or {})
        self.description = description or (fn.__doc__ or "").strip().split("\n")[0]


class CheckResult:
    """Outcome of one check execution."""

    __slots__ = ("name", "kind", "pair", "status", "detail", "duration_s")

    def __init__(
        self,
        name: str,
        kind: str,
        pair: Optional[Tuple[str, str]],
        status: str,
        detail: str,
        duration_s: float,
    ) -> None:
        self.name = name
        self.kind = kind
        self.pair = pair
        self.status = status  # "pass" | "fail" | "error"
        self.detail = detail
        self.duration_s = duration_s

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "pair": list(self.pair) if self.pair else None,
            "status": self.status,
            "detail": self.detail,
            "duration_s": self.duration_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckResult({self.name!r}, {self.status!r})"


_CHECKS: Dict[str, Check] = {}

_KINDS = ("differential", "invariant")


def register_check(
    name: str,
    kind: str,
    pair: Optional[Tuple[str, str]] = None,
    mutators: Optional[Dict[str, Callable[[], ContextManager]]] = None,
    description: str = "",
):
    """Decorator: register ``fn`` as the named check.

    ``pair`` is required for differential checks (the two dotted
    implementation names being cross-checked); every check should carry
    at least one mutator so the mutation smoke tier can prove it
    fail-capable.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown check kind {kind!r}; known: {_KINDS}")
    if kind == "differential" and pair is None:
        raise ValueError(f"differential check {name!r} must name its pair")

    def decorator(fn: Callable[[CheckContext], Optional[str]]):
        if name in _CHECKS:
            raise ValueError(f"check {name!r} already registered")
        _CHECKS[name] = Check(
            name, kind, fn, pair=pair, mutators=mutators, description=description
        )
        return fn

    return decorator


def all_checks() -> List[Check]:
    """Registered checks in registration order."""
    return list(_CHECKS.values())


def get_check(name: str) -> Check:
    if name not in _CHECKS:
        known = ", ".join(sorted(_CHECKS))
        raise KeyError(f"unknown check {name!r}; known: {known}")
    return _CHECKS[name]


def _run_one(check: Check, context: CheckContext) -> CheckResult:
    # The check body runs with no registry installed, so its
    # "metric-free" legs take the same paths as production with
    # telemetry off; the legs that want metrics install their own.
    # validate.* bookkeeping goes to the caller's registry afterwards.
    registry = set_metrics(None)
    start = time.perf_counter()
    try:
        with span("validate.check", check=check.name):
            detail = check.fn(context)
        status, message = "pass", (detail or "")
    except CheckFailure as exc:
        status, message = "fail", str(exc)
    except AssertionError as exc:
        status, message = "fail", str(exc) or "assertion failed"
    except Exception as exc:  # infrastructure error, not a divergence
        status = "error"
        message = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    finally:
        set_metrics(registry)
    duration = time.perf_counter() - start
    if registry is not None:
        registry.inc("validate.checks.run")
        registry.inc(f"validate.checks.{'passed' if status == 'pass' else 'failed'}")
        registry.inc("validate.check.status", check=check.name, status=status)
        registry.observe("validate.check.duration_seconds", duration)
    return CheckResult(
        check.name, check.kind, check.pair, status, message, duration
    )


def run_checks(
    names: Optional[Sequence[str]] = None,
    quick: bool = True,
) -> List[CheckResult]:
    """Run the named checks (default: all) and return their results.

    Unknown names raise ``KeyError`` before anything runs, so a typoed
    ``--only`` cannot masquerade as a passing run.
    """
    selected = (
        [get_check(name) for name in names]
        if names is not None
        else all_checks()
    )
    context = CheckContext(quick=quick)
    return [_run_one(check, context) for check in selected]


def mutation_smoke(
    name: str, quick: bool = True
) -> Dict[str, bool]:
    """Prove the named check is able to fail.

    Runs the check once unmutated (it must pass — a broken baseline
    would make every mutation 'trip') and then once under each of its
    registered mutators, recording whether the check tripped (failed or
    errored). Returns ``{mutator_name: tripped}``; a check with no
    mutators returns ``{}`` and should be treated as unproven.
    """
    check = get_check(name)
    context = CheckContext(quick=quick)
    baseline = _run_one(check, context)
    if not baseline.ok:
        raise CheckFailure(
            f"check {name!r} fails unmutated ({baseline.detail}); "
            "fix the divergence before smoke-testing mutations"
        )
    outcomes: Dict[str, bool] = {}
    for mutator_name, mutator in check.mutators.items():
        with mutator():
            result = _run_one(check, context)
        outcomes[mutator_name] = not result.ok
    return outcomes
