"""Platform registry, spec strings, and workload identity (RunSpec).

This package is the single spine for "what runs where":

- :class:`PlatformRegistry` / :data:`REGISTRY` — declarative name ->
  builder mapping for every simulation platform, with **spec strings**
  (``"CEGMA@bandwidth_gbps=512"``) deriving ablation/sweep variants
  from the stock hardware configs;
- :class:`RunSpec` — the one canonical, hashable workload key shared by
  the in-process memos and the parallel harness worker transport;
- :mod:`~repro.platforms.artifacts` — schema-versioned JSON persistence
  of ``{platform: PlatformResult}`` outputs under ``results/``.
"""

from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    default_artifact_path,
    load_results,
    results_payload,
    save_results,
)
from .builtin import DEFAULT_PLATFORMS
from .registry import (
    REGISTRY,
    ParsedSpec,
    Platform,
    PlatformEntry,
    PlatformRegistry,
    build_platform,
    register_accelerator,
    register_platform,
)
from .runspec import (
    FIDELITIES,
    FULL_BATCH,
    QUICK_BATCH,
    QUICK_PAIRS,
    RUNSPEC_SCHEMA_VERSION,
    RunSpec,
)

__all__ = [
    "Platform",
    "PlatformEntry",
    "PlatformRegistry",
    "ParsedSpec",
    "REGISTRY",
    "build_platform",
    "register_platform",
    "register_accelerator",
    "DEFAULT_PLATFORMS",
    "RunSpec",
    "RUNSPEC_SCHEMA_VERSION",
    "FIDELITIES",
    "QUICK_PAIRS",
    "QUICK_BATCH",
    "FULL_BATCH",
    "ARTIFACT_SCHEMA_VERSION",
    "results_payload",
    "save_results",
    "load_results",
    "default_artifact_path",
]
