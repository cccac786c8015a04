"""The canonical workload identity: :class:`RunSpec`.

A workload is fully determined by five inputs — model, dataset, number
of graph pairs, batch size, and seed — plus the derived quick/full
fidelity flag. ``RunSpec`` is the one hashable, frozen value that both
the in-process memos of ``experiments.common`` and the ``perf.parallel``
worker tasks key on, so the two cannot drift apart; it is serialized in
exactly one place with a schema-versioned ``to_dict``/``from_dict``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RunSpec",
    "RUNSPEC_SCHEMA_VERSION",
    "FIDELITIES",
    "QUICK_PAIRS",
    "QUICK_BATCH",
    "FULL_BATCH",
]

RUNSPEC_SCHEMA_VERSION = 1

# Harness fidelity constants. Quick mode runs every workload at this
# fixed tiny size; anything else is a "full" run (full-mode pair counts
# come from the Table II test-set sizes — see
# ``experiments.common.workload_size``).
QUICK_PAIRS = 4
QUICK_BATCH = 4
FULL_BATCH = 32

FIDELITIES = ("quick", "full")


@dataclass(frozen=True)
class RunSpec:
    """One profiled workload: what ran, on what data, at what size.

    Frozen and hashable, so it is directly usable as a cache key. The
    ``fidelity`` field exists so quick and full runs of the same
    (model, dataset, seed) can never alias, even if a future size change
    made their pair counts collide; derive it with :meth:`make` rather
    than passing it by hand.
    """

    model: str
    dataset: str
    num_pairs: int
    batch_size: int
    seed: int = 0
    fidelity: str = "full"

    def __post_init__(self) -> None:
        if self.num_pairs < 1 or self.batch_size < 1:
            raise ValueError("num_pairs and batch_size must be positive")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def derive_fidelity(num_pairs: int, batch_size: int) -> str:
        """The quick/full flag a workload size implies."""
        if (int(num_pairs), int(batch_size)) == (QUICK_PAIRS, QUICK_BATCH):
            return "quick"
        return "full"

    @classmethod
    def make(
        cls,
        model: str,
        dataset: str,
        num_pairs: int,
        batch_size: int,
        seed: int = 0,
    ) -> "RunSpec":
        """Build a spec with the fidelity flag derived from the size."""
        return cls(
            model=str(model),
            dataset=str(dataset),
            num_pairs=int(num_pairs),
            batch_size=int(batch_size),
            seed=int(seed),
            fidelity=cls.derive_fidelity(num_pairs, batch_size),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation (schema-versioned)."""
        return {
            "schema_version": RUNSPEC_SCHEMA_VERSION,
            "model": self.model,
            "dataset": self.dataset,
            "num_pairs": self.num_pairs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        version = payload.get("schema_version")
        if version != RUNSPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunSpec schema version {version!r} "
                f"(expected {RUNSPEC_SCHEMA_VERSION})"
            )
        return cls(
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            num_pairs=int(payload["num_pairs"]),
            batch_size=int(payload["batch_size"]),
            seed=int(payload["seed"]),
            fidelity=str(payload["fidelity"]),
        )

    # ------------------------------------------------------------------
    @property
    def stem(self) -> str:
        """Human-readable identifier used in artifact and report names."""
        return (
            f"{self.model}_{self.dataset}_p{self.num_pairs}"
            f"_b{self.batch_size}_s{self.seed}_{self.fidelity}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.stem
