"""Switch resource model: vectors of constrained hardware resources.

Section 3.1 of the paper models each switch as a vector of resource
constraints ``<Θ1, Θ2, ... Θk>`` and each program as a requirement vector
``<θj1, θj2, ... θjk>``; a set of programs fits on a switch iff the sum of
their requirements stays within the constraints in every dimension.

We use four dimensions, mirroring RMT-style hardware (Bosshart et al.):

* ``stages`` — physical match-action stages (typically 10-20),
* ``sram_mb`` — SRAM for exact-match tables, registers, sketches,
* ``tcam_kb`` — TCAM for ternary/longest-prefix matches,
* ``alus`` — stateful ALUs for register updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

#: Canonical ordering of resource dimensions.
DIMENSIONS: Tuple[str, ...] = ("stages", "sram_mb", "tcam_kb", "alus")

#: Float tolerance of the budget and sign checks.
EPSILON = 1e-9


@dataclass(frozen=True)
class ResourceVector:
    """An immutable vector over the four resource dimensions.

    Supports addition, subtraction, scaling, and component-wise comparison
    (``fits_within``), which is all the scheduler's bin packing needs.
    """

    stages: float = 0.0
    sram_mb: float = 0.0
    tcam_kb: float = 0.0
    alus: float = 0.0

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        return {dim: getattr(self, dim) for dim in DIMENSIONS}

    def as_tuple(self) -> Tuple[float, ...]:
        return tuple(getattr(self, dim) for dim in DIMENSIONS)

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "ResourceVector":
        unknown = set(values) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown resource dimensions: {sorted(unknown)}")
        return cls(**{dim: float(values.get(dim, 0.0)) for dim in DIMENSIONS})

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls()

    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*(a + b for a, b in
                                zip(self.as_tuple(), other.as_tuple())))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*(a - b for a, b in
                                zip(self.as_tuple(), other.as_tuple())))

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(*(a * factor for a in self.as_tuple()))

    def fits_within(self, budget: "ResourceVector") -> bool:
        """True iff every component is within the budget (with tolerance)."""
        return all(a <= b + EPSILON
                   for a, b in zip(self.as_tuple(), budget.as_tuple()))

    def is_nonnegative(self) -> bool:
        return all(a >= -EPSILON for a in self.as_tuple())

    def dominating_fraction(self, budget: "ResourceVector") -> float:
        """Largest per-dimension fraction of the budget this vector uses.

        Used as the scalar "size" of a program in first-fit-decreasing
        packing heuristics.  Dimensions with a zero budget only count when
        the requirement is non-zero (then the fraction is infinite).
        """
        worst = 0.0
        for need, have in zip(self.as_tuple(), budget.as_tuple()):
            if have <= 0:
                if need > 0:
                    return float("inf")
                continue
            worst = max(worst, need / have)
        return worst

    @staticmethod
    def total(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        result = ResourceVector.zero()
        for vec in vectors:
            result = result + vec
        return result

    def __str__(self) -> str:
        return (f"<stages={self.stages:g}, sram={self.sram_mb:g}MB, "
                f"tcam={self.tcam_kb:g}KB, alus={self.alus:g}>")


#: A Tofino-like profile: 12 usable stages after routing baseline,
#: generous SRAM, modest TCAM (values are per-switch aggregates).
TOFINO_LIKE = ResourceVector(stages=12, sram_mb=12.0, tcam_kb=1024, alus=48)

#: A smaller edge-switch profile.
EDGE_SWITCH = ResourceVector(stages=8, sram_mb=6.0, tcam_kb=512, alus=24)


class ResourceLedger:
    """Tracks allocations against a switch's resource budget.

    The ledger enforces the paper's feasibility constraint: at any moment
    the sum of installed programs' requirement vectors stays within the
    switch's constraint vector in every dimension.
    """

    def __init__(self, budget: ResourceVector):
        self.budget = budget
        self._allocations: Dict[str, ResourceVector] = {}

    @property
    def used(self) -> ResourceVector:
        return ResourceVector.total(self._allocations.values())

    @property
    def free(self) -> ResourceVector:
        return self.budget - self.used

    def can_allocate(self, requirement: ResourceVector) -> bool:
        return (self.used + requirement).fits_within(self.budget)

    def allocate(self, name: str, requirement: ResourceVector) -> None:
        """Reserve resources under ``name``; raises if infeasible."""
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if not self.can_allocate(requirement):
            raise ResourceExhausted(
                f"cannot allocate {requirement} under {name!r}: "
                f"used={self.used}, budget={self.budget}")
        self._allocations[name] = requirement

    def release(self, name: str) -> ResourceVector:
        try:
            return self._allocations.pop(name)
        except KeyError:
            raise KeyError(f"no allocation named {name!r}") from None

    def allocations(self) -> Dict[str, ResourceVector]:
        return dict(self._allocations)

    def utilization(self) -> Dict[str, float]:
        """Per-dimension used/budget fractions (0 for zero-budget dims)."""
        used = self.used
        result = {}
        for dim in DIMENSIONS:
            have = getattr(self.budget, dim)
            result[dim] = getattr(used, dim) / have if have > 0 else 0.0
        return result


class ResourceExhausted(RuntimeError):
    """Raised when an allocation would exceed the switch's budget."""
