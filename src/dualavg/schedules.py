"""Power-law parameter schedules value_t = c * t^(-e)."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Schedule:
    """Non-increasing positive schedule c * t^(-e)."""

    coefficient: float
    exponent: float = 0.0

    def __post_init__(self):
        if not 0 < self.coefficient < math.inf:
            raise ValueError("schedule coefficient must be positive and finite")
        if not 0 <= self.exponent < math.inf:
            raise ValueError("schedule exponent must be nonnegative and finite")

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self.coefficient * float(t) ** (-self.exponent)
