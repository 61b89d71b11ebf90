"""Trial-allocation schemes for finite-statistics runs."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass


class Allocation(enum.Enum):
    """How the N trials of a run are distributed over the four setting pairs."""

    FIXED_EQUAL = "fixed"      # deterministic N/4 per block (remainder to the first blocks)
    UNIFORM_RANDOM = "random"  # every trial draws (x, y) uniformly


@dataclass(frozen=True)
class SamplingScheme:
    n_trials: int
    allocation: Allocation = Allocation.FIXED_EQUAL

    def __post_init__(self):
        if not isinstance(self.n_trials, numbers.Integral):  # int or numpy integer
            raise ValueError(f"n_trials must be an integer, got {self.n_trials!r}")
        # fewer trials than setting blocks leave a block without an estimate
        if self.n_trials < 4:
            raise ValueError(f"a run needs at least 4 trials, got {self.n_trials}")

    def block_counts(self) -> tuple[int, int, int, int]:
        """Deterministic per-block trial counts N(xy) for fixed allocation,
        ordered by block id x + 2y; the remainder goes to the leading blocks."""
        if self.allocation is not Allocation.FIXED_EQUAL:
            raise ValueError("block counts are deterministic only for fixed allocation")
        base, extra = divmod(self.n_trials, 4)
        return tuple(base + (1 if k < extra else 0) for k in range(4))
