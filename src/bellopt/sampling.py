"""Trial-allocation schemes for finite-statistics runs."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

#: N w(N) / 4 = sum_j c_j / N^j, c_j = sum_k k! S(j, k) 3^k with S the Stirling numbers of
#: the second kind, from binomial(N, 1/4)'s central moments; from N = 2000 on it meets the sum
_SERIES, _SERIES_FROM = (1, 3, 21, 219, 3045, 52923, 1103781, 26857659), 2000


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
        if self.n_trials > 2**63 - 1:  # the sampler draws int64 counts
            raise ValueError(f"a run draws at most 2**63 - 1 trials, got {self.n_trials}")

    def block_counts(self) -> tuple[int, int, int, int]:
        """Deterministic per-block trial counts N(xy) for fixed allocation,
        ordered by block id x + 2y; the remainder goes to the leading blocks."""
        if self.allocation is not Allocation.FIXED_EQUAL:
            raise ValueError("block counts are deterministic only for fixed allocation")
        base, extra = divmod(self.n_trials, 4)
        return tuple(base + (1 if k < extra else 0) for k in range(4))

    def effective_block_counts(self) -> tuple:
        """1 / E[1 / N(xy)] per block, the count its frequency covariance divides
        by: ``block_counts()`` under fixed allocation; under random allocation
        1 / w(N) for every block, with w(N) = E[1 / N(xy) | no block empty]."""
        if self.allocation is Allocation.FIXED_EQUAL:
            return self.block_counts()
        n = int(self.n_trials)
        if n >= _SERIES_FROM:
            return (n / (4 * sum(c / n**j for j, c in enumerate(_SERIES))),) * 4
        # sum over N(00) = m ~ binomial(n, 1/4), each term weighted by the chance that
        # the other r = n - m >= 3 trials fill three blocks; C(n, m) / 3^m is finite below n = 2482
        m = np.arange(1, n - 2)
        r = n - m
        pmf = 0.75**n * np.cumprod((r + 1) / (3.0 * m))  # pmf(m) / pmf(m - 1) = (r + 1) / 3m
        weight = pmf * (1.0 - 3.0 * (2 / 3) ** r + 3.0 * (1 / 3) ** r)
        return (float(weight.sum() / (weight / m).sum()),) * 4
