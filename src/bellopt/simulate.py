"""Finite-trial simulation of Bell-test runs and run-ensemble statistics.

A run draws N trials from a behavior under a sampling scheme and records the
16 cell counts N(abxy); the frequency estimator divides each block by its
trial count N(xy).  Ensembles of runs reproduce the violation histograms of
the simulated experiments.

Reproducibility contract: run number i always draws from the dedicated
stream ``default_rng([seed, i])``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .inequalities import BellInequality
from .sampling import Allocation, SamplingScheme
from .space import DIM, block_indices, check_distribution

#: per-setting-block cell indices in block-id order (x + 2y)
_BLOCK_INDEX = [block_indices(k % 2, k // 2) for k in range(4)]


@dataclass(frozen=True)
class RunCounts:
    """Event counts N(abxy) of one run."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (DIM,) or np.min(arr) < 0:
            raise ValueError("counts must be 16 nonnegative integers")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def block_total(self, x: int, y: int) -> int:
        return int(self.counts[block_indices(x, y)].sum())


def _draw_counts(p: np.ndarray, scheme: SamplingScheme, rng: np.random.Generator) -> np.ndarray:
    # clip the tolerance-level negatives admitted by check_distribution;
    # multinomial sampling requires exact nonnegativity
    p = np.clip(p, 0.0, None)
    counts = np.zeros(DIM, dtype=np.int64)
    if scheme.allocation is Allocation.FIXED_EQUAL:
        per_block = scheme.block_counts()
        for k, idx in enumerate(_BLOCK_INDEX):
            pb = p[idx]
            counts[idx] = rng.multinomial(per_block[k], pb / pb.sum())
    else:
        # uniform random settings: joint cell probabilities p/4
        q = p / 4.0
        counts[:] = rng.multinomial(scheme.n_trials, q / q.sum())
    return counts


def simulate_run(p, scheme: SamplingScheme, rng: np.random.Generator) -> RunCounts:
    """One simulated run; deterministic given the generator state."""
    arr = check_distribution(p, tol=1e-9)
    return RunCounts(_draw_counts(arr, scheme, rng))


def frequencies(counts) -> np.ndarray:
    """Per-block relative frequencies N(abxy) / N(xy).

    The result is normalized by construction but generally signaling: the
    sampling noise has components in the signaling subspace.
    """
    arr = np.asarray(getattr(counts, "counts", counts), dtype=np.int64)
    freq = np.empty(DIM)
    for idx in _BLOCK_INDEX:
        n = arr[idx].sum()
        if n == 0:
            raise ValueError("a setting block has no trials; frequencies undefined")
        freq[idx] = arr[idx] / n
    return freq


def _run_frequencies(p, scheme, seed, run_index) -> tuple[np.ndarray, int]:
    """Frequencies of run ``run_index`` plus the number of rejected draws.

    Uniform-random draws that leave a setting block empty are redrawn from the
    same stream (the frequency estimator is undefined on them); at realistic
    trial counts rejections are vanishingly rare.
    """
    rng = np.random.default_rng([seed, run_index])
    rejections = 0
    while True:
        counts = _draw_counts(p, scheme, rng)
        block_totals = [counts[idx].sum() for idx in _BLOCK_INDEX]
        if min(block_totals) > 0:
            break
        rejections += 1
    freq = np.empty(DIM)
    for idx, n in zip(_BLOCK_INDEX, block_totals):
        freq[idx] = counts[idx] / n
    return freq, rejections


def frequencies_ensemble(p, scheme: SamplingScheme, runs: int,
                         seed: int) -> tuple[np.ndarray, int]:
    """Frequency estimators of ``runs`` independent runs, shape (runs, 16),
    plus the total number of rejected draws."""
    if runs < 1:
        raise ValueError("need at least one run")
    if scheme.allocation is Allocation.UNIFORM_RANDOM and scheme.n_trials < 4:
        # fewer trials than setting blocks: every draw would be rejected
        raise ValueError("uniform-random allocation needs at least 4 trials per run")
    arr = check_distribution(p, tol=1e-9)
    out = np.empty((runs, DIM))
    rejections = 0
    for i in range(runs):
        out[i], rej = _run_frequencies(arr, scheme, seed, i)
        rejections += rej
    return out, rejections


@dataclass(frozen=True)
class EnsembleReport:
    """Per-run inequality values of a simulated ensemble, with summaries."""

    names: tuple
    local_bounds: tuple
    values: np.ndarray  # shape (runs, len(names))
    seed: int
    scheme: SamplingScheme
    rejections: int = 0

    @property
    def runs(self) -> int:
        return self.values.shape[0]

    def mean(self, name: str) -> float:
        return float(self.values[:, self.names.index(name)].mean())

    def sd(self, name: str) -> float:
        return float(self.values[:, self.names.index(name)].std(ddof=1))

    def summary(self) -> dict:
        entries = {}
        for k, name in enumerate(self.names):
            col = self.values[:, k]
            mean = float(col.mean())
            sd = float(col.std(ddof=1)) if len(col) > 1 else 0.0
            entry = {"mean": mean, "sd": sd}
            if sd > 0.0:
                entry["sigma_ratio"] = (mean - self.local_bounds[k]) / sd
            entries[name] = entry
        return {
            "runs": self.runs,
            "trials": self.scheme.n_trials,
            "allocation": self.scheme.allocation.value,
            "seed": self.seed,
            "rejected_draws": self.rejections,
            "inequalities": entries,
        }


def run_ensemble(p, betas: list[BellInequality], scheme: SamplingScheme,
                 runs: int, seed: int) -> EnsembleReport:
    """Evaluate every inequality on the same simulated runs.

    All inequalities see identical counts run by run, which is what makes
    the comparison of their spreads meaningful.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("need at least one inequality")
    freqs, rejections = frequencies_ensemble(p, scheme, runs, seed)
    coeff_matrix = np.stack([b.coeffs for b in betas], axis=1)
    values = freqs @ coeff_matrix
    return EnsembleReport(
        names=tuple(b.name or f"beta{k}" for k, b in enumerate(betas)),
        local_bounds=tuple(float(b.local_bound) for b in betas),
        values=values,
        seed=seed,
        scheme=scheme,
        rejections=rejections,
    )


def write_histogram_csv(report: EnsembleReport, path, bins: int = 80) -> None:
    """Shared-binning histogram of the per-run values, one count column per
    inequality: bin_left, bin_right, count_<name>, ..."""
    lo = float(report.values.min())
    hi = float(report.values.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    hists = [
        np.histogram(report.values[:, k], bins=edges)[0]
        for k in range(len(report.names))
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right"] + [f"count_{n}" for n in report.names])
        for i in range(bins):
            writer.writerow(
                [f"{edges[i]:.12g}", f"{edges[i + 1]:.12g}"] + [int(h[i]) for h in hists]
            )


def write_values_csv(report: EnsembleReport, path) -> None:
    """Raw per-run values: run, <name>, ..."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run"] + list(report.names))
        for i in range(report.runs):
            writer.writerow([i] + [f"{v:.17g}" for v in report.values[i]])
