"""Finite-trial simulation of Bell-test runs and run-ensemble statistics.

A run draws N trials from a behavior under a sampling scheme and records the
16 cell counts N(abxy); the frequency estimator divides each block by its
trial count N(xy).  Ensembles of runs reproduce the violation histograms of
the simulated experiments.

Reproducibility contract: runs are drawn in chunks of ``CHUNK``.  Chunk c
covers runs c*CHUNK ... (c+1)*CHUNK - 1 and draws them all from the stream
``default_rng([seed, c])``: first the per-block trial counts N(xy) of every
run, then the cell counts of each setting block for all runs at once.  Under
uniform-random allocation the block totals are multinomial(N, 1/4 each),
independent of the behavior, and the runs with an empty block are redrawn.  An
ensemble is therefore a prefix of any longer ensemble with the same seed, up
to its last whole chunk.  Chunks may be drawn concurrently, on up to
``WORKERS`` threads; the counts do not depend on the number of threads.

``counts_ensemble`` is the one sampler: it hands out the int64 cell counts,
and its callers apply ``frequencies`` themselves.
"""

from __future__ import annotations

import csv
import os
import threading
from dataclasses import dataclass

import numpy as np

from .inequalities import BellInequality, sigma_ratio
from .sampling import Allocation, SamplingScheme
from .space import BEHAVIOR_TOL, DIM, check_distribution

#: runs per chunk; chunk c draws from the stream ``default_rng([seed, c])``
CHUNK = 1024
#: threads that draw an ensemble's chunks side by side: the CPUs this process may use
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def frequencies(counts) -> np.ndarray:
    """Per-block relative frequencies N(abxy) / N(xy) of one run, shape (16,),
    or of each of k runs, shape (k, 16).

    The result is normalized by construction but generally signaling: the
    sampling noise has components in the signaling subspace.
    """
    arr = np.asarray(counts, dtype=np.int64)
    blocks = arr.reshape(arr.shape[:-1] + (4, 4))  # block b holds cells 4b ... 4b+3
    # four slice adds: on a (1024, 4, 4) chunk, numpy's reduction over the
    # length-4 axis costs ~7x as much
    n_xy = blocks[..., :1] + blocks[..., 1:2] + blocks[..., 2:3] + blocks[..., 3:]
    if np.min(n_xy) == 0:
        raise ValueError("a setting block has no trials; frequencies undefined")
    return (blocks / n_xy).reshape(arr.shape)


def counts_ensemble(p, scheme: SamplingScheme, runs: int,
                    seed: int) -> tuple[np.ndarray, int]:
    """Cell counts N(abxy) of ``runs`` independent runs, int64 of shape
    (runs, 16), plus the total number of rejected draws.

    Uniform-random draws that leave a setting block empty are redrawn from the
    chunk's stream (the frequency estimator is undefined on them); each
    redrawn run counts one rejection.  At realistic trial counts rejections
    are vanishingly rare.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # clip the tolerance-level negatives admitted by check_distribution;
    # multinomial sampling requires exact nonnegativity
    arr = np.clip(check_distribution(p, tol=BEHAVIOR_TOL), 0.0, None)
    shares = [pb / pb.sum() for pb in arr.reshape(4, 4)]  # block b: cells 4b ... 4b+3
    out = np.empty((runs, DIM), dtype=np.int64)
    rejections = [0] * -(-runs // CHUNK)  # one count per chunk
    workers = min(WORKERS, len(rejections))
    stop, errors = threading.Event(), []

    def draw(w):  # worker w draws chunks w, w + workers, ...; the caller is worker 0
        try:
            for c in range(w, len(rejections), workers):
                if stop.is_set():
                    return
                rng = np.random.default_rng([seed, c])
                rows = out[c * CHUNK:(c + 1) * CHUNK]
                if scheme.allocation is Allocation.FIXED_EQUAL:  # block id x + 2y
                    n_xy = np.broadcast_to(scheme.block_counts(), (len(rows), 4))
                else:
                    n_xy = rng.multinomial(scheme.n_trials, [0.25] * 4, size=len(rows))
                    empty = np.flatnonzero(np.min(n_xy, axis=1) == 0)
                    while empty.size:
                        rejections[c] += empty.size
                        n_xy[empty] = rng.multinomial(scheme.n_trials, [0.25] * 4, size=empty.size)
                        empty = empty[np.min(n_xy[empty], axis=1) == 0]
                for b, pb in enumerate(shares):  # one multinomial draw per block for all runs
                    rows[:, 4 * b:4 * b + 4] = rng.multinomial(n_xy[:, b], pb)
        except BaseException as exc:  # re-raised on the caller's thread below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=draw, args=(w,)) for w in range(1, workers)]
    try:
        for t in threads:
            t.start()
        draw(0)
        for t in threads:
            t.join()
    finally:  # after an exception here, each worker stops at its next chunk
        stop.set()
        for t in threads:
            if t.is_alive():  # a thread that failed to start never ran
                t.join()
    if errors:
        raise errors[0]
    return out, sum(rejections)


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
        """Sample standard deviation; 0.0 for a single run."""
        col = self.values[:, self.names.index(name)]
        return float(col.std(ddof=1)) if len(col) > 1 else 0.0

    def summary(self) -> dict:
        entries = {}
        for k, name in enumerate(self.names):
            mean, sd = self.mean(name), self.sd(name)
            entry = {"mean": mean, "sd": sd}
            if sd > 0.0:
                entry["sigma_ratio"] = sigma_ratio(mean, self.local_bounds[k], sd)
            entries[name] = entry
        return {
            "runs": self.runs,
            "trials": int(self.scheme.n_trials),
            "allocation": self.scheme.allocation.value,
            "seed": int(self.seed),
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
    names = tuple(b.name or f"beta{k}" for k, b in enumerate(betas))
    for k, name in enumerate(names):
        if name in names[:k]:  # reports and CSV columns are keyed by name
            raise ValueError(f"inequality name {name!r} is repeated")
    counts, rejections = counts_ensemble(p, scheme, runs, seed)
    freqs = counts.view(float)  # chunk by chunk in place: one (runs, 16) array
    for start in range(0, runs, CHUNK):
        freqs[start:start + CHUNK] = frequencies(counts[start:start + CHUNK])
    coeff_matrix = np.stack([b.coeffs for b in betas], axis=1)
    values = freqs @ coeff_matrix
    return EnsembleReport(
        names=names,
        local_bounds=tuple(float(b.local_bound) for b in betas),
        values=values,
        seed=seed,
        scheme=scheme,
        rejections=rejections,
    )


def write_histogram_csv(report: EnsembleReport, path, bins: int = 80) -> None:
    """Shared-binning histogram of the per-run values, one count column per
    inequality: bin_left, bin_right, count_<name>, ..."""
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
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
