"""Estimator covariance and the minimal-variance variant of a Bell inequality.

A run of N trials estimates the behavior by per-block relative frequencies.
Those estimates fluctuate; within each setting block the counts are
multinomial, so for a deterministic allocation the covariance of the
frequency vector is block-diagonal with the standard multinomial form.  The
variance of an inequality value I = beta . P_hat is the quadratic form
beta^T Sigma beta, and only the signaling components of beta are free to
change without touching the value on nonsignaling behaviors, so minimizing
over them yields the statistically optimal variant.
"""

from __future__ import annotations

import numpy as np

from . import simulate
from .inequalities import BellInequality, sigma_ratio  # noqa: F401  (re-exported)
from .sampling import Allocation, SamplingScheme
from .space import DIM, Subspace, block_indices, check_distribution, projector, q_basis, subspace_signs


def check_covariance(sigma, sym_tol: float = 1e-12, eig_tol: float = 1e-10) -> np.ndarray:
    """Validate shape, symmetry and positive semidefiniteness (to tolerance)."""
    S = np.asarray(sigma, dtype=float)
    if S.shape != (DIM, DIM):
        raise ValueError(f"covariance must be 16x16, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > sym_tol * scale:
        raise ValueError("covariance is not symmetric")
    if float(np.linalg.eigvalsh(S)[0]) < -eig_tol * scale:
        raise ValueError("covariance is not positive semidefinite")
    return S


def analytic_covariance(p, scheme: SamplingScheme) -> np.ndarray:
    """Multinomial covariance of the frequency estimator, fixed allocation.

    Within the block (x, y) holding n trials,
    Cov(p_hat_ab, p_hat_a'b') = (delta p_ab - p_ab p_a'b') / n; blocks are
    independent, so all cross-block entries vanish.
    """
    arr = check_distribution(p, tol=1e-9)
    if scheme.allocation is not Allocation.FIXED_EQUAL:
        raise ValueError("the analytic form needs deterministic per-block counts")
    counts = scheme.block_counts()
    sigma = np.zeros((DIM, DIM))
    for x in range(2):
        for y in range(2):
            idx = block_indices(x, y)
            pb = arr[idx]
            n = counts[x + 2 * y]
            sigma[np.ix_(idx, idx)] = (np.diag(pb) - np.outer(pb, pb)) / n
    return sigma


def mc_covariance(p, scheme: SamplingScheme, runs: int, seed: int) -> np.ndarray:
    """Sample covariance of the per-run frequency estimators.

    Deterministic given the seed: run i draws from the stream (seed, i).
    Degenerate samples produce the zero matrix.
    """
    if runs < 2:
        raise ValueError("need at least two runs for a sample covariance")
    freqs, _ = simulate.frequencies_ensemble(p, scheme, runs, seed)
    return np.cov(freqs, rowvar=False, ddof=1)


def std_dev(beta, sigma) -> float:
    """Standard deviation sqrt(beta^T Sigma beta) of the inequality estimate."""
    coeffs = np.asarray(getattr(beta, "coeffs", beta), dtype=float)
    S = np.asarray(sigma, dtype=float)
    quad = float(coeffs @ S @ coeffs)
    if quad < -1e-12:
        raise ValueError(f"quadratic form is negative ({quad:g}); invalid covariance")
    return float(np.sqrt(max(quad, 0.0)))


def _si_basis() -> np.ndarray:
    """Orthonormal basis of the signaling subspace as a 16x4 matrix."""
    return np.stack([q_basis(*s) / 4.0 for s in subspace_signs(Subspace.SI)], axis=1)


def optimal_variant(beta: BellInequality, sigma, rcond: float = 1e-10) -> BellInequality:
    """The variant of ``beta`` whose estimate has minimal variance.

    Keeps every non-signaling component of ``beta`` (so the value on any
    nonsignaling behavior, and hence the local bound, is untouched) and
    replaces the signaling components with the minimizer of the quadratic
    variance, obtained by solving the stationarity condition
    Pi Sigma (beta_nos + beta_si) = 0 restricted to the signaling subspace.
    Singular directions (signaling noise the covariance never excites) are
    handled by the Moore-Penrose pseudo-inverse, with singular values below
    ``rcond`` times the largest dropped; the cutoff is applied inside the
    4-dimensional signaling block so it scales with the covariance itself.
    """
    S = check_covariance(sigma)
    pi_bar = np.eye(DIM) - projector(Subspace.SI)
    b_nos = pi_bar @ beta.coeffs
    B = _si_basis()
    block = B.T @ S @ B
    rhs = B.T @ S @ b_nos
    # anchor the cutoff to the full covariance scale: block directions that
    # carry a vanishing share of the total variance are treated as exactly
    # variance-free rather than inverted as numerical noise
    u, svals, vt = np.linalg.svd(block)
    cut = rcond * max(float(svals[0]) if svals.size else 0.0, float(np.max(np.abs(S))), 1e-300)
    inv = np.where(svals > cut, 1.0 / np.where(svals > cut, svals, 1.0), 0.0)
    si_coeffs = -(vt.T * inv) @ (u.T @ rhs)
    name = f"{beta.name}*" if beta.name else "optimal-variant"
    return BellInequality(b_nos + B @ si_coeffs, beta.local_bound, name)
