"""Estimator covariance and the minimal-variance variant of a Bell inequality.

A run of N trials estimates the behavior by per-block relative frequencies.
Those estimates fluctuate; given the block totals, each block's counts are
an independent multinomial, so the covariance of the frequency vector is
block-diagonal with the standard multinomial form over 1 / E[1 / N(xy)].  The
variance of an inequality value I = beta . P_hat is the quadratic form
beta^T Sigma beta, and only the signaling components of beta are free to
change without touching the value on nonsignaling behaviors, so minimizing
over them yields the statistically optimal variant.

Block view: block ``b = x + 2y`` is row ``b`` of ``p.reshape(4, 4)``, so the
covariance is nonzero only on its four diagonal 4x4 blocks.  The optimizer
reads the signaling subspace from ``space.basis``.
"""

from __future__ import annotations

import numpy as np

from .inequalities import BellInequality, sigma_ratio  # noqa: F401  (re-exported)
from .sampling import SamplingScheme
from .space import DIM, Subspace, basis, block_distributions


#: asymmetry (SYM_TOL) and negative eigenvalues and quadratic forms (EIG_TOL)
#: down to these fractions of the covariance's own scale are accepted as
#: rounding; RCOND is ``optimal_variant``'s pseudo-inverse cutoff
SYM_TOL = 1e-12
EIG_TOL = 1e-10
RCOND = 1e-10
_PSD_SHIFT = EIG_TOL * np.eye(DIM)  # the diagonal shift of the positive-semidefinite test
_SAME_BLOCK = np.kron(np.eye(4), np.ones((4, 4)))  # M: 1 where two cells share a setting block


def check_covariance(sigma) -> np.ndarray:
    """Validate shape, symmetry and positive semidefiniteness.

    ``SYM_TOL`` and ``EIG_TOL`` are relative to the largest entry, so the
    verdict is the same for S and c*S; a covariance at 1e8 trials has entries
    near 1e-12.
    """
    return _checked_covariance(sigma)[0]


def _checked_covariance(sigma) -> tuple[np.ndarray, float]:
    """``check_covariance``'s result and the scale max|S_ij| it measured."""
    S = np.asarray(sigma, dtype=float)
    if S.shape != (DIM, DIM):
        raise ValueError(f"covariance must be 16x16, got {S.shape}")
    scale = float(np.max(np.abs(S)))  # nan or inf if any entry is
    if not np.isfinite(scale):
        raise ValueError("covariance entries must be finite")
    if scale == 0.0:
        return S, scale  # e.g. the sample covariance of identical runs
    if np.max(np.abs(S - S.T)) > SYM_TOL * scale:
        raise ValueError("covariance is not symmetric")
    try:  # a Cholesky factor exists iff lambda_min(S) > -EIG_TOL * scale
        np.linalg.cholesky(S / scale + _PSD_SHIFT)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive semidefinite") from None
    return S, scale


def analytic_covariance(p, scheme: SamplingScheme) -> np.ndarray:
    """Multinomial covariance of the frequency estimator, either allocation.

    Sigma = (diag q - M o q q^T) / n, where q is ``space.block_distributions(p)``
    as a 16-vector: p with its tolerance-level negatives set to 0 and each block
    divided by its sum, the blocks the sampler draws from.  n is 1 / E[1 / N(xy)]
    of each cell's block, ``scheme.effective_block_counts()``; M is the 0/1 same-block mask.
    """
    q = block_distributions(p).reshape(DIM)
    sigma = np.subtract(0.0, _SAME_BLOCK * q * q[:, None])  # 0 - x, not -x, keeps +0.0
    sigma.flat[::DIM + 1] += q
    sigma /= np.array(scheme.effective_block_counts(), dtype=float).repeat(4)[:, None]
    return sigma


def mc_covariance(p, scheme: SamplingScheme, runs: int, seed: int) -> np.ndarray:
    """Sample covariance of the per-run frequency estimators.

    Deterministic given the seed: runs are drawn in chunks of
    ``simulate.CHUNK``, chunk c from the stream (seed, c).
    Degenerate samples produce the zero matrix.
    """
    from . import simulate  # only the Monte-Carlo covariance samples
    if runs < 2:
        raise ValueError("need at least two runs for a sample covariance")
    counts, _ = simulate.counts_ensemble(p, scheme, runs, seed)
    return np.cov(simulate.frequencies(counts), rowvar=False, ddof=1)


def std_dev(beta, sigma) -> float:
    """Standard deviation sqrt(beta^T Sigma beta) of the inequality estimate.

    A negative form is clipped to 0 only down to ``EIG_TOL`` |beta|^2 max|Sigma|,
    about the most a covariance accepted by ``check_covariance`` can produce.
    """
    coeffs = np.asarray(getattr(beta, "coeffs", beta), dtype=float)
    S = np.asarray(sigma, dtype=float)
    quad = float(coeffs @ S @ coeffs)
    if quad < 0.0 and quad < -EIG_TOL * float(coeffs @ coeffs) * float(np.max(np.abs(S))):
        raise ValueError(f"quadratic form is negative ({quad:g}); invalid covariance")
    return float(np.sqrt(max(quad, 0.0)))


def optimal_variant(beta: BellInequality, sigma) -> BellInequality:
    """The variant of ``beta`` whose estimate has minimal variance.

    Keeps every non-signaling component of ``beta`` (so the value on any
    nonsignaling behavior, and hence the local bound, is untouched) and
    replaces the signaling components with the minimizer of the quadratic
    variance, obtained by solving the stationarity condition
    Pi Sigma (beta_nos + beta_si) = 0 restricted to the signaling subspace.
    Singular directions (signaling noise the covariance never excites) are
    handled by the Moore-Penrose pseudo-inverse, with eigenvalues below
    ``RCOND`` times the largest dropped; the cutoff is applied inside the
    4-dimensional signaling block so it scales with the covariance itself.
    """
    S, scale = _checked_covariance(sigma)
    B = basis(Subspace.SI)
    b_nos = beta.coeffs - B @ (B.T @ beta.coeffs)
    BtS = B.T @ S
    # the signaling block is symmetric PSD; cut at the full covariance scale:
    # block directions that carry a vanishing share of the total variance are
    # treated as exactly variance-free rather than inverted as numerical noise
    w, V = np.linalg.eigh(BtS @ B)
    keep = w > RCOND * max(float(w[-1]), scale, 1e-300)
    si_coeffs = -(V[:, keep] / w[keep]) @ (V[:, keep].T @ (BtS @ b_nos))
    name = f"{beta.name}*" if beta.name else "optimal-variant"
    return BellInequality(b_nos + B @ si_coeffs, beta.local_bound, name)
