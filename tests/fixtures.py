"""Behaviors, oracles and index helpers that only the tests use.

The library keeps what the CLI, the benchmarks and the acceptance suite
call; these helpers build test inputs and independent checks on top of it.
"""

import numpy as np

from bellopt.relabel import PartyRelabeling, Relabeling
from bellopt.sources import ReadoutModel
from bellopt.space import (
    _A,
    _B,
    _X,
    _Y,
    _cells,
    DIM,
    Subspace,
    basis,
    q_basis,
    subspace_signs,
    vector_index,
)

# --- behaviors -----------------------------------------------------------


def uniform_box() -> np.ndarray:
    """Both parties toss fair coins regardless of the settings: p = 1/4."""
    return np.full(DIM, 0.25)


def biased_marginal_box(p_b0: float = 0.25) -> np.ndarray:
    """Alice tosses a fair coin, Bob a biased one (P[b=0] = p_b0), for any setting."""
    if not 0.0 <= p_b0 <= 1.0:
        raise ValueError("p_b0 must be a probability")
    return 0.5 * np.where(_B == 0, p_b0, 1.0 - p_b0)


def setting_copy_box() -> np.ndarray:
    """Bob's outcome equals Alice's setting, Alice tosses a fair coin.

    Purely signaling from Alice to Bob: p = (1/2) delta_{b=x}.
    """
    return 0.5 * (_B == _X)


def shared_coin_box() -> np.ndarray:
    """Perfectly correlated fair outcomes for every setting: p = (1/2) delta_{a=b}."""
    return 0.5 * (_A == _B)


def symmetrized(readout: ReadoutModel) -> ReadoutModel:
    """Outcome-flip-symmetric idealization (equal bright/dark fidelity)."""
    fa = 0.5 * (readout.eta_plus_a + readout.eta_minus_a)
    fb = 0.5 * (readout.eta_plus_b + readout.eta_minus_b)
    return ReadoutModel(fa, fa, fb, fb)


# --- relabelings and the invariance oracle --------------------------------

GLOBAL_OUTCOME_FLIP = Relabeling(
    False,
    PartyRelabeling((0, 1), ((1, 0), (1, 0))),
    PartyRelabeling((0, 1), ((1, 0), (1, 0))),
)


def spans_subspace(vecs, signs) -> bool:
    """True iff every vector lies in the span of the given Q sign vectors."""
    basis = np.stack([q_basis(*s) for s in signs], axis=1) / 4.0
    P = basis @ basis.T
    return all(np.allclose(P @ v, v, atol=1e-12) for v in vecs)


# --- per-cell views --------------------------------------------------------

#: cell labels "abxy" in index order: 0000, 1000, 0100, 1100, 0010, ...
INDEX_LABELS = tuple(f"{a}{b}{x}{y}" for a, b, x, y in zip(_A, _B, _X, _Y))


def block_indices(x: int, y: int) -> np.ndarray:
    """Indices of the four (a, b) cells of the setting block (x, y)."""
    return np.array([vector_index(a, b, x, y) for b in range(2) for a in range(2)])


def marginal_a(v, a: int, x: int, y: int) -> float:
    """Alice marginal sum_b p_{ab|xy}, computed from the given y block."""
    return float(_cells(v)[y, x, :, a].sum())


def marginal_b(v, b: int, x: int, y: int) -> float:
    """Bob marginal sum_a p_{ab|xy}, computed from the given x block."""
    return float(_cells(v)[y, x, b].sum())


def correlator(v, x: int, y: int) -> float:
    """E_xy = sum_ab (-1)^(a+b) p_{ab|xy}."""
    c = _cells(v)[y, x]  # [b, a]
    return float(c[0, 0] - c[1, 0] - c[0, 1] + c[1, 1])


def correlator_pattern(x: int, y: int) -> np.ndarray:
    """Unit-trace correlation pattern E_vec_xy = (1/16) sum_kl k^x l^y Q_{--kl}.

    The correlation component of any vector is sum_xy correlator(v,x,y) *
    correlator_pattern(x,y).
    """
    weights = [float(k) ** x * float(l) ** y for _, _, k, l in subspace_signs(Subspace.CORR)]
    return basis(Subspace.CORR) @ weights / 4.0
