"""Coefficient space of the (2,2,2) Bell scenario.

A behavior p_{ab|xy} (outcomes a, b given settings x, y, all binary) is stored
as a 16-vector in the fixed index order ``a + 2b + 4x + 8y``.  The same layout
holds the coefficients of a Bell expression, so distributions and inequalities
share all the algebra below.

Block view: the four cells of the setting block (x, y) are contiguous, so
block ``b = x + 2y`` is row ``b`` of ``v.reshape(4, 4)``, with the cell
(a, b) at column ``a + 2b``; equivalently ``v.reshape(2, 2, 2, 2)`` is indexed
``[y, x, b, a]``.  Code that works per block or per party uses these views
instead of index lists.

The sign-character basis Q_{ijkl}(ab|xy) = i^a j^b k^x l^y (i, j, k, l = +-1)
diagonalizes the action of the relabeling group and splits R^16 into six
invariant subspaces: three normalization pieces, the marginals, the
correlations, and the signaling piece.  ``decompose`` returns that split.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

DIM = 16

#: absolute tolerance for exact linear algebra on 16-dim vectors
ATOL_EXACT = 1e-12

#: absolute tolerance on an input behavior: cells down to -BEHAVIOR_TOL and
#: block sums within BEHAVIOR_TOL of 1 are accepted as rounding
BEHAVIOR_TOL = 1e-9


def vector_index(a: int, b: int, x: int, y: int) -> int:
    """Position of the (a, b | x, y) cell in the 16-vector."""
    return a + 2 * b + 4 * x + 8 * y


# per-cell outcome/setting values in index order, used to vectorize formulas
_A = np.tile([0, 1], 8)
_B = np.tile(np.repeat([0, 1], 2), 4)
_X = np.tile(np.repeat([0, 1], 4), 2)
_Y = np.repeat([0, 1], 8)


def as_vector(v) -> np.ndarray:
    """Coerce to a finite float vector of length 16 (copy)."""
    arr = np.array(v, dtype=float).reshape(-1)
    if arr.shape != (DIM,):
        raise ValueError(f"expected 16 components, got shape {np.shape(v)}")
    # a finite sum has finite components (Python floats overflow without a warning)
    if not math.isfinite(sum(arr.tolist())) and not np.isfinite(arr).all():
        raise ValueError("vector components must be finite")
    return arr


_SIGNS = (1, -1)
_SIGN_TUPLES = tuple(itertools.product(_SIGNS, repeat=4))

#: the sign-character table, read-only: row r holds Q for _SIGN_TUPLES[r];
#: _ROW maps a sign tuple to its row
_Q = np.stack([float(i) ** _A * float(j) ** _B * float(k) ** _X * float(l) ** _Y
               for i, j, k, l in _SIGN_TUPLES])
_Q.flags.writeable = False
_ROW = {s: r for r, s in enumerate(_SIGN_TUPLES)}


def q_basis(i: int, j: int, k: int, l: int) -> np.ndarray:
    """Sign-character basis vector with entries i^a j^b k^x l^y."""
    for s in (i, j, k, l):
        if s not in _SIGNS:
            raise ValueError(f"signs must be +1 or -1, got {(i, j, k, l)}")
    return _Q[_ROW[i, j, k, l]].copy()


def alpha_coefficients(v) -> dict[tuple[int, int, int, int], float]:
    """Expansion coefficients of ``v`` in the Q basis.

    Returns the 16 coefficients alpha_{ijkl} = (1/16) sum_{abxy} i^a j^b k^x
    l^y v_{abxy}, keyed by the sign tuple, so that
    ``v == sum(alpha[s] * q_basis(*s) for s in alpha)``.
    """
    return dict(zip(_SIGN_TUPLES, (_Q @ as_vector(v) / DIM).tolist()))


class Subspace(enum.Enum):
    """Invariant subspaces of the relabeling action (fine and coarse labels)."""

    NO1 = "NO1"
    NO2 = "NO2"
    NO3 = "NO3"
    MARG_A = "marg_A"
    MARG_B = "marg_B"
    CORR = "corr"
    SI_TO_B = "SI_to_B"
    SI_TO_A = "SI_to_A"
    # coarse groupings (derived views of the fine split)
    NO = "NO"
    MARG = "marg"
    NS = "NS"
    SI = "SI"
    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs in Python


FINE_SUBSPACES = (
    Subspace.NO1, Subspace.NO2, Subspace.NO3,
    Subspace.MARG_A, Subspace.MARG_B, Subspace.CORR,
    Subspace.SI_TO_B, Subspace.SI_TO_A,
)

_FINE_SIGNS = {
    Subspace.NO1: ((1, 1, 1, 1),),
    Subspace.NO2: ((1, 1, 1, -1), (1, 1, -1, 1)),
    Subspace.NO3: ((1, 1, -1, -1),),
    Subspace.MARG_A: ((-1, 1, 1, 1), (-1, 1, -1, 1)),
    Subspace.MARG_B: ((1, -1, 1, 1), (1, -1, 1, -1)),
    Subspace.CORR: ((-1, -1, 1, 1), (-1, -1, 1, -1), (-1, -1, -1, 1), (-1, -1, -1, -1)),
    Subspace.SI_TO_B: ((1, -1, -1, 1), (1, -1, -1, -1)),
    Subspace.SI_TO_A: ((-1, 1, 1, -1), (-1, 1, -1, -1)),
}

_COARSE_PARTS = {
    Subspace.NO: (Subspace.NO1, Subspace.NO2, Subspace.NO3),
    Subspace.MARG: (Subspace.MARG_A, Subspace.MARG_B),
    Subspace.NS: (Subspace.MARG_A, Subspace.MARG_B, Subspace.CORR),
    Subspace.SI: (Subspace.SI_TO_B, Subspace.SI_TO_A),
}


def subspace_signs(s: Subspace) -> tuple[tuple[int, int, int, int], ...]:
    """Sign tuples of the Q vectors spanning the subspace."""
    if s in _FINE_SIGNS:
        return _FINE_SIGNS[s]
    return tuple(
        sig for part in _COARSE_PARTS[s] for sig in _FINE_SIGNS[part]
    )


@functools.lru_cache(maxsize=None)
def basis(s: Subspace) -> np.ndarray:
    """Read-only, C-contiguous (16, dim) matrix whose orthonormal columns are
    the subspace's Q vectors divided by 4."""
    B = np.ascontiguousarray(_Q[[_ROW[sig] for sig in subspace_signs(s)]].T / 4.0)
    B.flags.writeable = False
    return B


@functools.lru_cache(maxsize=None)
def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, (1/16) sum Q Q^T over its basis."""
    P = basis(s) @ basis(s).T
    P.flags.writeable = False
    return P


def project(v, s: Subspace) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the subspace ``s``."""
    return projector(s) @ as_vector(v)


@dataclass(frozen=True)
class Decomposition:
    """The split of a vector into its six (fine: eight) invariant components."""

    components: dict  # Subspace -> np.ndarray, fine labels only

    def __getitem__(self, s: Subspace) -> np.ndarray:
        if s in self.components:
            return self.components[s]
        return np.sum([self.components[p] for p in _COARSE_PARTS[s]], axis=0)

    def recompose(self) -> np.ndarray:
        return np.sum(list(self.components.values()), axis=0)

    def norms(self) -> dict:
        return {s: float(np.linalg.norm(c)) for s, c in self.components.items()}

    def nonzero_labels(self, tol: float = 1e-9) -> tuple[Subspace, ...]:
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
        return tuple(s for s, n in self.norms().items() if n > tol)


@functools.lru_cache(maxsize=None)
def projector_stack(subspaces: tuple[Subspace, ...]) -> np.ndarray:
    """Read-only (len(subspaces), 16, 16) stack of their projectors, built on
    first use, so one product projects onto all of them."""
    P = np.stack([projector(s) for s in subspaces])
    P.flags.writeable = False
    return P


def decompose(v) -> Decomposition:
    """Unique split of ``v`` into the invariant subspaces (fine labels)."""
    parts = projector_stack(FINE_SUBSPACES) @ as_vector(v)
    return Decomposition(dict(zip(FINE_SUBSPACES, parts)))


def bell_value(beta, p) -> float:
    """Inner product of a coefficient vector with a behavior vector."""
    coeffs = getattr(beta, "coeffs", beta)
    return float(as_vector(coeffs) @ as_vector(p))


# --- behavior predicates -------------------------------------------------

def check_distribution(v, tol: float = BEHAVIOR_TOL) -> np.ndarray:
    """Validate nonnegativity and per-block normalization; return the vector."""
    arr = as_vector(v)
    cells = arr.tolist()
    if min(cells) < -tol:
        raise ValueError(f"negative probability {min(cells):g}")
    for x, y, b in ((0, 0, 0), (0, 1, 8), (1, 0, 4), (1, 1, 12)):  # b = 4 (x + 2y)
        total = 0.0 + cells[b] + cells[b + 1] + cells[b + 2] + cells[b + 3]  # numpy's order
        if abs(total - 1.0) > tol:
            raise ValueError(f"block ({x},{y}) sums to {total}, expected 1")
    return arr


def is_distribution(v, tol: float = BEHAVIOR_TOL) -> bool:
    try:
        check_distribution(v, tol)
    except ValueError:
        return False
    return True


def block_distributions(p) -> np.ndarray:
    """The (4, 4) per-block distributions an accepted behavior stands for, the one
    model of the covariance and the sampler: ``p`` checked at ``BEHAVIOR_TOL``, its
    tolerance-level negatives set to 0 and each block (row x + 2y) divided by its sum."""
    blocks = np.maximum(check_distribution(p), 0.0).reshape(4, 4)
    return blocks / blocks.sum(axis=1, keepdims=True)


def _cells(v) -> np.ndarray:
    """Tensor view of a 16-vector, indexed [y, x, b, a]."""
    return as_vector(v).reshape(2, 2, 2, 2)


def is_nonsignaling(v, tol: float = ATOL_EXACT) -> bool:
    """Literal marginal tests: each party's marginals do not depend on the
    other party's setting choice.  Independent of the subspace machinery."""
    t = _cells(v)
    marg_a, marg_b = t.sum(axis=2), t.sum(axis=3)  # [y, x, a], [y, x, b]
    return bool(np.all(np.abs(marg_a[0] - marg_a[1]) <= tol)
                and np.all(np.abs(marg_b[:, 0] - marg_b[:, 1]) <= tol))


# --- JSON codec ----------------------------------------------------------

def vector_to_json(v) -> dict:
    """Canonical JSON object for a 16-vector: {"coeffs": [...], "labels": [...]}."""
    return {"coeffs": [float(c) for c in as_vector(v)], "labels": ["abxy-order"]}


def vector_from_json(obj: dict) -> np.ndarray:
    if "coeffs" not in obj:
        raise ValueError("missing 'coeffs' field")
    labels = obj.get("labels", ["abxy-order"])
    if labels != ["abxy-order"]:
        raise ValueError(f"unsupported index labels {labels!r}")
    return as_vector(obj["coeffs"])
