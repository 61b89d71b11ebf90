"""Reference behaviors of the (2,2,2) scenario used in tests and reports.

All constructors return plain 16-vectors in the standard index order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .space import _A, _B, _X, _Y  # per-cell labels in index order

SQRT2 = float(np.sqrt(2.0))


def pr_box() -> np.ndarray:
    """The maximally nonlocal nonsignaling box: p = (1/2) delta_{a xor b = xy}."""
    return 0.5 * ((_A + _B) % 2 == _X * _Y)


def tsirelson_box() -> np.ndarray:
    """Quantum behavior saturating the CHSH quantum bound.

    Correlators E_xy = +-1/sqrt(2) with the CHSH sign pattern (minus at
    x = y = 1), uniform marginals: p = (1/4)(1 + (-1)^(a+b) E_xy).
    """
    return correlator_box(np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2)


def correlator_box(e: np.ndarray) -> np.ndarray:
    """Uniform-marginal behavior with the given 2x2 correlator table e[x][y]."""
    e = np.asarray(e, dtype=float)
    if e.shape != (2, 2) or np.max(np.abs(e)) > 1.0 + 1e-12:
        raise ValueError("need a 2x2 correlator table with entries in [-1, 1]")
    return 0.25 * (1.0 + (-1.0) ** (_A + _B) * e[_X, _Y])


def local_vertex(f0: int, f1: int, g0: int, g1: int) -> np.ndarray:
    """Deterministic strategy a = f(x), b = g(y)."""
    v = np.zeros((2, 2, 2, 2))  # [y, x, b, a]
    f, g = (f0, f1), (g0, g1)
    for x in range(2):
        for y in range(2):
            v[y, x, g[y], f[x]] = 1.0
    return v.ravel()


def local_vertices() -> list[np.ndarray]:
    """All 16 deterministic local behaviors."""
    return [local_vertex(*bits) for bits in itertools.product(range(2), repeat=4)]


def pr_box_vertices() -> list[np.ndarray]:
    """The 8 extremal nonlocal boxes p = (1/2) delta_{a xor b = xy xor ax xor by xor c}."""
    al, be, ga = np.indices((2, 2, 2)).reshape(3, 8, 1)
    return list(0.5 * (_B == (_A + _X * _Y + al * _X + be * _Y + ga) % 2))


def nonsignaling_vertices() -> list[np.ndarray]:
    """The 24 vertices of the nonsignaling polytope."""
    return local_vertices() + pr_box_vertices()


#: the 24 nonsignaling vertices as the rows of one read-only table
_NS_VERTICES = np.array(nonsignaling_vertices())
_NS_VERTICES.flags.writeable = False


def random_nonsignaling(rng: np.random.Generator) -> np.ndarray:
    """Random behavior in the nonsignaling polytope (convex mix of vertices)."""
    return rng.dirichlet(np.ones(len(_NS_VERTICES))) @ _NS_VERTICES
