"""Catalog of CHSH-class Bell inequality variants and their transformations.

All catalog entries are rescaled so the local bound sits at 0 and the maximal
quantum value at 2(sqrt(2) - 1).  They agree on every normalized nonsignaling
behavior and differ only in their normalization-block and signaling-block
coefficients, which is exactly what makes their finite-sample statistics
differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import space
from .space import Subspace, as_vector, bell_value, decompose


@dataclass(frozen=True, eq=False)
class BellInequality:
    """Coefficient vector plus the bound satisfied by all local behaviors."""

    coeffs: np.ndarray
    local_bound: float = 0.0
    name: str = ""

    def __post_init__(self):
        arr = as_vector(self.coeffs)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        if not math.isfinite(self.local_bound):
            raise ValueError("local bound must be finite")

    def value(self, p) -> float:
        return bell_value(self.coeffs, p)


def _display_to_vector(rows) -> np.ndarray:
    """Convert the 4x4 block-matrix layout (rows (x,a), columns (y,b)) to a vector.

    Row 2x + a, column 2y + b holds v[y, x, b, a] of the tensor view
    ``v.reshape(2, 2, 2, 2)``.
    """
    m = np.asarray(rows, dtype=float)
    return m.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).ravel()


def vector_to_display(v) -> np.ndarray:
    """Inverse of the block-matrix layout used by ``_display_to_vector``."""
    return as_vector(v).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)


# Rescaled CHSH: (-1)^(xy) (-1)^(a+b) - 1/2, i.e. the familiar correlator form
# shifted down so that deterministic strategies reach at most 0.
_CHSH_DISPLAY = [
    [0.5, -1.5, 0.5, -1.5],
    [-1.5, 0.5, -1.5, 0.5],
    [0.5, -1.5, -1.5, 0.5],
    [-1.5, 0.5, 0.5, -1.5],
]

# 4x the Clauser-Horne form with marginals read off the y=0 (Alice) and x=0
# (Bob) blocks:  p(00|00)+p(00|01)+p(00|10)-p(00|11) - pA(0|0) - pB(0|0).
_CH_DISPLAY = [
    [-4, -4, 4, 0],
    [-4, 0, 0, 0],
    [4, 0, -4, 0],
    [0, 0, 0, 0],
]

# 4x the Eberhard form (detection = outcome 1, marginals from the opposite
# blocks):  p(11|00) - p(10|01) - p(01|10) - p(11|11).
_EH_DISPLAY = [
    [0, 0, 0, 0],
    [0, 4, -4, 0],
    [0, -4, 0, 0],
    [0, 0, 0, -4],
]

# Minimal-variance variant for the photon-pair (SPDC) setup, as published.
_OPT_DISPLAY = [
    [0, -1.5, 0, -0.5],
    [-1.5, 1, -2.5, 1],
    [0, -2.5, 0, 0.5],
    [-0.5, 1, 0.5, -3],
]

_CATALOG_DISPLAYS = {
    "CHSH": _CHSH_DISPLAY,
    "CH": _CH_DISPLAY,
    "EH": _EH_DISPLAY,
    "OPT_REF": _OPT_DISPLAY,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG_DISPLAYS)


def catalog(name: str) -> BellInequality:
    """A catalog inequality by name (CHSH, CH, EH, OPT_REF); local bound 0."""
    key = name.upper()
    if key not in _CATALOG_DISPLAYS:
        raise KeyError(f"unknown inequality {name!r}; know {sorted(_CATALOG_DISPLAYS)}")
    return BellInequality(_display_to_vector(_CATALOG_DISPLAYS[key]), 0.0, key)


#: maximal quantum value shared by all catalog entries
QUANTUM_MAXIMUM = 2.0 * (np.sqrt(2.0) - 1.0)


def shift(b: BellInequality, c: float) -> BellInequality:
    """Add c to every coefficient.

    On a normalized behavior the value changes by exactly 4c (one c per
    setting block), so the local bound moves by 4c as well.
    """
    return BellInequality(b.coeffs + c, b.local_bound + 4.0 * c, b.name)


def rescale(b: BellInequality, s: float) -> BellInequality:
    """Multiply coefficients and local bound by the same positive factor."""
    if not s > 0.0:
        raise ValueError(f"scale must be positive, got {s}")
    return BellInequality(s * b.coeffs, s * b.local_bound, b.name)


#: the components that can change the value on a normalized nonsignaling behavior
_NS_VALUE_PARTS = (Subspace.NO1, Subspace.MARG_A, Subspace.MARG_B, Subspace.CORR)


def ns_equivalent(b1: BellInequality, b2: BellInequality, tol: float = 1e-9) -> bool:
    """True iff the two inequalities evaluate identically on every normalized
    nonsignaling behavior.

    That holds iff the bounds agree and the difference of the coefficients has
    no uniform-normalization and no nonsignaling component.  (The two
    traceless normalization components never contribute on a normalized
    behavior, and the signaling components never contribute on a nonsignaling
    one.)  ``tol`` is relative to the larger max|coeffs| of the two, so
    rescaling both inputs by one factor leaves the verdict unchanged.
    """
    atol = tol * max(map(abs, b1.coeffs.tolist() + b2.coeffs.tolist()))
    if abs(b1.local_bound - b2.local_bound) > atol:
        return False
    parts = space.projector_stack(_NS_VALUE_PARTS) @ (b1.coeffs - b2.coeffs)
    return bool(np.abs(parts).max() <= atol)


def strip_normalization_fluff(b: BellInequality) -> BellInequality:
    """Canonical representative: drop the two traceless normalization components.

    They are pure display convention (they cannot change the value on any
    normalized behavior), so stripping them makes variants comparable
    entrywise.
    """
    d = decompose(b.coeffs)
    kept = d.recompose() - d[Subspace.NO2] - d[Subspace.NO3]
    return BellInequality(kept, b.local_bound, b.name)


def deterministic_maximum(b: BellInequality) -> float:
    """Exact maximum of the expression over the 16 deterministic strategies."""
    from .boxes import local_vertices

    return max(b.value(v) for v in local_vertices())


def sigma_ratio(value: float, bound: float, sd: float) -> float:
    """Violation measured in standard deviations above the bound: (I - u) / sd."""
    if not sd > 0.0:
        raise ValueError(f"standard deviation must be positive, got {sd}")
    return (value - bound) / sd


def inequality_to_json(b: BellInequality) -> dict:
    obj = space.vector_to_json(b.coeffs)
    obj["local_bound"] = float(b.local_bound)
    obj["name"] = b.name
    return obj


def inequality_from_json(obj: dict) -> BellInequality:
    coeffs = space.vector_from_json(obj)
    return BellInequality(coeffs, float(obj.get("local_bound", 0.0)), str(obj.get("name", "")))
