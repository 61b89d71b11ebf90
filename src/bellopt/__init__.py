"""Relabeling-symmetry toolkit for the (2,2,2) Bell scenario.

Decomposes behaviors and inequality coefficient vectors into the invariant
subspaces of the relabeling group, constructs the minimal-variance variant of
a Bell inequality for a given experiment, and simulates finite-statistics
runs of two reference quantum setups.
"""

from .inequalities import BellInequality, catalog, ns_equivalent, rescale, shift, sigma_ratio
from .sampling import Allocation, SamplingScheme
from .space import (
    Subspace,
    alpha_coefficients,
    bell_value,
    decompose,
    is_distribution,
    is_nonsignaling,
    project,
    q_basis,
)

__all__ = [
    "Allocation",
    "BellInequality",
    "SamplingScheme",
    "Subspace",
    "alpha_coefficients",
    "analytic_covariance",
    "bell_value",
    "catalog",
    "decompose",
    "frequencies",
    "is_distribution",
    "is_nonsignaling",
    "mc_covariance",
    "ns_equivalent",
    "optimal_variant",
    "project",
    "q_basis",
    "rescale",
    "run_ensemble",
    "shift",
    "sigma_ratio",
    "std_dev",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Load ``simulate`` or ``variance`` on first use of an export (PEP 562)."""
    if name in ("frequencies", "run_ensemble"):
        from . import simulate as module
    elif name in ("analytic_covariance", "mc_covariance", "optimal_variant", "std_dev"):
        from . import variance as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
