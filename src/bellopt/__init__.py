"""Relabeling-symmetry toolkit for the (2,2,2) Bell scenario.

Decomposes behaviors and inequality coefficient vectors into the invariant
subspaces of the relabeling group, constructs the minimal-variance variant of
a Bell inequality for a given experiment, and simulates finite-statistics
runs of two reference quantum setups.
"""

from .inequalities import BellInequality, catalog, ns_equivalent, rescale, shift, sigma_ratio
from .sampling import Allocation, SamplingScheme
from .simulate import frequencies, run_ensemble
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
from .variance import analytic_covariance, mc_covariance, optimal_variant, std_dev

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
