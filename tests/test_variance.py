"""Covariance estimation and the minimal-variance variant."""

import numpy as np
import pytest

from bellopt import boxes
from bellopt.inequalities import BellInequality, catalog, ns_equivalent
from bellopt.relabel import GLOBAL_OUTCOME_FLIP, matrix_of
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.sources import nv_symmetric_distribution
from bellopt.space import (
    DIM,
    Subspace,
    block_indices,
    projector,
    q_basis,
    subspace_signs,
    vector_index,
)
from bellopt.variance import (
    analytic_covariance,
    check_covariance,
    mc_covariance,
    optimal_variant,
    sigma_ratio,
    std_dev,
)

PI_SI = projector(Subspace.SI)
PI_BAR = np.eye(DIM) - PI_SI


def random_psd(rng, scale=1.0):
    A = rng.normal(size=(DIM, DIM))
    return scale * (A @ A.T) / DIM


def test_scheme_validation():
    with pytest.raises(ValueError):
        SamplingScheme(0)
    with pytest.raises(ValueError):
        SamplingScheme(3, Allocation.FIXED_EQUAL)
    assert SamplingScheme(3, Allocation.UNIFORM_RANDOM).n_trials == 3
    assert SamplingScheme(245).block_counts() == (62, 61, 61, 61)
    assert SamplingScheme(176_000_000).block_counts() == (44_000_000,) * 4


def test_analytic_covariance_uniform():
    n = 25
    sigma = analytic_covariance(boxes.uniform_box(), SamplingScheme(4 * n))
    for x in range(2):
        for y in range(2):
            idx = block_indices(x, y)
            block = sigma[np.ix_(idx, idx)]
            expected = (np.diag([0.25] * 4) - 0.0625) / n
            assert np.max(np.abs(block - expected)) < 1e-15
            assert block[0, 0] == pytest.approx(3.0 / (16 * n))
            assert block[0, 1] == pytest.approx(-1.0 / (16 * n))
    check_covariance(sigma)


def test_analytic_covariance_deterministic_block_is_zero():
    p = boxes.local_vertex(0, 0, 0, 0)
    sigma = analytic_covariance(p, SamplingScheme(100))
    assert np.max(np.abs(sigma)) == 0.0


def test_analytic_covariance_cross_block_zero(rng):
    p = boxes.random_nonsignaling(rng)
    sigma = analytic_covariance(p, SamplingScheme(100))
    for x1 in range(2):
        for y1 in range(2):
            for x2 in range(2):
                for y2 in range(2):
                    if (x1, y1) != (x2, y2):
                        blk = sigma[np.ix_(block_indices(x1, y1), block_indices(x2, y2))]
                        assert np.max(np.abs(blk)) == 0.0


def test_analytic_covariance_matches_exact_enumeration():
    # independent oracle: enumerate every multinomial outcome of a 2-trial
    # block and sum the exact covariance
    import itertools
    from math import factorial

    p = boxes.tsirelson_box()
    n = 2
    sigma = analytic_covariance(p, SamplingScheme(4 * n))
    for x in range(2):
        for y in range(2):
            idx = block_indices(x, y)
            pb = p[idx]
            mean = np.zeros(4)
            second = np.zeros((4, 4))
            for counts in itertools.product(range(n + 1), repeat=4):
                if sum(counts) != n:
                    continue
                weight = factorial(n)
                for c, prob in zip(counts, pb):
                    weight *= prob ** c / factorial(c)
                f = np.array(counts) / n
                mean += weight * f
                second += weight * np.outer(f, f)
            exact = second - np.outer(mean, mean)
            assert np.max(np.abs(sigma[np.ix_(idx, idx)] - exact)) < 1e-14


def test_analytic_covariance_is_psd_on_random_behaviors(rng):
    for _ in range(20):
        p = boxes.random_nonsignaling(rng)
        check_covariance(analytic_covariance(p, SamplingScheme(rng.integers(4, 5000))))


def test_block_counts_edges():
    assert SamplingScheme(4).block_counts() == (1, 1, 1, 1)
    assert SamplingScheme(6).block_counts() == (2, 2, 1, 1)
    assert SamplingScheme(7).block_counts() == (2, 2, 2, 1)
    with pytest.raises(ValueError):
        SamplingScheme(10, Allocation.UNIFORM_RANDOM).block_counts()


def test_analytic_covariance_requires_fixed_allocation():
    with pytest.raises(ValueError):
        analytic_covariance(boxes.uniform_box(),
                            SamplingScheme(100, Allocation.UNIFORM_RANDOM))


def test_check_covariance_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_covariance(np.ones((4, 4)))
    asym = np.zeros((DIM, DIM))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError):
        check_covariance(asym)
    with pytest.raises(ValueError):
        check_covariance(-np.eye(DIM))


def test_mc_covariance_converges_to_analytic():
    p = boxes.uniform_box()
    scheme = SamplingScheme(400)
    exact = analytic_covariance(p, scheme)
    approx = mc_covariance(p, scheme, runs=100_000, seed=7)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) < 5e-2 * scale


def test_mc_covariance_reproduces_published_spread():
    # the spin-pair setup at 245 trials per run
    from bellopt.sources import nv_distribution

    sigma = mc_covariance(nv_distribution(), SamplingScheme(245),
                          runs=100_000, seed=55)
    assert std_dev(catalog("CHSH"), sigma) == pytest.approx(0.211, rel=0.02)


def test_mc_covariance_seed_repeatable():
    p = boxes.tsirelson_box()
    scheme = SamplingScheme(100)
    a = mc_covariance(p, scheme, runs=500, seed=11)
    b = mc_covariance(p, scheme, runs=500, seed=11)
    assert np.array_equal(a, b)
    c = mc_covariance(p, scheme, runs=500, seed=12)
    assert not np.array_equal(a, c)


def test_mc_covariance_degenerate_samples():
    p = boxes.local_vertex(1, 0, 1, 0)
    sigma = mc_covariance(p, SamplingScheme(40), runs=50, seed=1)
    assert np.max(np.abs(sigma)) == 0.0


def test_std_dev_basics(rng):
    assert std_dev(catalog("CHSH"), np.zeros((DIM, DIM))) == 0.0
    beta = rng.normal(size=DIM)
    S = random_psd(rng)
    assert std_dev(beta, S) == pytest.approx(np.sqrt(beta @ S @ beta))
    with pytest.raises(ValueError):
        std_dev(beta, -np.eye(DIM))  # clearly negative quadratic form


def test_sigma_ratio_values():
    assert sigma_ratio(0.30, 0.0, 0.211) == pytest.approx(1.4218, abs=5e-4)
    with pytest.raises(ValueError):
        sigma_ratio(0.3, 0.0, -1.0)


def test_variance_splits_over_components(rng):
    # sd^2 = b_nos' S b_nos + b_si' S b_si + 2 b_nos' S b_si, exactly
    S = random_psd(rng)
    beta = rng.normal(size=DIM)
    b_nos, b_si = PI_BAR @ beta, PI_SI @ beta
    total = std_dev(beta, S) ** 2
    split = b_nos @ S @ b_nos + b_si @ S @ b_si + 2 * b_nos @ S @ b_si
    assert total == pytest.approx(split, rel=1e-12)


def test_optimal_variant_strips_si_when_no_cross_coupling(rng):
    # covariance supported on the nonsignaling block only: the optimum just
    # removes the signaling part
    G = rng.normal(size=(DIM, DIM))
    S = PI_BAR @ (G @ G.T) @ PI_BAR
    ch = catalog("CH")
    bstar = optimal_variant(ch, S)
    assert np.max(np.abs(bstar.coeffs - PI_BAR @ ch.coeffs)) < 1e-9


def test_optimal_variant_rejects_bad_covariance():
    with pytest.raises(ValueError):
        optimal_variant(catalog("CH"), -np.eye(DIM))


def test_optimal_variant_stationarity(rng):
    for _ in range(20):
        S = random_psd(rng)
        bstar = optimal_variant(catalog("CH"), S)
        grad = PI_SI @ S @ bstar.coeffs
        assert np.max(np.abs(grad)) < 1e-9


def test_optimal_variant_matches_quadratic_oracle(rng):
    # independent oracle: assemble the 4-dim quadratic by finite differences
    # of f(c) = sd^2 and solve it directly
    basis = np.stack([q_basis(*s) / 4.0 for s in subspace_signs(Subspace.SI)], axis=1)
    ch = catalog("CH")
    b_nos = PI_BAR @ ch.coeffs
    for _ in range(100):
        S = random_psd(rng)

        def f(c):
            beta = b_nos + basis @ c
            return beta @ S @ beta

        h = 1.0
        grad = np.zeros(4)
        hess = np.zeros((4, 4))
        for i in range(4):
            ei = np.eye(4)[i]
            grad[i] = (f(h * ei) - f(-h * ei)) / (2 * h)
            hess[i, i] = (f(h * ei) - 2 * f(np.zeros(4)) + f(-h * ei)) / h**2
            for j in range(i + 1, 4):
                ej = np.eye(4)[j]
                hess[i, j] = hess[j, i] = (
                    f(h * (ei + ej)) - f(h * (ei - ej))
                    - f(h * (ej - ei)) + f(-h * (ei + ej))
                ) / (4 * h**2)
        c_star = np.linalg.solve(hess, -grad)
        expected = b_nos + basis @ c_star
        assert np.max(np.abs(optimal_variant(ch, S).coeffs - expected)) < 1e-7


def test_optimal_variant_preserves_value_on_nonsignaling(rng):
    S = random_psd(rng)
    eh = catalog("EH")
    bstar = optimal_variant(eh, S)
    assert ns_equivalent(bstar, eh)
    for _ in range(20):
        p = boxes.random_nonsignaling(rng)
        assert bstar.value(p) == pytest.approx(eh.value(p), abs=1e-12)


def test_optimal_variant_beats_random_equivalent_variants(rng):
    S = random_psd(rng)
    ch = catalog("CH")
    bstar = optimal_variant(ch, S)
    sd_star = std_dev(bstar, S)
    for _ in range(50):
        si = sum(rng.normal() * q_basis(*s) for s in subspace_signs(Subspace.SI))
        rival = BellInequality(PI_BAR @ ch.coeffs + si, ch.local_bound)
        assert sd_star <= std_dev(rival, S) + 1e-12


def test_optimal_variant_uses_pseudo_inverse_on_singular_blocks(rng):
    # covariance blind to the signaling subspace entirely: any signaling part
    # is variance-free, and the pseudo-inverse picks the zero one
    S = PI_BAR @ random_psd(rng) @ PI_BAR
    bstar = optimal_variant(catalog("EH"), S)
    assert np.max(np.abs(PI_SI @ bstar.coeffs)) < 1e-9


def test_output_symmetric_setup_admits_symmetric_optimum(rng):
    # for an outcome-flip-symmetric behavior the covariance is invariant
    # under the flip, the cross term vanishes for variants tied to the
    # correlator inequality, and the optimizer returns it unchanged
    flip = matrix_of(GLOBAL_OUTCOME_FLIP)
    chsh = catalog("CHSH")
    for p in (boxes.tsirelson_box(), nv_symmetric_distribution()):
        S = analytic_covariance(p, SamplingScheme(1000))
        assert np.max(np.abs(flip @ S @ flip.T - S)) < 1e-12
        for _ in range(10):
            si = sum(rng.normal() * q_basis(*s) for s in subspace_signs(Subspace.SI))
            rival = BellInequality(chsh.coeffs + si, 0.0)
            cross = (PI_BAR @ rival.coeffs) @ S @ (PI_SI @ rival.coeffs)
            assert abs(cross) < 1e-12
        bstar = optimal_variant(chsh, S)
        assert np.linalg.norm(PI_SI @ bstar.coeffs) < 1e-9
        assert std_dev(bstar, S) == pytest.approx(std_dev(chsh, S), rel=1e-9)
