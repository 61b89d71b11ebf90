"""Covariance estimation and the minimal-variance variant."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import boxes
from bellopt.inequalities import BellInequality, catalog, ns_equivalent
from bellopt.relabel import GLOBAL_OUTCOME_FLIP, act, enumerate_group, matrix_of
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.sources import nv_symmetric_distribution, spdc_distribution
from bellopt.space import (
    DIM,
    Subspace,
    basis,
    block_indices,
    check_distribution,
    decompose,
    projector,
    q_basis,
    subspace_signs,
)
from bellopt.variance import (
    EIG_TOL,
    RCOND,
    _checked_covariance,
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
    with pytest.raises(ValueError, match="at least 4 trials"):
        SamplingScheme(3, Allocation.UNIFORM_RANDOM)
    assert SamplingScheme(245).block_counts() == (62, 61, 61, 61)
    assert SamplingScheme(176_000_000).block_counts() == (44_000_000,) * 4


def test_scheme_refuses_a_non_integral_trial_count():
    # a float count would give float block counts that sum to another N
    for n in (245.5, 245.0, np.float64(245.0)):
        message = f"n_trials must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SamplingScheme(n)
    assert SamplingScheme(np.int64(245)).block_counts() == (62, 61, 61, 61)


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


def _ix_loop_covariance(p, scheme):
    # the per-block np.ix_ fill that the block view replaced, kept as oracle
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


def test_analytic_covariance_matches_ix_loop_oracle(rng):
    # nonsignaling and signaling behaviors, even and uneven block counts
    behaviors = [boxes.random_nonsignaling(rng) for _ in range(20)]
    behaviors += [rng.dirichlet(np.ones(4), size=4).ravel() for _ in range(20)]
    behaviors += [boxes.local_vertex(0, 1, 1, 0), spdc_distribution()]
    for trials in (4, 5, 6, 7, 245, 1001, 10**8 + 3, 176_000_000):
        scheme = SamplingScheme(trials)
        for p in behaviors:
            assert np.array_equal(analytic_covariance(p, scheme), _ix_loop_covariance(p, scheme))


def test_optimizer_constants_are_cached_and_read_only():
    assert basis(Subspace.SI) is basis(Subspace.SI)
    assert basis(Subspace.SI).flags.writeable is False
    assert np.array_equal(basis(Subspace.SI), np.stack(
        [q_basis(*s) / 4.0 for s in subspace_signs(Subspace.SI)], axis=1))


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


def _accepted(S) -> bool:
    try:
        check_covariance(S)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(trials=st.sampled_from([100, 10**8]), seed=st.integers(0, 2**32 - 1),
       log_eig=st.floats(-14.0, -6.0), log_asym=st.floats(-16.0, -8.0),
       k=st.integers(-40, 40))
def test_check_covariance_verdict_is_scale_invariant(trials, seed, log_eig, log_asym, k):
    # a valid covariance at 1e2 or 1e8 trials, bent by a negative eigen-
    # direction and an asymmetry on either side of the tolerances; scaling by
    # a power of two is exact, so the verdict must not move
    rng = np.random.default_rng(seed)
    S = analytic_covariance(boxes.random_nonsignaling(rng), SamplingScheme(trials))
    scale = np.max(np.abs(S))
    u = rng.normal(size=DIM)
    u /= np.linalg.norm(u)
    S = S - 10.0**log_eig * scale * np.outer(u, u)
    S[0, 1] += 10.0**log_asym * scale
    c = 2.0**k
    assert _accepted(S) == _accepted(c * S)
    assert _accepted(S / scale) == _accepted(S)


def _eigvalsh_accepts(S) -> bool:
    """The positive-semidefiniteness rule before the Cholesky test, as the oracle."""
    scale = float(np.max(np.abs(S)))
    return scale == 0.0 or float(np.linalg.eigvalsh(S)[0]) >= -EIG_TOL * scale


@settings(max_examples=100, deadline=None)
@given(trials=st.sampled_from([100, 10**8]), seed=st.integers(0, 2**32 - 1),
       log_eig=st.floats(-10.5, -9.5), block=st.integers(0, 3), mix=st.floats(0.0, 1.0),
       k=st.integers(-40, 40))
def test_cholesky_verdict_matches_the_eigenvalue_rule(trials, seed, log_eig, block, mix, k):
    # bend a valid covariance along a mix of one of its null directions (a
    # block's all-ones vector) and a random one, by 10^log_eig of its scale,
    # so that its smallest eigenvalue lands on either side of -EIG_TOL * scale
    rng = np.random.default_rng(seed)
    S = analytic_covariance(boxes.random_nonsignaling(rng), SamplingScheme(trials))
    u = np.zeros(DIM)
    u[4 * block:4 * block + 4] = 0.5
    u += mix * rng.normal(size=DIM) / 4.0
    u /= np.linalg.norm(u)
    S = 2.0**k * (S - 10.0**log_eig * np.max(np.abs(S)) * np.outer(u, u))
    assert _accepted(S) == _eigvalsh_accepts(S)


@settings(max_examples=60, deadline=None)
@given(trials=st.sampled_from([100, 10**8]), seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["CHSH", "CH", "EH"]), g=st.integers(0, 127),
       k=st.integers(-40, 40))
def test_optimal_variant_is_scale_invariant(trials, seed, name, g, k):
    # scaling the covariance by a power of two is exact, and the optimum must
    # not depend on the covariance's overall scale
    p = boxes.random_nonsignaling(np.random.default_rng(seed))
    S = analytic_covariance(p, SamplingScheme(trials))
    base = catalog(name)
    beta = BellInequality(act(enumerate_group()[g], base.coeffs), base.local_bound, name)
    ref = optimal_variant(beta, S).coeffs
    scaled = optimal_variant(beta, 2.0**k * S).coeffs
    assert np.max(np.abs(scaled - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_check_covariance_at_the_photon_pair_scale():
    # entries near 4e-12: a negative eigenvalue of 30% of that scale is no
    # rounding error
    S = analytic_covariance(spdc_distribution(), SamplingScheme(176_000_000))
    check_covariance(S)
    v = np.zeros(DIM)
    v[block_indices(0, 0)] = 0.5  # S's null direction within block (0, 0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        check_covariance(S - 0.3 * np.max(np.abs(S)) * np.outer(v, v))
    check_covariance(np.zeros((DIM, DIM)))
    bad = np.eye(DIM)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check_covariance(bad)


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


def test_std_dev_rejects_a_small_negative_form_at_1e8_trials():
    # the photon-pair forms of EH and its optimal variant at 1e8 trials are
    # near 1e-11; a form at -2% of one is far beyond rounding and must not
    # be clipped to 0
    S = analytic_covariance(spdc_distribution(), SamplingScheme(10**8))
    for b in (catalog("EH"), optimal_variant(catalog("EH"), S)):
        beta = b.coeffs
        quad = beta @ S @ beta
        bent = S - 1.02 * quad / (beta @ beta) * np.eye(DIM)
        with pytest.raises(ValueError, match="negative"):
            std_dev(beta, bent)


@settings(max_examples=40, deadline=None)
@given(trials=st.sampled_from([100, 10**8]), seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["CHSH", "CH", "EH"]), log_c=st.floats(-8.0, 8.0))
def test_std_dev_scales_as_sqrt_c(trials, seed, name, log_c):
    p = boxes.random_nonsignaling(np.random.default_rng(seed))
    S = analytic_covariance(p, SamplingScheme(trials))
    c = 10.0**log_c
    assert std_dev(catalog(name), c * S) == pytest.approx(
        np.sqrt(c) * std_dev(catalog(name), S), rel=1e-12)


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


# the parent's non-signaling projector and its SVD body of optimal_variant,
# copied verbatim, kept as the oracle for the eigh factorization
@functools.lru_cache(maxsize=None)
def _pi_bar() -> np.ndarray:
    """Projector 1 - P_SI onto the non-signaling components."""
    P = np.eye(DIM) - projector(Subspace.SI)
    P.flags.writeable = False
    return P


def _svd_optimal_variant(beta: BellInequality, sigma) -> BellInequality:
    S, scale = _checked_covariance(sigma)
    b_nos = _pi_bar() @ beta.coeffs
    B = basis(Subspace.SI)
    BtS = B.T @ S
    block = BtS @ B
    rhs = BtS @ b_nos
    # anchor the cutoff to the full covariance scale: block directions that
    # carry a vanishing share of the total variance are treated as exactly
    # variance-free rather than inverted as numerical noise
    u, svals, vt = np.linalg.svd(block)
    cut = RCOND * max(float(svals[0]) if svals.size else 0.0, scale, 1e-300)
    inv = np.where(svals > cut, 1.0 / np.where(svals > cut, svals, 1.0), 0.0)
    si_coeffs = -(vt.T * inv) @ (u.T @ rhs)
    name = f"{beta.name}*" if beta.name else "optimal-variant"
    return BellInequality(b_nos + B @ si_coeffs, beta.local_bound, name)


def _relabeled_catalog():
    group = enumerate_group()
    return [BellInequality(act(group[g], catalog(name).coeffs), 0.0, name)
            for name in ("CHSH", "CH", "EH") for g in (0, 37, 101)]


def _oracle_covariances(rng):
    """Covariances of random, model and partly deterministic behaviors at
    1e2-2e8 trials, a singular-block one, Monte-Carlo ones and the zero one."""
    behaviors = [boxes.random_nonsignaling(rng) for _ in range(8)]
    behaviors += [nv_symmetric_distribution(), spdc_distribution()]
    # deterministic setting blocks: the signaling block has rank 3, then 2
    for blocks in ([0, 1], [0, 1, 3]):
        partial = rng.dirichlet(np.ones(4), size=4)
        partial[blocks] = np.eye(4)[2]
        behaviors.append(partial.ravel())
    covs = [analytic_covariance(p, SamplingScheme(trials))
            for p in behaviors for trials in (100, 245, 10**4, 10**6, 176_000_000, 2 * 10**8)]
    A = PI_BAR @ rng.normal(size=(DIM, DIM)) + basis(Subspace.SI)[:, :2] @ rng.normal(size=(2, DIM))
    covs.append(A @ A.T)
    covs += [mc_covariance(behaviors[k], SamplingScheme(245), runs=300, seed=k) for k in (0, 8, 10)]
    covs.append(np.zeros((DIM, DIM)))
    return covs


def test_optimal_variant_matches_svd_oracle(rng):
    betas = _relabeled_catalog()
    for S in _oracle_covariances(rng):
        for beta in betas:
            new, old = optimal_variant(beta, S), _svd_optimal_variant(beta, S)
            assert np.max(np.abs(new.coeffs - old.coeffs)) <= 1e-14 * np.max(np.abs(old.coeffs))
            assert (new.name, new.local_bound) == (old.name, old.local_bound)


def test_optimal_variant_keeps_every_non_signaling_component(rng):
    betas = _relabeled_catalog()
    for S in _oracle_covariances(rng):
        for beta in betas:
            got = decompose(optimal_variant(beta, S).coeffs)
            want = decompose(beta.coeffs)
            for s in want.components:
                if s not in (Subspace.SI_TO_A, Subspace.SI_TO_B):
                    assert np.max(np.abs(got[s] - want[s])) <= 1e-15 * np.max(np.abs(beta.coeffs))
