"""Coefficient space: Q basis, projectors, decomposition, predicates."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import boxes
from bellopt.space import (
    _A,
    _B,
    _Q,
    _X,
    _Y,
    ATOL_EXACT,
    DIM,
    Subspace,
    FINE_SUBSPACES,
    alpha_coefficients,
    as_vector,
    basis,
    bell_value,
    check_distribution,
    decompose,
    is_distribution,
    is_nonsignaling,
    project,
    projector,
    projector_stack,
    q_basis,
    subspace_signs,
    vector_from_json,
    vector_index,
    vector_to_json,
)
from fixtures import (
    biased_marginal_box,
    block_indices,
    correlator,
    correlator_pattern,
    marginal_a,
    marginal_b,
    setting_copy_box,
    shared_coin_box,
    uniform_box,
)

SIGNS = (1, -1)
ALL_SIGN_TUPLES = list(itertools.product(SIGNS, repeat=4))


def test_vector_index_layout():
    # a fastest, then b, then x, then y
    assert vector_index(0, 0, 0, 0) == 0
    assert vector_index(1, 0, 0, 0) == 1
    assert vector_index(0, 1, 0, 0) == 2
    assert vector_index(0, 0, 1, 0) == 4
    assert vector_index(0, 0, 0, 1) == 8
    assert vector_index(1, 1, 1, 1) == 15


def test_index_labels_match_the_layout():
    from fixtures import INDEX_LABELS

    assert len(INDEX_LABELS) == 16
    for a, b, x, y in itertools.product(range(2), repeat=4):
        assert INDEX_LABELS[vector_index(a, b, x, y)] == f"{a}{b}{x}{y}"
    assert INDEX_LABELS[:5] == ("0000", "1000", "0100", "1100", "0010")


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector(np.ones(15))
    with pytest.raises(ValueError):
        as_vector([np.nan] + [0.0] * 15)


def test_q_basis_all_plus_is_ones():
    assert np.array_equal(q_basis(1, 1, 1, 1), np.ones(DIM))


def test_q_basis_corr_pattern():
    # signs (-,-,+,+): entry is (-1)^(a+b)
    q = q_basis(-1, -1, 1, 1)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        assert q[vector_index(a, b, x, y)] == (-1.0) ** (a + b)


def test_q_basis_signaling_pattern():
    # signs (+,-,-,+): entry is (-1)^(b+x)
    q = q_basis(1, -1, -1, 1)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        assert q[vector_index(a, b, x, y)] == (-1.0) ** (b + x)


def test_q_basis_rejects_bad_signs():
    with pytest.raises(ValueError):
        q_basis(2, 1, 1, 1)


def test_q_basis_orthogonality_all_pairs():
    for s1 in ALL_SIGN_TUPLES:
        q1 = q_basis(*s1)
        for s2 in ALL_SIGN_TUPLES:
            expected = 16.0 if s1 == s2 else 0.0
            assert q1 @ q_basis(*s2) == expected


def test_alpha_of_uniform_distribution():
    alpha = alpha_coefficients(uniform_box())
    assert alpha[(1, 1, 1, 1)] == pytest.approx(0.25, abs=1e-15)
    for s in ALL_SIGN_TUPLES:
        if s != (1, 1, 1, 1):
            assert alpha[s] == pytest.approx(0.0, abs=1e-15)


def test_alpha_picks_out_single_q_vector():
    alpha = alpha_coefficients(q_basis(-1, -1, 1, 1))
    for s in ALL_SIGN_TUPLES:
        assert alpha[s] == pytest.approx(1.0 if s == (-1, -1, 1, 1) else 0.0, abs=1e-15)


def test_alpha_of_shared_coin():
    alpha = alpha_coefficients(shared_coin_box())
    assert alpha[(1, 1, 1, 1)] == pytest.approx(0.25, abs=1e-15)
    assert alpha[(-1, -1, 1, 1)] == pytest.approx(0.25, abs=1e-15)
    others = [s for s in ALL_SIGN_TUPLES if s not in ((1, 1, 1, 1), (-1, -1, 1, 1))]
    for s in others:
        assert alpha[s] == pytest.approx(0.0, abs=1e-15)


def test_alpha_round_trip_random_vectors(rng):
    for _ in range(1000):
        v = rng.normal(size=DIM)
        alpha = alpha_coefficients(v)
        rebuilt = np.sum([alpha[s] * q_basis(*s) for s in alpha], axis=0)
        assert np.max(np.abs(rebuilt - v)) < 1e-12


# --- the sign-character table against per-vector reference code ----------

def _power_q_basis(i, j, k, l):
    for s in (i, j, k, l):
        if s not in SIGNS:
            raise ValueError(f"signs must be +1 or -1, got {(i, j, k, l)}")
    return (
        float(i) ** _A * float(j) ** _B * float(k) ** _X * float(l) ** _Y
    )


def _loop_projector(s):
    P = np.zeros((DIM, DIM))
    for sig in subspace_signs(s):
        q = _power_q_basis(*sig)
        P += np.outer(q, q) / DIM
    return P


def _per_tuple_alpha(v):
    arr = as_vector(v)
    return {
        s: float(_power_q_basis(*s) @ arr) / DIM
        for s in itertools.product(SIGNS, repeat=4)
    }


def _loop_correlator_pattern(x, y):
    out = np.zeros(DIM)
    for k in SIGNS:
        for l in SIGNS:
            out += (float(k) ** x) * (float(l) ** y) * _power_q_basis(-1, -1, k, l)
    return out / DIM


def _stacked_si_basis():
    return np.stack([_power_q_basis(*s) / 4.0 for s in subspace_signs(Subspace.SI)], axis=1)


def _identical(a, b):
    """Equal entry for entry, the sign of each zero included."""
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_q_table_rows_are_the_power_formula():
    assert _Q.flags.writeable is False
    for r, s in enumerate(ALL_SIGN_TUPLES):
        assert _identical(_Q[r], _power_q_basis(*s))
        assert _identical(q_basis(*s), _power_q_basis(*s))
    assert np.array_equal(_Q @ _Q.T, 16.0 * np.eye(DIM))


def test_mutating_a_q_vector_leaves_the_table_unchanged():
    table = _Q.copy()
    q = q_basis(-1, 1, -1, 1)
    q[:] = 7.0
    assert _identical(_Q, table)
    assert _identical(q_basis(-1, 1, -1, 1), _power_q_basis(-1, 1, -1, 1))


@pytest.mark.parametrize("signs", [(2, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, -2), (1.5, 1, 1, 1)])
def test_q_basis_rejects_bad_signs_with_the_old_message(signs):
    with pytest.raises(ValueError) as old:
        _power_q_basis(*signs)
    with pytest.raises(ValueError) as new:
        q_basis(*signs)
    assert str(new.value) == str(old.value) == f"signs must be +1 or -1, got {signs}"


def test_basis_is_cached_read_only_and_c_contiguous():
    for s in Subspace:
        B = basis(s)
        assert B is basis(s)
        assert B.flags.writeable is False
        assert B.flags.c_contiguous
        assert B.shape == (DIM, len(subspace_signs(s)))
        assert np.array_equal(B.T @ B, np.eye(len(subspace_signs(s))))


def test_projectors_and_si_basis_match_the_loop_construction():
    for s in Subspace:
        assert _identical(projector(s), _loop_projector(s))
    assert _identical(basis(Subspace.SI), _stacked_si_basis())


def test_correlator_patterns_match_the_loop_construction():
    for x, y in itertools.product(range(2), repeat=2):
        assert _identical(correlator_pattern(x, y), _loop_correlator_pattern(x, y))


_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e306, -1e306])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e306, 1e306) | _EXTREME, min_size=16, max_size=16))
def test_alpha_coefficients_match_per_tuple_dot_products(coeffs):
    # each coefficient is a 16-term sum of +-v_i; two summation orders differ
    # by at most 2 gamma_16 sum|v_i| before the division by 16, and the
    # division can round a subnormal once more
    new, old = alpha_coefficients(coeffs), _per_tuple_alpha(coeffs)
    assert list(new) == list(old) == ALL_SIGN_TUPLES
    u = 2.0 ** -53
    bound = 2 * (16 * u / (1 - 16 * u)) * math.fsum(map(abs, coeffs)) / DIM + 2.0 ** -1074
    for s in ALL_SIGN_TUPLES:
        assert abs(new[s] - old[s]) <= bound


def test_subspace_dimensions():
    dims = {
        Subspace.NO1: 1, Subspace.NO2: 2, Subspace.NO3: 1,
        Subspace.MARG_A: 2, Subspace.MARG_B: 2, Subspace.CORR: 4,
        Subspace.SI_TO_B: 2, Subspace.SI_TO_A: 2,
        Subspace.NO: 4, Subspace.MARG: 4, Subspace.NS: 8, Subspace.SI: 4,
    }
    for s, d in dims.items():
        assert len(subspace_signs(s)) == d
    fine = [sig for s in FINE_SUBSPACES for sig in subspace_signs(s)]
    assert sorted(fine) == sorted(ALL_SIGN_TUPLES)


def test_projector_algebra():
    for s in FINE_SUBSPACES:
        P = projector(s)
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(P @ P - P)) < 1e-12
    for s1, s2 in itertools.combinations(FINE_SUBSPACES, 2):
        assert np.max(np.abs(projector(s1) @ projector(s2))) < 1e-12
    total = np.sum([projector(s) for s in FINE_SUBSPACES], axis=0)
    assert np.max(np.abs(total - np.eye(DIM))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
def test_decompose_recompose_property(coeffs):
    v = np.array(coeffs)
    d = decompose(v)
    assert np.max(np.abs(d.recompose() - v)) < 1e-9 * max(1.0, np.max(np.abs(v)))
    comps = list(d.components.values())
    for c1, c2 in itertools.combinations(comps, 2):
        assert abs(c1 @ c2) < 1e-9 * max(1.0, np.max(np.abs(v)) ** 2)


def test_decompose_components_live_in_their_subspaces(rng):
    v = rng.normal(size=DIM)
    d = decompose(v)
    for s, c in d.components.items():
        assert np.max(np.abs(project(c, s) - c)) < 1e-12


def test_decompose_matches_per_subspace_projections(rng):
    for _ in range(50):
        v = rng.normal(size=DIM) * 10.0 ** rng.uniform(-12.0, 3.0)
        d = decompose(v)
        assert tuple(d.components) == FINE_SUBSPACES
        for s in FINE_SUBSPACES:
            assert np.array_equal(d[s], projector(s) @ v)


def test_fine_projector_stack_is_cached_and_read_only():
    stack = projector_stack(FINE_SUBSPACES)
    assert stack is projector_stack(FINE_SUBSPACES)
    assert stack.shape == (8, DIM, DIM)
    assert stack.flags.writeable is False
    for P, s in zip(stack, FINE_SUBSPACES):
        assert np.array_equal(P, projector(s))


def test_normalized_distribution_has_uniform_no_part(rng):
    for _ in range(50):
        p = boxes.random_nonsignaling(rng)
        d = decompose(p)
        assert np.max(np.abs(d[Subspace.NO1] - 0.25)) < 1e-12
        assert np.max(np.abs(d[Subspace.NO2])) < 1e-12
        assert np.max(np.abs(d[Subspace.NO3])) < 1e-12


def test_decompose_bias_box():
    d = decompose(biased_marginal_box())
    assert np.max(np.abs(d[Subspace.MARG_B] - (-0.125) * q_basis(1, -1, 1, 1))) < 1e-12
    for s in (Subspace.MARG_A, Subspace.CORR, Subspace.SI_TO_A, Subspace.SI_TO_B,
              Subspace.NO2, Subspace.NO3):
        if s is not Subspace.MARG_B:
            assert np.linalg.norm(d[s]) < 1e-12


def test_decompose_tsirelson_box():
    d = decompose(boxes.tsirelson_box())
    tau = {(k, l): -1.0 if (k, l) == (-1, -1) else 1.0 for k in SIGNS for l in SIGNS}
    expected_corr = np.sum(
        [tau[(k, l)] * q_basis(-1, -1, k, l) for k in SIGNS for l in SIGNS], axis=0
    ) / (8.0 * np.sqrt(2.0))
    assert np.max(np.abs(d[Subspace.CORR] - expected_corr)) < 1e-12
    assert np.linalg.norm(d[Subspace.MARG]) < 1e-12
    assert np.linalg.norm(d[Subspace.SI]) < 1e-12


def test_decompose_zero_vector():
    d = decompose(np.zeros(DIM))
    for c in d.components.values():
        assert np.array_equal(c, np.zeros(DIM))


def test_nonzero_labels_tolerance():
    d = decompose(setting_copy_box())
    assert set(d.nonzero_labels()) == {Subspace.NO1, Subspace.SI_TO_B}
    assert d.nonzero_labels(0.0) == d.nonzero_labels()  # the other norms are exactly 0
    assert d.nonzero_labels(10.0) == ()
    for tol in (float("nan"), float("inf"), -1.0, -1e-300):
        with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol!r}"):
            d.nonzero_labels(tol)


def test_setting_copy_box_is_pure_b_signaling():
    p = setting_copy_box()
    d = decompose(p)
    assert np.max(np.abs(d[Subspace.SI_TO_B] - 0.25 * q_basis(1, -1, -1, 1))) < 1e-12
    assert np.linalg.norm(d[Subspace.SI_TO_A]) < 1e-12
    assert not is_nonsignaling(p)


def test_pr_box_has_no_signaling_part():
    assert np.linalg.norm(decompose(boxes.pr_box())[Subspace.SI]) < 1e-12


def test_normalization_iff_no_conditions(rng):
    # normalized <=> alpha_++++ = 1/4 and the other NO alphas vanish
    for _ in range(100):
        v = rng.normal(size=DIM)
        alpha = alpha_coefficients(v)
        normalized = all(
            abs(v[block_indices(x, y)].sum() - 1.0) < 1e-9
            for x in range(2) for y in range(2)
        )
        conditions = (
            abs(alpha[(1, 1, 1, 1)] - 0.25) < 1e-9
            and abs(alpha[(1, 1, 1, -1)]) < 1e-9
            and abs(alpha[(1, 1, -1, 1)]) < 1e-9
            and abs(alpha[(1, 1, -1, -1)]) < 1e-9
        )
        assert normalized == conditions
    # and constructively: project any vector to normalization
    v = rng.normal(size=DIM)
    fixed = v - decompose(v)[Subspace.NO] + 0.25 * q_basis(1, 1, 1, 1)
    for x in range(2):
        for y in range(2):
            assert abs(fixed[block_indices(x, y)].sum() - 1.0) < 1e-12


def test_nonsignaling_iff_si_component_vanishes(rng):
    # brute force over polytope vertices and signaling perturbations
    for v in boxes.nonsignaling_vertices():
        assert is_nonsignaling(v, tol=1e-12)
        assert np.linalg.norm(decompose(v)[Subspace.SI]) < 1e-12
    for _ in range(50):
        p = boxes.random_nonsignaling(rng)
        assert np.linalg.norm(decompose(p)[Subspace.SI]) < 1e-12
        sig = sum(rng.normal() * q_basis(*s) for s in subspace_signs(Subspace.SI))
        q = p + 1e-3 * sig / np.linalg.norm(sig)
        assert not is_nonsignaling(q, tol=1e-9)
        assert np.linalg.norm(decompose(q)[Subspace.SI]) > 1e-9


def test_block_views_match_cell_loops(rng):
    # marginals, correlators and the nonsignaling test against per-cell sums
    behaviors = [boxes.random_nonsignaling(rng) for _ in range(10)]
    behaviors += [rng.dirichlet(np.ones(4), size=4).ravel() for _ in range(10)]
    for v in behaviors:
        for a, x, y in itertools.product(range(2), repeat=3):
            assert marginal_a(v, a, x, y) == sum(v[vector_index(a, b, x, y)] for b in range(2))
            assert marginal_b(v, a, x, y) == sum(v[vector_index(b, a, x, y)] for b in range(2))
        for x, y in itertools.product(range(2), repeat=2):
            assert correlator(v, x, y) == sum(
                (-1.0) ** (a + b) * v[vector_index(a, b, x, y)]
                for a in range(2) for b in range(2))
        expected = all(
            abs(marginal_a(v, c, s, 0) - marginal_a(v, c, s, 1)) <= 1e-9
            and abs(marginal_b(v, c, 0, s) - marginal_b(v, c, 1, s)) <= 1e-9
            for c, s in itertools.product(range(2), repeat=2))
        assert is_nonsignaling(v, tol=1e-9) == expected


def test_correlator_identity(rng):
    # the correlation component is sum_xy E_xy * pattern_xy
    for _ in range(20):
        v = rng.normal(size=DIM)
        expected = np.sum(
            [correlator(v, x, y) * correlator_pattern(x, y)
             for x in range(2) for y in range(2)],
            axis=0,
        )
        assert np.max(np.abs(project(v, Subspace.CORR) - expected)) < 1e-12


def test_bell_value_splits_over_coarse_components(rng):
    beta = rng.normal(size=DIM)
    p = rng.normal(size=DIM)
    db, dp = decompose(beta), decompose(p)
    split = sum(db[s] @ dp[s] for s in (Subspace.NO, Subspace.NS, Subspace.SI))
    assert bell_value(beta, p) == pytest.approx(split, abs=1e-12)


def test_correlator_box_validation():
    with pytest.raises(ValueError):
        boxes.correlator_box(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        boxes.correlator_box(np.zeros((2, 3)))
    assert is_distribution(boxes.correlator_box(np.zeros((2, 2))), tol=ATOL_EXACT)


def test_distribution_predicates():
    assert is_distribution(uniform_box(), tol=ATOL_EXACT)
    assert not is_distribution(np.full(DIM, 0.3))
    bad = uniform_box()
    bad[0] = -0.1
    bad[1] = 0.6
    assert not is_distribution(bad)


def test_check_distribution_reports_the_first_bad_block():
    # blocks (0,1) and (1,0) are both off; (0,1) comes first in the order
    # (0,0), (0,1), (1,0), (1,1), though its block id x + 2y is the larger
    v = uniform_box()
    v[block_indices(0, 1)] = 0.5
    v[block_indices(1, 0)] = 0.375
    with pytest.raises(ValueError) as exc:
        check_distribution(v)
    assert str(exc.value) == "block (0,1) sums to 2.0, expected 1"


def test_check_distribution_reports_a_negative_entry_first():
    bad = uniform_box()
    bad[0] = -0.1
    bad[1] = 0.6
    bad[block_indices(1, 1)] = 0.5
    with pytest.raises(ValueError) as exc:
        check_distribution(bad)
    assert str(exc.value) == "negative probability -0.1"


# oracle: ``as_vector`` and ``check_distribution`` as they were before the
# element-wise finiteness scan became conditional and the block sums moved to
# Python floats, copied verbatim (renamed)


def _oracle_as_vector(v) -> np.ndarray:
    """Coerce to a finite float vector of length 16 (copy)."""
    arr = np.array(v, dtype=float).reshape(-1)
    if arr.shape != (DIM,):
        raise ValueError(f"expected 16 components, got shape {np.shape(v)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    return arr


def _oracle_check_distribution(v, tol: float = 1e-12) -> np.ndarray:
    """Validate nonnegativity and per-block normalization; return the vector."""
    arr = _oracle_as_vector(v)
    if np.min(arr) < -tol:
        raise ValueError(f"negative probability {np.min(arr):g}")
    sums = arr.reshape(2, 2, 4).sum(axis=2).T  # [x, y]
    off = np.argwhere(np.abs(sums - 1.0) > tol)  # in the order (0,0), (0,1), (1,0), (1,1)
    if off.size:
        x, y = off[0]
        raise ValueError(f"block ({x},{y}) sums to {float(sums[x, y])}, expected 1")
    return arr


def _outcome(check, *args):
    """The returned vector's bits, or the error message.  The oracle's numpy
    sums warn on overflow; those warnings are silenced."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return check(*args).tobytes()
    except ValueError as exc:
        return str(exc)


_SPECIALS = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324)


@st.composite
def _near_behaviors(draw):
    """Normalized behaviors with cells moved by multiples of ``tol`` (some
    blocks off by about ``tol``, some cells just below zero), then a few
    cells replaced by special values."""
    tol = draw(st.sampled_from((1e-12, 1e-9)))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=DIM, max_size=DIM)))
    blocks = w.reshape(4, 4) + draw(st.sampled_from((0.0, 1e-3)))
    sums = blocks.sum(axis=1, keepdims=True)
    v = np.where(sums > 0.0, blocks / np.where(sums > 0.0, sums, 1.0), 0.25).ravel()
    steps = (0.0, 0.0, 0.5, 0.999, 1.0, 1.001, -0.5, -0.999, -1.0, -1.001, -3.0)
    v = v + tol * np.array(draw(st.lists(st.sampled_from(steps), min_size=DIM, max_size=DIM)))
    for i in draw(st.lists(st.integers(0, DIM - 1), max_size=3)):
        v[i] = draw(st.sampled_from(_SPECIALS + (-tol, -1.001 * tol, -2.0 * tol)))
    return v, tol


@settings(max_examples=400, deadline=None)
@given(_near_behaviors())
def test_check_distribution_agrees_with_the_numpy_oracle(case):
    v, tol = case
    assert _outcome(check_distribution, v, tol) == _outcome(_oracle_check_distribution, v, tol)
    assert _outcome(as_vector, v) == _outcome(_oracle_as_vector, v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIALS)), min_size=DIM, max_size=DIM),
       st.sampled_from((1e-12, 1e-9)))
def test_check_distribution_agrees_with_the_numpy_oracle_on_any_floats(cells, tol):
    assert (_outcome(check_distribution, cells, tol)
            == _outcome(_oracle_check_distribution, cells, tol))
    assert _outcome(as_vector, cells) == _outcome(_oracle_as_vector, cells)


def test_as_vector_scans_only_when_the_sum_is_not_finite():
    # the sum of 16 x 1e308 overflows although every component is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_vector([1e308] * 16), np.full(DIM, 1e308))
    for bad in ([1e308] * 15 + [float("inf")], [1.0] * 15 + [float("nan")],
                [float("inf")] * 8 + [-float("inf")] * 8):
        with pytest.raises(ValueError, match="must be finite"):
            as_vector(bad)
    with pytest.raises(ValueError, match="block \\(0,0\\) sums to inf"):
        check_distribution([1e308] * 16)


def test_json_round_trip(rng):
    v = rng.normal(size=DIM)
    obj = vector_to_json(v)
    assert obj["labels"] == ["abxy-order"]
    assert np.array_equal(vector_from_json(obj), v)
    with pytest.raises(ValueError):
        vector_from_json({"coeffs": list(v), "labels": ["other"]})
    with pytest.raises(ValueError):
        vector_from_json({})
