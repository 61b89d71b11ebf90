"""Relabeling group: enumeration, axioms, action, invariance, commutant."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import boxes, relabel
from bellopt.inequalities import BellInequality, catalog, deterministic_maximum, ns_equivalent
from bellopt.relabel import (
    GLOBAL_OUTCOME_FLIP,
    IDENTITY,
    INVARIANT_BLOCKS,
    PartyRelabeling,
    Relabeling,
    act,
    averaging_projector,
    cayley_checksum,
    commutant_dimension,
    enumerate_group,
    group_axioms_hold,
    matrix_of,
    permutation_of,
    spans_subspace,
    verify_invariance,
)
from bellopt.sampling import SamplingScheme
from bellopt.space import (
    DIM,
    Subspace,
    decompose,
    projector,
    q_basis,
    subspace_signs,
    vector_index,
)
from bellopt.variance import analytic_covariance, optimal_variant, std_dev

SIGNS = (1, -1)


def _outcome_flips():
    return [
        Relabeling(False,
                   PartyRelabeling((0, 1), (oa0, oa1)),
                   PartyRelabeling((0, 1), (ob0, ob1)))
        for oa0 in ((0, 1), (1, 0)) for oa1 in ((0, 1), (1, 0))
        for ob0 in ((0, 1), (1, 0)) for ob1 in ((0, 1), (1, 0))
    ]


def test_group_order_and_distinct_actions():
    g = enumerate_group()
    assert len(g) == 128
    assert len(set(g)) == 128
    perms = {tuple(permutation_of(e)) for e in g}
    assert len(perms) == 128  # the action is faithful


def test_group_axioms_exhaustively():
    assert group_axioms_hold()


@pytest.mark.parametrize("elements", [
    [g for g in enumerate_group() if g != IDENTITY],
    list(enumerate_group()) + [enumerate_group()[5]],
    enumerate_group()[:5],
], ids=["no-identity", "duplicate", "not-closed"])
def test_group_axioms_fail_on_non_groups(elements):
    assert not group_axioms_hold(elements)


def _walked_table(elements):
    """The composition table by one ``compose`` call per pair: the oracle."""
    order = {g: i for i, g in enumerate(elements)}
    return np.array([[order.get(g.compose(k), -1) for k in elements] for g in elements])


def test_encoded_table_matches_the_compose_walk():
    group = list(enumerate_group())
    assert np.array_equal(relabel._composition_table(tuple(group)), _walked_table(group))
    rng = np.random.default_rng(7)
    shuffled = [group[i] for i in rng.permutation(128)]
    assert np.array_equal(relabel._composition_table(tuple(shuffled)), _walked_table(shuffled))
    missing = 0  # composites outside their subset, which read -1
    for size in (1, 2, 5, 16, 64, 127):
        subset = [group[i] for i in rng.choice(128, size, replace=False)]
        table = relabel._composition_table(tuple(subset))
        assert np.array_equal(table, _walked_table(subset))
        missing += np.count_nonzero(table == -1)
    assert missing


def test_group_axioms_catch_a_composition_inconsistent_with_the_action(monkeypatch):
    # swapped operands compose the opposite group: closure, identity and
    # inverses all still hold, so only the homomorphism check can fail
    original = relabel._compose_codes
    relabel._composition_table.cache_clear()
    monkeypatch.setattr(relabel, "_compose_codes", lambda g, k: original(k, g))
    try:
        assert not group_axioms_hold()
    finally:
        monkeypatch.undo()
        relabel._composition_table.cache_clear()
    assert group_axioms_hold()


def test_group_checks_share_one_composition_walk():
    relabel._composition_table.cache_clear()
    assert group_axioms_hold()
    cayley_checksum()
    cayley_checksum(list(enumerate_group()))
    assert relabel._composition_table.cache_info().misses == 1


def test_cayley_checksum_needs_a_closed_element_list():
    with pytest.raises(ValueError, match="not closed"):
        cayley_checksum(enumerate_group()[:5])


@pytest.mark.parametrize("party", [
    dict(setting_perm=(0, 0)),
    dict(outcome_perms=((0, 2), (0, 1))),
], ids=["setting-perm", "outcome-perm"])
def test_party_relabeling_rejects_non_permutations(party):
    # either would make act() leave entries of its output unwritten
    with pytest.raises(ValueError, match="not a relabeling"):
        PartyRelabeling(**party)


def test_identity_composition():
    for g in enumerate_group():
        assert IDENTITY.compose(g) == g
        assert g.compose(IDENTITY) == g


def test_act_identity(rng):
    v = rng.normal(size=DIM)
    assert np.array_equal(act(IDENTITY, v), v)


def test_act_is_group_action(rng):
    v = rng.normal(size=DIM)
    elements = enumerate_group()
    sample = [elements[i] for i in rng.integers(0, 128, size=24)]
    for g in sample:
        for h in sample:
            assert np.allclose(act(g.compose(h), v), act(g, act(h, v)), atol=0)


def test_outcome_flip_on_first_setting_example(rng):
    # exchange a = 0 with a = 1 when x = 0, leave x = 1 untouched
    g = Relabeling(False, PartyRelabeling((0, 1), ((1, 0), (0, 1))), PartyRelabeling())
    v = rng.normal(size=DIM)
    w = act(g, v)
    for a, b, y in itertools.product(range(2), repeat=3):
        assert w[vector_index(a, b, 0, y)] == v[vector_index(1 - a, b, 0, y)]
        assert w[vector_index(a, b, 1, y)] == v[vector_index(a, b, 1, y)]


def test_global_outcome_flip_fixes_no_plus_corr():
    assert np.allclose(act(GLOBAL_OUTCOME_FLIP, boxes.shared_coin_box()),
                       boxes.shared_coin_box(), atol=0)
    assert np.allclose(act(GLOBAL_OUTCOME_FLIP, boxes.tsirelson_box()),
                       boxes.tsirelson_box(), atol=1e-15)


def test_global_outcome_flip_sign_rule():
    # acting on Q_ijkl multiplies by i*j
    for s in itertools.product(SIGNS, repeat=4):
        q = q_basis(*s)
        assert np.allclose(act(GLOBAL_OUTCOME_FLIP, q), s[0] * s[1] * q, atol=0)


def test_party_swap_action(rng):
    g = Relabeling(True, PartyRelabeling(), PartyRelabeling())
    v = rng.normal(size=DIM)
    w = act(g, v)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        assert w[vector_index(b, a, y, x)] == v[vector_index(a, b, x, y)]


def _loop_permutation_of(g: Relabeling) -> np.ndarray:
    """Oracle: the per-cell loop permutation_of ran before it relabeled the
    per-cell label arrays at once."""
    perm = np.empty(DIM, dtype=np.intp)
    for a, b, x, y in itertools.product(range(2), repeat=4):
        perm[vector_index(a, b, x, y)] = vector_index(*g.apply_labels(a, b, x, y))
    return perm


def test_permutations_match_cell_loop():
    for g in enumerate_group():
        assert np.array_equal(permutation_of(g), _loop_permutation_of(g))
        for party in (g.alice, g.bob):
            for a, x in itertools.product(range(2), repeat=2):
                # the tuple lookup apply made before it took index arrays
                assert party.apply(a, x) == (party.outcome_perms[x][a], party.setting_perm[x])


def test_act_preserves_norm_and_ones(rng):
    v = rng.normal(size=DIM)
    for g in enumerate_group():
        assert np.linalg.norm(act(g, v)) == pytest.approx(np.linalg.norm(v), rel=1e-15)
        assert np.array_equal(act(g, np.ones(DIM)), np.ones(DIM))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 127),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=16, max_size=16),
)
def test_act_is_a_coordinate_permutation(gi, coeffs):
    v = np.array(coeffs)
    w = act(enumerate_group()[gi], v)
    assert sorted(w) == sorted(v)


def test_six_blocks_invariant():
    for block in INVARIANT_BLOCKS:
        assert verify_invariance(block)
    assert len(INVARIANT_BLOCKS) == 6


def test_fine_marginal_subspace_not_invariant_alone():
    # the party swap mixes the A and B marginal pieces
    assert not verify_invariance(Subspace.MARG_A)
    assert not verify_invariance(Subspace.SI_TO_B)


@pytest.mark.parametrize("elements, not_invariant", [
    (enumerate_group(), {Subspace.MARG_A, Subspace.MARG_B, Subspace.SI_TO_B, Subspace.SI_TO_A}),
    (tuple(_outcome_flips()), set()),
], ids=["group", "outcome-flips"])
def test_verify_invariance_matches_span_oracle(elements, not_invariant):
    for block in Subspace:
        signs = subspace_signs(block)
        basis = [q_basis(*s) for s in signs]
        oracle = all(spans_subspace([act(g, q) for q in basis], signs) for g in elements)
        assert verify_invariance(block, elements) == oracle == (block not in not_invariant)


def test_non_invariant_span_counterexample():
    # {Q_++++, Q_--++} is not a G-invariant span: exhaustive search finds a
    # relabeling pushing Q_--++ outside it
    signs = ((1, 1, 1, 1), (-1, -1, 1, 1))
    basis = [q_basis(*s) for s in signs]
    broken = [
        g for g in enumerate_group()
        if not spans_subspace([act(g, q) for q in basis], signs)
    ]
    assert broken


def test_projectors_commute_with_action():
    for block in INVARIANT_BLOCKS:
        P = projector(block)
        for g in enumerate_group():
            M = matrix_of(g)
            assert np.max(np.abs(P @ M - M @ P)) < 1e-12


def test_averaging_projector_is_no1_projector():
    avg = averaging_projector()
    assert np.max(np.abs(avg - projector(Subspace.NO1))) < 1e-12


def test_commutant_dimension_is_six():
    assert commutant_dimension() == 6


def test_commutant_character_cross_check():
    # multiplicity-free <=> (1/|G|) sum of squared traces equals the count
    traces = [np.trace(matrix_of(g)) for g in enumerate_group()]
    assert np.mean([t * t for t in traces]) == pytest.approx(6.0, abs=1e-12)


def test_commutant_of_trivial_group():
    assert commutant_dimension([IDENTITY]) == 256


def test_commutant_of_outcome_flips_only():
    flips = _outcome_flips()
    assert len(flips) == 16
    dim = commutant_dimension(flips)
    assert dim > 6
    assert dim == 36


def _svd_commutant_dimension(elements) -> int:
    """Oracle: null-space dimension of the stacked 256-unknown constraints
    M A_g - A_g M = 0, counted from the singular values."""
    eye = np.eye(DIM)
    K = np.concatenate(
        [np.kron(matrix_of(g), eye) - np.kron(eye, matrix_of(g).T) for g in elements]
    )
    svals = np.linalg.svd(K, compute_uv=False)
    return int(np.sum(svals < 1e-9 * max(1.0, svals[0])))


@pytest.mark.parametrize("elements, expected", [
    (enumerate_group(), 6),
    ([IDENTITY], 256),
    (_outcome_flips(), 36),
], ids=["group", "identity", "outcome-flips"])
def test_commutant_dimension_matches_svd_oracle(elements, expected):
    assert _svd_commutant_dimension(elements) == expected
    assert commutant_dimension(elements) == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 127), min_size=1, max_size=4))
def test_commutant_dimension_of_element_lists_matches_svd_oracle(indices):
    # arbitrary element lists, generally not closed under composition
    elements = [enumerate_group()[i] for i in indices]
    assert commutant_dimension(elements) == _svd_commutant_dimension(elements)


def test_cayley_checksum_is_stable():
    # frozen snapshot of the composition table in canonical element order;
    # any change to enumeration order or composition semantics trips this
    assert cayley_checksum() == (
        "fb822dd4a6e0298aebe19c01985f775a5f5f4a8e23acd658a41cf9b15d24e293"
    )


# --- the numerical core commutes with the whole group ---------------------

def _acted(g, beta):
    return BellInequality(act(g, beta.coeffs), beta.local_bound, beta.name)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["CHSH", "CH", "EH"]),
       trials=st.sampled_from([244, 10**4, 176_000_000]))
def test_core_maps_commute_with_every_relabeling(seed, name, trials):
    # with M the permutation matrix of g: decompose(gv) = g decompose(v) per
    # invariant block, Sigma(gp) = M Sigma M^T when 4 divides N (the
    # renormalized blocks may differ in the last bit), the optimum of g beta
    # under M Sigma M^T is g beta*, and equivalence verdicts do not move
    rng = np.random.default_rng(seed)
    p, v = boxes.random_nonsignaling(rng), rng.normal(size=DIM)
    scheme = SamplingScheme(trials)
    S = analytic_covariance(p, scheme)
    beta = catalog(name)
    bstar = optimal_variant(beta, S)
    rivals = [catalog(n) for n in ("CHSH", "CH", "EH")] + [bstar]
    verdicts = [[ns_equivalent(b1, b2) for b2 in rivals] for b1 in rivals]
    parts = decompose(v)
    for g in enumerate_group():
        gparts = decompose(act(g, v))
        for block in INVARIANT_BLOCKS:
            assert np.max(np.abs(gparts[block] - act(g, parts[block]))) <= 1e-14 * np.max(np.abs(v))
        M = matrix_of(g)
        gS = M @ S @ M.T
        assert (np.max(np.abs(analytic_covariance(act(g, p), scheme) - gS))
                <= 1e-15 * np.max(np.abs(S)))
        gstar = optimal_variant(_acted(g, beta), gS)
        assert (np.max(np.abs(gstar.coeffs - act(g, bstar.coeffs)))
                <= 1e-14 * np.max(np.abs(bstar.coeffs)))
        assert std_dev(gstar, gS) == pytest.approx(std_dev(bstar, S), rel=1e-14)
        grivals = [_acted(g, b) for b in rivals]
        assert [[ns_equivalent(b1, b2) for b2 in grivals] for b1 in grivals] == verdicts
        assert deterministic_maximum(_acted(g, beta)) == pytest.approx(
            deterministic_maximum(beta), abs=1e-14)


def test_fixed_allocation_at_245_trials_is_not_equivariant(rng):
    # 245 = 62 + 3 * 61: block (0, 0) holds one trial more than the others, so
    # Sigma(gp) = M Sigma M^T only for the 32 relabelings that keep block
    # (0, 0) in place (outcome flips, with or without the party swap); the
    # other 96 move its 1/62 weight onto a block of 61 trials
    p = boxes.random_nonsignaling(rng)
    scheme = SamplingScheme(245)
    S = analytic_covariance(p, scheme)
    moved = []
    for g in enumerate_group():
        M = matrix_of(g)
        dev = np.max(np.abs(analytic_covariance(act(g, p), scheme) - M @ S @ M.T))
        if permutation_of(g)[0] < 4:  # cell 0 stays in block (0, 0)
            assert dev <= 1e-15 * np.max(np.abs(S))
        else:
            moved.append(dev / np.max(np.abs(S)))
    assert len(moved) == 96
    assert 1e-3 < min(moved) and max(moved) < 2e-2
