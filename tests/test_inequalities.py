"""Inequality catalog, transformations, and nonsignaling equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import boxes
from bellopt.inequalities import (
    _NS_VALUE_PARTS,
    QUANTUM_MAXIMUM,
    BellInequality,
    catalog,
    catalog_names,
    deterministic_maximum,
    inequality_from_json,
    inequality_to_json,
    ns_equivalent,
    rescale,
    shift,
    sigma_ratio,
    strip_normalization_fluff,
    vector_to_display,
)
from bellopt.relabel import act, enumerate_group
from bellopt.sampling import SamplingScheme
from bellopt.sources import spdc_distribution
from bellopt.space import (
    DIM,
    Subspace,
    decompose,
    project,
    projector,
    projector_stack,
    q_basis,
    vector_index,
)
from bellopt.variance import analytic_covariance, optimal_variant


def test_catalog_names():
    assert set(catalog_names()) == {"CHSH", "CH", "EH", "OPT_REF"}
    with pytest.raises(KeyError):
        catalog("XYZ")


def test_chsh_matrix_entries():
    b = catalog("CHSH")
    # (-1)^(xy) (-1)^(a+b) - 1/2 entry by entry
    for a, b_, x, y in itertools.product(range(2), repeat=4):
        expected = (-1.0) ** (x * y) * (-1.0) ** (a + b_) - 0.5
        assert b.coeffs[vector_index(a, b_, x, y)] == expected
    assert b.local_bound == 0.0


def test_ch_matrix_entries():
    # 4x Clauser-Horne with marginals from the y=0 / x=0 blocks
    b = catalog("CH")
    expected = np.zeros(DIM)
    for key, val in {
        (0, 0, 0, 0): -4, (0, 1, 0, 0): -4, (1, 0, 0, 0): -4,
        (0, 0, 0, 1): 4, (0, 0, 1, 0): 4, (0, 0, 1, 1): -4,
    }.items():
        expected[vector_index(*key)] = val
    assert np.array_equal(b.coeffs, expected)


def test_eh_matrix_entries():
    # 4x Eberhard, detection = outcome 1
    b = catalog("EH")
    expected = np.zeros(DIM)
    for key, val in {
        (1, 1, 0, 0): 4, (1, 0, 0, 1): -4, (0, 1, 1, 0): -4, (1, 1, 1, 1): -4,
    }.items():
        expected[vector_index(*key)] = val
    assert np.array_equal(b.coeffs, expected)


def test_opt_matrix_display():
    m = vector_to_display(catalog("OPT_REF").coeffs)
    assert np.array_equal(m, np.array([
        [0, -1.5, 0, -0.5],
        [-1.5, 1, -2.5, 1],
        [0, -2.5, 0, 0.5],
        [-0.5, 1, 0.5, -3],
    ]))
    assert np.array_equal(m, m.T)


def test_local_bound_zero_on_all_vertices():
    for name in catalog_names():
        assert deterministic_maximum(catalog(name)) == pytest.approx(0.0, abs=1e-12)


def test_catalog_agrees_on_nonsignaling_behaviors(rng):
    entries = [catalog(n) for n in catalog_names()]
    probes = boxes.nonsignaling_vertices() + [
        boxes.tsirelson_box(), boxes.pr_box(),
        *(boxes.random_nonsignaling(rng) for _ in range(25)),
    ]
    for p in probes:
        vals = [e.value(p) for e in entries]
        assert np.max(vals) - np.min(vals) < 1e-12


def test_quantum_maximum_on_tsirelson_box():
    assert catalog("CHSH").value(boxes.tsirelson_box()) == pytest.approx(
        QUANTUM_MAXIMUM, abs=1e-12
    )
    assert QUANTUM_MAXIMUM == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0), abs=1e-15)


def test_quantum_maximum_over_correlator_scan():
    # dense scan over singlet-angle correlator boxes: E_xy = -cos(thA_x - thB_y)
    chsh = catalog("CHSH")
    best = -np.inf
    for delta in np.linspace(-0.4, 0.4, 81):
        tha = (0.0, np.pi / 2)
        thb = (-3 * np.pi / 4 + delta, 3 * np.pi / 4 + delta)
        e = np.array([[-np.cos(a - b) for b in thb] for a in tha])
        best = max(best, chsh.value(boxes.correlator_box(e)))
    assert best == pytest.approx(QUANTUM_MAXIMUM, abs=1e-6)
    assert best < QUANTUM_MAXIMUM + 1e-9


def test_chsh_has_no_marginal_or_signaling_parts():
    d = decompose(catalog("CHSH").coeffs)
    assert np.linalg.norm(d[Subspace.MARG]) < 1e-12
    assert np.linalg.norm(d[Subspace.SI]) < 1e-12


def test_ch_and_eh_have_signaling_parts():
    assert np.linalg.norm(project(catalog("CH").coeffs, Subspace.SI)) > 0.1
    assert np.linalg.norm(project(catalog("EH").coeffs, Subspace.SI)) > 0.1


def test_shift_semantics(rng):
    chsh = catalog("CHSH")
    assert np.array_equal(shift(chsh, 0.0).coeffs, chsh.coeffs)
    shifted = shift(chsh, 0.7)
    p = boxes.random_nonsignaling(rng)
    assert shifted.value(p) == pytest.approx(chsh.value(p) + 4 * 0.7, abs=1e-12)
    assert shifted.local_bound == pytest.approx(chsh.local_bound + 4 * 0.7)


def test_chsh_is_shifted_correlator_form():
    # the familiar bound-2 correlator inequality minus 1/2 per coefficient
    base = BellInequality(
        np.array([(-1.0) ** (x * y + a + b)
                  for y in range(2) for x in range(2)
                  for b in range(2) for a in range(2)]),
        2.0, "chsh-correlator",
    )
    assert np.array_equal(shift(base, -0.5).coeffs, catalog("CHSH").coeffs)
    assert shift(base, -0.5).local_bound == 0.0


def test_catalog_ch_is_four_times_the_unit_form():
    # the unit-coefficient Clauser-Horne expression, rescaled by 4
    unit = BellInequality(catalog("CH").coeffs / 4.0, 0.0, "CH-unit")
    assert np.array_equal(rescale(unit, 4.0).coeffs, catalog("CH").coeffs)
    assert set(np.unique(unit.coeffs)) == {-1.0, 0.0, 1.0}


def test_rescale_semantics(rng):
    ch = catalog("CH")
    assert np.array_equal(rescale(ch, 1.0).coeffs, ch.coeffs)
    doubled = rescale(ch, 2.0)
    assert doubled.local_bound == 0.0
    assert np.array_equal(doubled.coeffs, 2.0 * ch.coeffs)
    with pytest.raises(ValueError):
        rescale(ch, 0.0)
    with pytest.raises(ValueError):
        rescale(ch, -1.0)
    # positive rescaling preserves the argmax over a random family
    family = [boxes.random_nonsignaling(rng) for _ in range(10)]
    before = np.argmax([ch.value(p) for p in family])
    after = np.argmax([rescale(ch, 3.7).value(p) for p in family])
    assert before == after


def test_ns_equivalence_within_catalog():
    chsh = catalog("CHSH")
    for name in ("CH", "EH", "OPT_REF"):
        assert ns_equivalent(chsh, catalog(name))


def test_ns_equivalence_respects_si_changes_only(rng):
    chsh = catalog("CHSH")
    si = sum(rng.normal() * q_basis(1, -1, -1, 1) for _ in range(1))
    tweaked = BellInequality(chsh.coeffs + si, chsh.local_bound, "tweaked")
    assert ns_equivalent(chsh, tweaked)
    assert not ns_equivalent(chsh, rescale(chsh, 2.0))
    shifted_bound = BellInequality(chsh.coeffs, 1.0, "wrong-bound")
    assert not ns_equivalent(chsh, shifted_bound)


def _ns_equivalent_by_components(b1, b2, tol=1e-9):
    # the component-by-component comparison the single product replaced, with
    # tol relative to the larger max|coeffs| of the two
    tol *= max(np.max(np.abs(b1.coeffs)), np.max(np.abs(b2.coeffs)))
    if abs(b1.local_bound - b2.local_bound) > tol:
        return False
    for s in _NS_VALUE_PARTS:
        if np.max(np.abs(project(b1.coeffs, s) - project(b2.coeffs, s))) > tol:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["CHSH", "CH", "EH", "OPT_REF"]),
    g=st.integers(0, 127),
    c=st.floats(-2.0, 2.0, allow_nan=False),
    parts=st.lists(st.sampled_from(list(Subspace)[:8]), min_size=1, max_size=3),
    log_size=st.floats(-12.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    same_bound=st.booleans(),
)
def test_ns_equivalent_matches_component_oracle(name, g, c, parts, log_size, seed, same_bound):
    # relabeled catalog entries against shifted copies with a random
    # perturbation in a few fine subspaces; sizes around tol give both verdicts
    base = catalog(name)
    b1 = BellInequality(act(enumerate_group()[g], base.coeffs), base.local_bound, name)
    b2 = shift(b1, c)
    rng = np.random.default_rng(seed)
    for s in parts:
        b2 = BellInequality(b2.coeffs + 10.0**log_size * projector(s) @ rng.normal(size=DIM),
                            b2.local_bound)
    if same_bound:
        b2 = BellInequality(b2.coeffs, b1.local_bound)
    assert ns_equivalent(b1, b2) == _ns_equivalent_by_components(b1, b2)
    assert ns_equivalent(b2, b1) == _ns_equivalent_by_components(b2, b1)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["CHSH", "CH", "EH", "OPT_REF"]),
    g=st.integers(0, 127),
    c=st.floats(-2.0, 2.0, allow_nan=False),
    parts=st.lists(st.sampled_from(list(Subspace)[:8]), min_size=1, max_size=3),
    log_size=st.floats(-12.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    same_bound=st.booleans(),
    k=st.integers(-40, 40),
)
def test_ns_equivalent_verdict_is_scale_invariant(name, g, c, parts, log_size, seed,
                                                  same_bound, k):
    # the pairs of the oracle test; scaling both by a power of two is exact
    base = catalog(name)
    b1 = BellInequality(act(enumerate_group()[g], base.coeffs), base.local_bound, name)
    b2 = shift(b1, c)
    rng = np.random.default_rng(seed)
    for s in parts:
        b2 = BellInequality(b2.coeffs + 10.0**log_size * projector(s) @ rng.normal(size=DIM),
                            b2.local_bound)
    if same_bound:
        b2 = BellInequality(b2.coeffs, b1.local_bound)
    assert ns_equivalent(rescale(b1, 2.0**k), rescale(b2, 2.0**k)) == ns_equivalent(b1, b2)


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1.0, 1e6, 1e8, 1e10])
def test_ns_equivalent_verdicts_hold_at_every_scale(scale):
    sigma = analytic_covariance(spdc_distribution(), SamplingScheme(176_000_000))
    for name in ("CHSH", "CH", "EH"):
        beta = catalog(name)
        star = optimal_variant(beta, sigma)
        assert ns_equivalent(rescale(star, scale), rescale(beta, scale))
    ch = catalog("CH")
    bumped = ch.coeffs.copy()
    bumped[vector_index(0, 0, 0, 0)] += 1.0
    assert not ns_equivalent(rescale(ch, scale), rescale(BellInequality(bumped), scale))


def test_ns_value_projector_stack_is_cached_and_read_only():
    stack = projector_stack(_NS_VALUE_PARTS)
    assert stack is projector_stack(_NS_VALUE_PARTS)
    assert stack.shape == (4, DIM, DIM)
    assert stack.flags.writeable is False
    for P, s in zip(stack, (Subspace.NO1, Subspace.MARG_A, Subspace.MARG_B, Subspace.CORR)):
        assert np.array_equal(P, projector(s))


def test_strip_normalization_fluff(rng):
    eh = catalog("EH")
    stripped = strip_normalization_fluff(eh)
    d = decompose(stripped.coeffs)
    assert np.linalg.norm(d[Subspace.NO2]) < 1e-12
    assert np.linalg.norm(d[Subspace.NO3]) < 1e-12
    # stripping never changes the value on a normalized behavior
    p = boxes.random_nonsignaling(rng)
    assert stripped.value(p) == pytest.approx(eh.value(p), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0.01, 10, allow_nan=False),
)
def test_shift_rescale_algebra(c1, c2, s):
    chsh = catalog("CHSH")
    both = shift(shift(chsh, c1), c2)
    once = shift(chsh, c1 + c2)
    assert np.allclose(both.coeffs, once.coeffs, atol=1e-12)
    assert both.local_bound == pytest.approx(once.local_bound, abs=1e-12)
    # rescaling commutes with itself and scales the shift
    a = rescale(shift(chsh, c1), s)
    b = shift(rescale(chsh, s), s * c1)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)
    assert a.local_bound == pytest.approx(b.local_bound, abs=1e-12)


def test_sigma_ratio():
    assert sigma_ratio(0.30, 0.0, 0.211) == pytest.approx(0.30 / 0.211)
    assert sigma_ratio(0.30, 0.0, 0.211) == pytest.approx(1.42, abs=0.005)
    assert sigma_ratio(5.0, 5.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        sigma_ratio(1.0, 0.0, 0.0)


def test_inequality_json_round_trip():
    eh = catalog("EH")
    obj = inequality_to_json(eh)
    back = inequality_from_json(obj)
    assert np.array_equal(back.coeffs, eh.coeffs)
    assert back.local_bound == eh.local_bound
    assert back.name == "EH"


def test_inequality_validation():
    with pytest.raises(ValueError):
        BellInequality(np.full(DIM, np.inf))
    with pytest.raises(ValueError):
        BellInequality(np.zeros(DIM), local_bound=np.nan)


def test_biased_box_validation():
    with pytest.raises(ValueError):
        boxes.biased_marginal_box(1.5)
