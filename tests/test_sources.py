"""Quantum source models: spin-pair (NV) and photon-pair (SPDC) behaviors."""

import math

import numpy as np
import pytest

from bellopt.inequalities import catalog
from bellopt.sources import (
    NV_EPSILON,
    MeasurementAngles,
    ReadoutModel,
    nv_distribution,
    nv_symmetric_distribution,
    spdc_distribution,
    spdc_reference_angles,
    two_qubit_state,
)
from bellopt.space import correlator, is_nonsignaling, vector_index
from reference_data import CHSH_UNSHIFTED_VALUE, p1_printed, p2_printed


# --- spin-pair model -------------------------------------------------------

def test_two_qubit_state_valid():
    rho = two_qubit_state(0.022, 0.873)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-10


def test_two_qubit_state_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        two_qubit_state(-0.1, 0.9)
    with pytest.raises(ValueError):
        two_qubit_state(0.0, 1.2)


def test_readout_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(eta_plus_a=1.2)
    pi0, pi1 = ReadoutModel().effects("A")
    assert np.max(np.abs(pi0 + pi1 - np.eye(2))) < 1e-15
    assert np.linalg.eigvalsh(pi0)[0] >= 0.0
    with pytest.raises(ValueError):
        ReadoutModel().effects("C")


def test_nv_reproduces_published_behavior():
    p = nv_distribution()
    assert np.max(np.abs(p - p1_printed())) < 0.005


def test_nv_unshifted_chsh_violation():
    p = nv_distribution()
    assert catalog("CHSH").value(p) + 2.0 == pytest.approx(CHSH_UNSHIFTED_VALUE, abs=0.01)


def test_nv_rescaled_chsh_violation():
    assert catalog("CHSH").value(nv_distribution()) == pytest.approx(0.30, abs=0.005)


def test_nv_behavior_is_valid_and_nonsignaling():
    p = nv_distribution()
    assert np.min(p) >= 0.0
    assert is_nonsignaling(p, tol=1e-10)
    for x in range(2):
        for y in range(2):
            assert sum(p[vector_index(a, b, x, y)] for a in range(2) for b in range(2)) \
                == pytest.approx(1.0, abs=1e-12)


def test_nv_singlet_limit_matches_closed_form_correlators():
    # independent oracle: perfect state and readout give E = -cos(thA - thB)
    rng = np.random.default_rng(5)
    for _ in range(20):
        tha = rng.uniform(-np.pi, np.pi, size=2)
        thb = rng.uniform(-np.pi, np.pi, size=2)
        p = nv_distribution(0.0, 1.0, ReadoutModel(1, 1, 1, 1),
                            MeasurementAngles(tuple(tha), tuple(thb)))
        for x in range(2):
            for y in range(2):
                assert correlator(p, x, y) == pytest.approx(
                    -math.cos(tha[x] - thb[y]), abs=1e-12
                )


def test_nv_singlet_reaches_tsirelson_bound():
    angles = MeasurementAngles((-0.75 * math.pi, 0.75 * math.pi), (0.0, 0.5 * math.pi))
    p = nv_distribution(0.0, 1.0, ReadoutModel(1, 1, 1, 1), angles)
    assert catalog("CHSH").value(p) + 2.0 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_nv_epsilon_scan_smooth_with_maximum_near_reference():
    chsh = catalog("CHSH")

    def value(eps):
        ang = MeasurementAngles((-0.75 * math.pi - eps, 0.75 * math.pi + eps),
                                (0.0, 0.5 * math.pi))
        return chsh.value(nv_distribution(angles=ang))

    grid = np.linspace(-0.05 * math.pi, 0.10 * math.pi, 61)
    vals = np.array([value(e) for e in grid])
    best = grid[int(np.argmax(vals))]
    assert abs(best - NV_EPSILON) < 0.05 * math.pi
    assert value(NV_EPSILON) > 0.99 * vals.max()
    assert np.max(np.abs(np.diff(vals, 2))) < 1e-3  # no kinks at this resolution


def test_nv_symmetric_idealization_is_flip_symmetric():
    p = nv_symmetric_distribution()
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert p[vector_index(a, b, x, y)] == pytest.approx(
                        p[vector_index(1 - a, 1 - b, x, y)], abs=1e-12
                    )


def test_readout_symmetrization_gives_flip_symmetric_behavior():
    p = nv_distribution(readout=ReadoutModel().symmetrized())
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert p[vector_index(a, b, x, y)] == pytest.approx(
                        p[vector_index(1 - a, 1 - b, x, y)], abs=1e-12
                    )


# --- photon-pair model -------------------------------------------------------

def test_spdc_reproduces_published_behavior():
    p = spdc_distribution()
    ref = p2_printed()
    rel = np.abs(p - ref) / ref
    small = ref < 0.5
    # the weakest cell is printed to two significant figures only
    weakest = vector_index(1, 1, 1, 1)
    for i in np.flatnonzero(small):
        assert rel[i] < (0.5 if i == weakest else 0.10)
    assert rel[~small].max() < 1e-3


def test_spdc_behavior_is_valid_and_nonsignaling():
    p = spdc_distribution()
    assert np.min(p) >= 0.0
    assert is_nonsignaling(p, tol=1e-10)
    for x in range(2):
        for y in range(2):
            assert sum(p[vector_index(a, b, x, y)] for a in range(2) for b in range(2)) \
                == pytest.approx(1.0, abs=1e-12)


def test_spdc_vacuum_limit():
    p = spdc_distribution(mu=0.0)
    for x in range(2):
        for y in range(2):
            assert p[vector_index(0, 0, x, y)] == pytest.approx(1.0, abs=1e-12)


def test_spdc_no_transmission_limit():
    p = spdc_distribution(eta_a=0.0, eta_b=0.0)
    for x in range(2):
        for y in range(2):
            assert p[vector_index(0, 0, x, y)] == pytest.approx(1.0, abs=1e-12)


def test_spdc_truncation_insensitive():
    p4 = spdc_distribution(cutoff=4)
    p6 = spdc_distribution(cutoff=6)
    assert np.max(np.abs(p6 - p4) / p6) < 0.01


def test_spdc_balanced_source_is_party_symmetric():
    p = spdc_distribution(ratio=1.0, eta_a=0.75, eta_b=0.75)
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert p[vector_index(a, b, x, y)] == pytest.approx(
                        p[vector_index(b, a, y, x)], abs=1e-15
                    )


def test_spdc_channel_loss_matches_kraus_branch_oracle():
    # independent oracle: sum the explicit loss Kraus branches |K psi|^2 in
    # the Schroedinger picture and compare with the no-click-effect path, at
    # parameters where losses matter
    import itertools

    from bellopt.sources import _apply_pair, _mode_rotation, _pair_source
    from bellopt.space import DIM

    cutoff, mu, ratio, eta_a, eta_b = 3, 0.05, 0.5, 0.6, 0.8
    d = cutoff + 1
    angles = MeasurementAngles((0.3, -0.7), (0.2, 1.1))

    def lowering(dim):
        m = np.zeros((dim, dim))
        for n in range(1, dim):
            m[n - 1, n] = math.sqrt(n)
        return m

    def _apply_single(op: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
        out = np.tensordot(op, psi, axes=([1], [axis]))
        return np.moveaxis(out, 0, axis)

    def _click_probabilities(psi: np.ndarray) -> np.ndarray:
        """Joint click/no-click probabilities from the H-mode occupations.

        Outcome 1 = at least one photon in the party's H mode (axes 0 and 2);
        every other axis is traced out.  Returns (q00, q10, q01, q11) in
        (a + 2b) order, unnormalized.
        """
        other = tuple(k for k in range(psi.ndim) if k not in (0, 2))
        w = (psi ** 2).sum(axis=other)
        return np.array([w[0, 0], w[1:, 0].sum(), w[0, 1:].sum(), w[1:, 1:].sum()])

    def kraus_ops(eta, dim):
        a = lowering(dim)
        damp = np.diag([eta ** (m / 2.0) for m in range(dim)])
        ops, an = [], np.eye(dim)
        for n in range(dim):
            ops.append(((1 - eta) ** (n / 2.0) / math.sqrt(math.factorial(n))) * (damp @ an))
            an = an @ a
        return ops

    mu_v = mu / (1 + ratio**2)
    mu_h = ratio**2 * mu / (1 + ratio**2)
    psi0 = np.zeros((d, d, d, d))
    psi0[0, 0, 0, 0] = 1.0
    psi0 = _apply_pair(_pair_source(mu_v, d), psi0, (1, 3))
    psi0 = _apply_pair(_pair_source(mu_h, d), psi0, (0, 2))
    kraus = [kraus_ops(eta, d) for eta in (eta_a, eta_a, eta_b, eta_b)]
    rot_a = [_mode_rotation(t, d) for t in angles.alice]
    rot_b = [_mode_rotation(-t, d) for t in angles.bob]

    oracle = np.empty(DIM)
    for x in range(2):
        for y in range(2):
            q = np.zeros(4)
            for combo in itertools.product(range(d), repeat=4):
                branch = psi0
                for axis, n in enumerate(combo):
                    branch = _apply_single(kraus[axis][n], branch, axis)
                branch = _apply_pair(rot_a[x], branch, (0, 1))
                branch = _apply_pair(rot_b[y], branch, (2, 3))
                q += _click_probabilities(branch)
            q /= q.sum()
            for a in range(2):
                for b in range(2):
                    oracle[vector_index(a, b, x, y)] = q[a + 2 * b]

    p = spdc_distribution(mu=mu, ratio=ratio, eta_a=eta_a, eta_b=eta_b,
                          angles=angles, cutoff=cutoff)
    assert np.max(np.abs(p - oracle)) < 1e-12


def test_spdc_parameter_validation():
    with pytest.raises(ValueError):
        spdc_distribution(mu=-1e-4)
    with pytest.raises(ValueError):
        spdc_distribution(eta_a=1.5)
    with pytest.raises(ValueError):
        spdc_distribution(ratio=-0.1)
    with pytest.raises(ValueError):
        spdc_distribution(cutoff=0)


def test_spdc_angles_default():
    ang = spdc_reference_angles()
    assert ang.alice == pytest.approx((math.radians(-4.2), math.radians(25.9)))
    assert ang.bob == pytest.approx((math.radians(-4.2), math.radians(25.9)))
