"""Quantum source models: spin-pair (NV) and photon-pair (SPDC) behaviors."""

import functools
import math
import re
import warnings

import numpy as np
import pytest

from bellopt.inequalities import catalog
from bellopt.sources import (
    NV_ANGLES,
    NV_EPSILON,
    NV_LAMBDA,
    NV_VISIBILITY,
    SPDC_ANGLES_DEG,
    SPDC_ETA_A,
    SPDC_ETA_B,
    SPDC_MU,
    SPDC_RATIO,
    MeasurementAngles,
    ReadoutModel,
    _effects,
    _fock_tables,
    _loss_adjoints,
    _rotated_vacuum,
    _ry,
    nv_distribution,
    nv_symmetric_distribution,
    spdc_distribution,
    spdc_reference_angles,
    two_qubit_state,
)
from bellopt.space import is_nonsignaling, vector_index
from fixtures import correlator, symmetrized
from reference_data import (
    CHSH_UNSHIFTED_VALUE,
    P1_DISPLAY,
    P2_BLOCKS,
    p1_printed,
    p2_printed,
)


# --- reference data ----------------------------------------------------------

def test_printed_behaviors_match_cell_loops():
    # oracle: the per-cell loops that filled the reference vectors before the
    # display tables were read through a tensor view
    p1 = np.empty(16)
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    p1[vector_index(a, b, x, y)] = P1_DISPLAY[2 * x + a][2 * y + b]
    p2 = np.empty(16)
    for (x, y), cells in P2_BLOCKS.items():
        for key, val in cells.items():
            a, b = int(key[0]), int(key[1])
            p2[vector_index(a, b, x, y)] = val
    assert np.array_equal(p1_printed(), p1)
    assert np.array_equal(p2_printed(), p2)


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
    p = nv_distribution(readout=symmetrized(ReadoutModel()))
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert p[vector_index(a, b, x, y)] == pytest.approx(
                        p[vector_index(1 - a, 1 - b, x, y)], abs=1e-12
                    )


def _loop_nv_distribution(lam, visibility, readout, angles):
    """Oracle: the per-cell loop nv_distribution used before its Heisenberg-
    picture contraction, a kron and a trace per cell."""
    rho = two_qubit_state(lam, visibility)
    pia = readout.effects("A")
    pib = readout.effects("B")
    p = np.empty((2, 2, 2, 2))  # [y, x, b, a]
    for x in range(2):
        ra = _ry(angles.alice[x])
        for y in range(2):
            rb = _ry(-angles.bob[y])  # mirrored rotation sense on Bob's side
            r = np.kron(ra, rb)
            rotated = r @ rho @ r.T
            for a in range(2):
                for b in range(2):
                    p[y, x, b, a] = np.trace(np.kron(pia[a], pib[b]) @ rotated)
    return p.ravel()


def test_nv_contraction_matches_cell_loop():
    rng = np.random.default_rng(13)
    setups = [(NV_LAMBDA, NV_VISIBILITY, ReadoutModel(), MeasurementAngles(*NV_ANGLES))]
    for k in range(300):
        lam = rng.uniform(0.0, 1.0)
        fidelities = rng.uniform(0.0, 1.0, 4)
        if k % 3 == 0:  # readouts at the ends of [0, 1]
            fidelities = rng.choice([0.0, 1.0], 4)
        setups.append((lam, (1.0 - lam) * rng.uniform(-1.0, 1.0), ReadoutModel(*fidelities),
                       MeasurementAngles(tuple(rng.uniform(-4.0, 4.0, 2)),
                                         tuple(rng.uniform(-4.0, 4.0, 2)))))
    for setup in setups:
        assert np.max(np.abs(nv_distribution(*setup) - _loop_nv_distribution(*setup))) <= 1e-15


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


# oracle: the photon-pair model's helpers before the closed form (pair-creation
# operators on the d^4 state, the cached rotation eigenbasis and the
# loss-adjoint matrix), copied verbatim, and the einsum Kraus contraction of the
# no-click effect that preceded the loss-adjoint matrix, kept verbatim


def _lowering(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _pair_source(mu: float, dim: int) -> np.ndarray:
    """Truncated pair-creation operator on a two-mode space:
    exp(-mu/2) sum_n mu^(n/2)/n!^(3/2) (a+ b+)^n, Poissonian pair number."""
    at = _lowering(dim).T
    pair = np.kron(at, at)
    out = np.zeros_like(pair)
    term = np.eye(dim * dim)
    for n in range(dim):
        out += (mu ** (n / 2.0) / math.factorial(n) ** 1.5) * term
        term = term @ pair
    return math.exp(-mu / 2.0) * out


@functools.lru_cache(maxsize=None)
def _rotation_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of the Hermitian -iG, where
    G = a_H+ a_V - a_H a_V+ generates the two-mode polarization rotation.
    It depends on ``dim`` only: computed once per ``dim``, kept read-only."""
    a = _lowering(dim)
    at = a.T
    gen = np.kron(at, a) - np.kron(a, at)
    w, v = np.linalg.eigh(-1j * gen)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _mode_rotation(theta: float, dim: int) -> np.ndarray:
    """Two-mode polarization rotation U with U+ a_H U = cos a_H + sin a_V,
    exp(theta G) from the cached eigenbasis of -iG."""
    w, v = _rotation_eigenbasis(dim)
    return ((v * np.exp(1j * theta * w)) @ v.conj().T).real


def _apply_pair(op: np.ndarray, psi: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    d = psi.shape[0]
    op4 = op.reshape(d, d, d, d)
    out = np.tensordot(op4, psi, axes=([2, 3], list(axes)))
    return np.moveaxis(out, [0, 1], list(axes))


def _loss_adjoint(eta: float, dim: int) -> np.ndarray:
    """The adjoint of a loss channel of transmission ``eta`` on one mode, as a
    (dim^2, dim^2) matrix on the index pair (X, X') of an operator,
    L[(k, m), (i, p)] = sum_h K_h[i, k] K_h[p, m], with the Kraus operators
    K_h = (1-eta)^(h/2)/sqrt(h!) eta^(N/2) a^h.  K_h[i, k] vanishes unless
    k = i + h, so each entry is a single product, exact in any order."""
    a = _lowering(dim)
    damp = np.diag(eta ** (np.arange(dim) / 2.0))
    kraus, an = np.empty((dim, dim, dim)), np.eye(dim)
    for n in range(dim):
        kraus[n] = ((1.0 - eta) ** (n / 2.0) / math.sqrt(math.factorial(n))) * (damp @ an)
        an = an @ a
    kf = kraus.reshape(dim, dim * dim)  # rows h, columns (i, k)
    loss = (kf.T @ kf).reshape(dim, dim, dim, dim)  # (i, k, p, m)
    return loss.transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim)


def _oracle_no_click_effect(theta: float, eta: float, dim: int) -> np.ndarray:
    """One party's no-click effect on its (H, V) modes: loss of transmission
    ``eta`` on both modes, the rotation U, then H-mode vacuum,
    F = sum_{kH,kV} (K_kH x K_kV)^T U^T (|0><0|_H x 1_V) U (K_kH x K_kV)
    with loss Kraus operators K_n = (1-eta)^(n/2)/sqrt(n!) eta^(N/2) a^n."""
    a = _lowering(dim)
    damp = np.diag(eta ** (np.arange(dim) / 2.0))
    kraus, an = np.empty((dim, dim, dim)), np.eye(dim)
    for n in range(dim):
        kraus[n] = ((1.0 - eta) ** (n / 2.0) / math.sqrt(math.factorial(n))) * (damp @ an)
        an = an @ a
    u = _mode_rotation(theta, dim)
    vacuum_h = np.zeros((dim, dim))
    vacuum_h[0, 0] = 1.0
    g = (u.T @ np.kron(vacuum_h, np.eye(dim)) @ u).reshape(dim, dim, dim, dim)
    # axes (H, V, H', V'): the loss channel's adjoint on each mode in turn
    g = np.einsum("hik,ijpq,hpm->kjmq", kraus, g, kraus, optimize=True)
    g = np.einsum("vjl,kjmq,vqn->klmn", kraus, g, kraus, optimize=True)
    return g.reshape(dim * dim, dim * dim)


def _oracle_spdc_distribution(mu, ratio, eta_a, eta_b, angles, cutoff):
    """``spdc_distribution`` assembled from the oracle effects."""
    d = cutoff + 1
    mu_v = mu / (1.0 + ratio ** 2)
    mu_h = ratio ** 2 * mu / (1.0 + ratio ** 2)
    psi = np.zeros((d, d, d, d))
    psi[0, 0, 0, 0] = 1.0
    psi = _apply_pair(_pair_source(mu_v, d), psi, (1, 3))
    psi = _apply_pair(_pair_source(mu_h, d), psi, (0, 2))
    psi = psi.reshape(d * d, d * d)
    one = np.eye(d * d)
    eff_a = [(f, one - f) for f in (_oracle_no_click_effect(t, eta_a, d) for t in angles.alice)]
    eff_b = [(f, one - f) for f in (_oracle_no_click_effect(-t, eta_b, d) for t in angles.bob)]
    p = np.empty((2, 2, 4))
    for x in range(2):
        for y in range(2):
            q = np.array([np.sum(psi * (ea @ psi @ eb))
                          for eb in eff_b[y] for ea in eff_a[x]])
            p[y, x] = q / q.sum()
    return p.ravel()


# independent reference: the same model in long double, with the rotation
# exp(theta G) as a scaled-and-squared Taylor series, loss as explicit sums
# over the Kraus operators of each mode, and the state built by the
# pair-creation series on the d^4 vacuum

LD = np.longdouble
long_double = pytest.mark.skipif(np.finfo(LD).eps > 1e-18,
                                 reason="long double is no wider than double here")


def _ld_lowering(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=LD)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(LD(n))
    return a


@functools.lru_cache(maxsize=None)
def _ld_vacuum_projector(theta: float, dim: int) -> np.ndarray:
    """U^T (|0><0|_H x 1_V) U with U = exp(theta G) summed as a Taylor series
    of exp(theta G / 2^k), then squared k times."""
    a = _ld_lowering(dim)
    x = LD(theta) * (np.kron(a.T, a) - np.kron(a, a.T))
    k = max(0, math.ceil(math.log2(max(float(np.abs(x).sum(axis=1).max()), 1e-300) / 0.25)))
    x /= LD(2) ** k
    u, term = np.eye(dim * dim, dtype=LD), np.eye(dim * dim, dtype=LD)
    for j in range(1, 30):
        term = term @ x / LD(j)
        u = u + term
    for _ in range(k):
        u = u @ u
    vacuum_h = np.zeros((dim, dim), dtype=LD)
    vacuum_h[0, 0] = 1
    return u.T @ np.kron(vacuum_h, np.eye(dim, dtype=LD)) @ u


def _ld_no_click_effect(theta: float, eta: float, dim: int) -> np.ndarray:
    """sum over the Kraus operators K_h = (1-eta)^(h/2)/sqrt(h!) eta^(N/2) a^h
    of each mode of (K x 1)^T G (K x 1), then of (1 x K)^T G (1 x K)."""
    eta = LD(eta)
    a, one = _ld_lowering(dim), np.eye(dim, dtype=LD)
    damp = np.diag([np.sqrt(eta) ** n for n in range(dim)])
    kraus, an = [], np.eye(dim, dtype=LD)
    for h in range(dim):
        kraus.append(np.sqrt(1 - eta) ** h / np.sqrt(LD(math.factorial(h))) * (damp @ an))
        an = an @ a
    g = _ld_vacuum_projector(theta, dim)
    for lift in (lambda kh: np.kron(kh, one), lambda kv: np.kron(one, kv)):
        g = sum(lift(k).T @ g @ lift(k) for k in kraus)
    return g


def _ld_spdc_distribution(mu, ratio, eta_a, eta_b, angles, cutoff) -> np.ndarray:
    d = cutoff + 1
    mu, ratio = LD(mu), LD(ratio)
    at = _ld_lowering(d).T
    psi = np.zeros((d, d, d, d), dtype=LD)  # (a_H, a_V, b_H, b_V)
    psi[0, 0, 0, 0] = 1
    for m, axes in ((mu / (1 + ratio ** 2), (1, 3)), (ratio ** 2 * mu / (1 + ratio ** 2), (0, 2))):
        pair = np.kron(at, at).reshape(d, d, d, d)
        out, term = np.zeros_like(psi), psi
        for n in range(d):
            out += np.exp(-m / 2) * m ** (LD(n) / 2) / LD(math.factorial(n)) ** LD(1.5) * term
            term = np.tensordot(pair, term, axes=([2, 3], list(axes)))
            term = np.moveaxis(term, [0, 1], list(axes))
        psi = out
    psi = psi.reshape(d * d, d * d)
    one = np.eye(d * d, dtype=LD)
    eff_a = [(f, one - f) for f in (_ld_no_click_effect(t, eta_a, d) for t in angles.alice)]
    eff_b = [(f, one - f) for f in (_ld_no_click_effect(-t, eta_b, d) for t in angles.bob)]
    p = np.empty((2, 2, 4), dtype=LD)
    for x in range(2):
        for y in range(2):
            q = np.array([np.sum(psi * (ea @ psi @ eb.T))
                          for eb in eff_b[y] for ea in eff_a[x]])
            p[y, x] = q / q.sum()
    return p.ravel()


def _setups(cutoff: int, rng: np.random.Generator) -> list[tuple]:
    """The reference setup plus three random ones."""
    setups = [(SPDC_MU, SPDC_RATIO, SPDC_ETA_A, SPDC_ETA_B, spdc_reference_angles())]
    for _ in range(3):
        setups.append((SPDC_MU * rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.5),
                       rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0),
                       MeasurementAngles(tuple(rng.uniform(-np.pi, np.pi, 2)),
                                         tuple(rng.uniform(-np.pi, np.pi, 2)))))
    return setups


@long_double
def test_rotated_vacuum_projector_matches_rotation():
    # U^T (|0><0|_H x 1_V) U = R R^T with R[(j, N-j), N] the closed form,
    # against the eigendecomposed rotation and the long-double series; the
    # eigh-based projector is itself off by up to ~3e-15 at dims 6-8
    thetas = (0.0, math.pi / 2, -math.pi / 2, *np.deg2rad(SPDC_ANGLES_DEG))
    for dim in range(2, 9):
        n = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
        low = n < dim
        vacuum_h = np.zeros((dim, dim))
        vacuum_h[0, 0] = 1.0
        for theta in thetas:
            r = _rotated_vacuum([theta], dim)[0].ravel()
            R = np.zeros((dim * dim, dim))
            R[low, n[low]] = r[low]
            assert np.all(r[~low] == 0.0)
            u = _mode_rotation(theta, dim)
            assert np.max(np.abs(R @ R.T - u.T @ np.kron(vacuum_h, np.eye(dim)) @ u)) < 5e-15
            assert np.max(np.abs(R @ R.T - _ld_vacuum_projector(theta, dim))) < 1e-15


def test_loss_adjoint_closed_form_matches_kraus_product():
    for dim in range(1, 9):
        for eta in (0.0, 0.3, 0.5, 0.747, 0.9, 1.0):
            assert np.max(np.abs(_loss_adjoints([eta], dim)[0] - _loss_adjoint(eta, dim))) < 1e-15
    stacked = _loss_adjoints([0.3, 0.747, 0.3], 5)
    assert np.array_equal(stacked[0], stacked[2])
    assert np.array_equal(stacked[1], _loss_adjoints([0.747], 5)[0])


@long_double
def test_no_click_effect_matches_einsum_oracle():
    # the closed-form effects are at least as close to the long-double
    # reference as the einsum oracle's F and 1 - F, or within 1e-14
    thetas = (0.0, math.pi / 2, -math.pi / 2, *np.deg2rad(SPDC_ANGLES_DEG))
    for dim in range(2, 8):
        one = np.eye(dim * dim)
        for eta in (0.0, 0.3, 0.747, 1.0):
            for theta in thetas:
                ref = _ld_no_click_effect(theta, eta, dim)
                oracle = _oracle_no_click_effect(theta, eta, dim)
                # the closed form's layout is [(H, H'), (V, V')]
                new = [e[0].reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(one.shape)
                       for e in _effects([theta], [eta], dim)]
                for got, want, base in ((new[0], ref, oracle), (new[1], one - ref, one - oracle)):
                    err = float(np.max(np.abs(got - want)))
                    assert err <= max(float(np.max(np.abs(base - want))), 1e-14)


@long_double
def test_spdc_distribution_matches_einsum_oracle():
    # relative error per cell against the long-double reference, on the
    # reference setup and three random ones per cutoff
    rng = np.random.default_rng(8)
    for cutoff in range(1, 7):
        for setup in _setups(cutoff, rng):
            ref = _ld_spdc_distribution(*setup, cutoff)
            err, oracle_err = (float(np.max(np.abs(model(*setup, cutoff) - ref) / ref))
                               for model in (spdc_distribution, _oracle_spdc_distribution))
            assert err <= max(oracle_err, 1e-14)


@long_double
def test_spdc_small_cells_keep_their_digits():
    # a nearly pure |VV> source and a small analyzer angle: the click
    # probability of the one-photon states is ~sin^2 of the angle, so 1 - F
    # formed as a difference would leave ~6e-11 relative error on the
    # smallest cell (5.4e-11); the parent assembly was off by 5e-10
    setup = (3.7e-4, 0.005, 0.81, 0.61, MeasurementAngles((2.6, -2.48), (0.0073, 0.63)))
    for cutoff in (2, 4, 6):
        ref = _ld_spdc_distribution(*setup, cutoff)
        assert float(np.max(np.abs(spdc_distribution(*setup, cutoff) - ref) / ref)) < 1e-13


def test_fock_tables_are_cached_and_read_only():
    _fock_tables.cache_clear()
    for _ in range(3):
        for dim in (2, 3, 5):
            _effects((0.1, -0.4), (0.7, 0.9), dim)
    info = _fock_tables.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    for dim in (2, 3, 5):
        tables = _fock_tables(dim)
        assert tables and all(not t.flags.writeable for t in tables.values())
        with pytest.raises(ValueError):
            tables["others"][0, 0] = 1.0


def _comprehension_pair_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: vac_pairs and loss_pairs as the comprehensions that listed them
    before the index-array form."""
    n = range(dim)
    vac = [(j * dim + m, jj * dim + mm, ((j * dim + jj) * dim + m) * dim + mm)
           for j in n for jj in n for m in n for mm in n if j + m == jj + mm < dim]
    loss = [(k * dim + i, m * dim + p, ((k * dim + m) * dim + i) * dim + p)
            for k in n for m in n for i in n for p in n if k - i == m - p >= 0]
    return np.array(vac).T, np.array(loss).T


def test_fock_pair_tables_match_comprehensions():
    for dim in range(1, 10):
        vac, loss = _comprehension_pair_tables(dim)
        tables = _fock_tables(dim)
        assert np.array_equal(tables["vac_pairs"], vac)
        assert np.array_equal(tables["loss_pairs"], loss)


def test_spdc_parameter_validation():
    with pytest.raises(ValueError):
        spdc_distribution(mu=-1e-4)
    with pytest.raises(ValueError):
        spdc_distribution(eta_a=1.5)
    with pytest.raises(ValueError):
        spdc_distribution(ratio=-0.1)
    with pytest.raises(ValueError):
        spdc_distribution(cutoff=0)


@pytest.mark.parametrize("name", ["mu", "ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spdc_rejects_non_finite_parameters(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        spdc_distribution(**{name: value})


@pytest.mark.parametrize("name", ["lam", "visibility"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nv_rejects_non_finite_parameters(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        nv_distribution(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        two_qubit_state(**{"lam": 0.0, "visibility": 1.0, name: value})


@pytest.mark.parametrize("mu", [1400.0, 2000.0, 1e300])
def test_spdc_rejects_a_mean_pair_number_without_representable_amplitudes(mu):
    # every truncated amplitude underflows (or overflows to nan), so each
    # block would be 0/0
    with pytest.raises(ValueError, match=rf"^mu = {re.escape(str(mu))} .* cutoff 4"):
        with np.errstate(over="ignore", invalid="ignore"):
            spdc_distribution(mu=mu)


def test_spdc_rejects_a_huge_mu_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^mu = 1e\+300 .* cutoff 4"):
            spdc_distribution(mu=1e300)


@pytest.mark.parametrize("ratio", [1e200, np.float64(1e200)])
def test_spdc_rejects_a_ratio_whose_square_overflows(ratio):
    with pytest.raises(ValueError, match=r"^ratio = 1e\+200 .* overflows"):
        spdc_distribution(ratio=ratio)


def test_spdc_large_finite_parameters_still_compute():
    for kwargs in ({"mu": 500.0}, {"ratio": 1e150}, {"mu": 0.5, "ratio": 1e154}):
        p = spdc_distribution(**kwargs)
        assert np.all(np.isfinite(p)) and np.min(p) >= 0.0


def test_spdc_angles_default():
    ang = spdc_reference_angles()
    assert ang.alice == pytest.approx((math.radians(-4.2), math.radians(25.9)))
    assert ang.bob == pytest.approx((math.radians(-4.2), math.radians(25.9)))
