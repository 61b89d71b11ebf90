"""First-principles source models for the two simulated loophole-free setups.

``nv_distribution``: a deterministic entangled-spin-pair source (NV-center
style).  A partially entangled two-qubit state is rotated per setting and
read out by noisy Z projectors.

``spdc_distribution``: a nondeterministic photon-pair source.  Two truncated
parametric pair-creation operators populate the H/V polarization modes of
two parties.  Each party's measurement is a polarization rotation followed
by a click/no-click detector on its H mode (1 = detection); photon loss on
every mode is folded into that detector as an effect in the Heisenberg
picture, so the state never carries environment modes (detector
inefficiency as loss: Eberhard, PRA 47, R747 (1993)).

Both models return exactly nonsignaling, normalized behaviors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import DIM, vector_index

# --- deterministic spin-pair source ---------------------------------------

#: state and readout parameters of the reference electron-spin experiment
NV_LAMBDA = 0.022
NV_VISIBILITY = 0.873
NV_ETA = (0.954, 0.994, 0.939, 0.998)  # (eta+_A, eta-_A, eta+_B, eta-_B)
NV_EPSILON = 0.026 * math.pi
#: maximal-violation angles; the party carrying the +-(3pi/4 + eps) pair is
#: the one printed on the block rows of the reference behavior
NV_ANGLES = (
    (-0.75 * math.pi - NV_EPSILON, 0.75 * math.pi + NV_EPSILON),
    (0.0, 0.5 * math.pi),
)


@dataclass(frozen=True)
class ReadoutModel:
    """Per-party bright/dark readout fidelities.

    The outcome-0 effect is eta_plus P_up + (1 - eta_minus) P_down, its
    complement the outcome-1 effect; both stay positive for fidelities in
    [0, 1].
    """

    eta_plus_a: float = NV_ETA[0]
    eta_minus_a: float = NV_ETA[1]
    eta_plus_b: float = NV_ETA[2]
    eta_minus_b: float = NV_ETA[3]

    def __post_init__(self):
        for f in (self.eta_plus_a, self.eta_minus_a, self.eta_plus_b, self.eta_minus_b):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"readout fidelity {f} outside [0, 1]")

    def effects(self, party: str) -> tuple[np.ndarray, np.ndarray]:
        if party == "A":
            ep, em = self.eta_plus_a, self.eta_minus_a
        elif party == "B":
            ep, em = self.eta_plus_b, self.eta_minus_b
        else:
            raise ValueError(f"unknown party {party!r}")
        pi0 = np.diag([ep, 1.0 - em])
        return pi0, np.eye(2) - pi0

    def symmetrized(self) -> "ReadoutModel":
        """Outcome-flip-symmetric idealization (equal bright/dark fidelity)."""
        fa = 0.5 * (self.eta_plus_a + self.eta_minus_a)
        fb = 0.5 * (self.eta_plus_b + self.eta_minus_b)
        return ReadoutModel(fa, fa, fb, fb)


@dataclass(frozen=True)
class MeasurementAngles:
    """Per-party measurement rotation angles (radians), one per setting."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        if len(self.alice) != 2 or len(self.bob) != 2:
            raise ValueError("need two angles per party")
        for t in (*self.alice, *self.bob):
            if not np.isfinite(t):
                raise ValueError("angles must be finite")


def two_qubit_state(lam: float, visibility: float) -> np.ndarray:
    """The partially entangled spin-pair density matrix.

    Diagonal (lam, 1-lam, 1-lam, lam)/2 with coherence ``visibility`` between
    the antiparallel components; positivity requires |V| <= 1 - lam.
    """
    rho = 0.5 * np.array([
        [lam, 0.0, 0.0, 0.0],
        [0.0, 1.0 - lam, visibility, 0.0],
        [0.0, visibility, 1.0 - lam, 0.0],
        [0.0, 0.0, 0.0, lam],
    ])
    eig = np.linalg.eigvalsh(rho)
    if eig[0] < -1e-10:
        raise ValueError(f"state parameters give a negative eigenvalue {eig[0]:g}")
    return rho


def _ry(theta: float) -> np.ndarray:
    """Real single-qubit rotation exp(-i theta sigma_y / 2)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def nv_distribution(lam: float = NV_LAMBDA,
                    visibility: float = NV_VISIBILITY,
                    readout: ReadoutModel | None = None,
                    angles: MeasurementAngles | None = None) -> np.ndarray:
    """Behavior of the spin-pair setup: p(ab|xy) = Tr[(Pi_a x Pi_b) R rho R+].

    The per-setting rotation acts in the X-Z plane; Bob's rotation runs in
    the mirrored sense, which together with the reference angles reproduces
    the published behavior (singlet-like correlators -cos(thA - thB)).
    """
    readout = readout or ReadoutModel()
    angles = angles or MeasurementAngles(*NV_ANGLES)
    rho = two_qubit_state(lam, visibility)
    pia = readout.effects("A")
    pib = readout.effects("B")
    p = np.empty(DIM)
    for x in range(2):
        ra = _ry(angles.alice[x])
        for y in range(2):
            rb = _ry(-angles.bob[y])  # mirrored rotation sense on Bob's side
            r = np.kron(ra, rb)
            rotated = r @ rho @ r.T
            for a in range(2):
                for b in range(2):
                    val = float(np.trace(np.kron(pia[a], pib[b]) @ rotated))
                    p[vector_index(a, b, x, y)] = val
    return p


def nv_symmetric_distribution() -> np.ndarray:
    """Output-flip-symmetric idealization: perfect readout, reference state/angles."""
    return nv_distribution(readout=ReadoutModel(1.0, 1.0, 1.0, 1.0))


# --- nondeterministic photon-pair source -----------------------------------

#: parameters of the reference photon-pair experiment.  The mean pair number
#: is pinned by the published behavior and its run statistics (the quoted
#: 4e-4 does not reproduce them; 5e-4 reproduces every published figure).
SPDC_MU = 5e-4
SPDC_RATIO = 0.288
SPDC_ETA_A = 0.747
SPDC_ETA_B = 0.756
SPDC_ANGLES_DEG = (-4.2, 25.9, -4.2, 25.9)  # (A0, A1, B0, B1)
SPDC_CUTOFF = 4


def spdc_reference_angles() -> MeasurementAngles:
    a0, a1, b0, b1 = np.deg2rad(SPDC_ANGLES_DEG)
    return MeasurementAngles((a0, a1), (b0, b1))


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


def _mode_rotation(theta: float, dim: int) -> np.ndarray:
    """Two-mode polarization rotation U with U+ a_H U = cos a_H + sin a_V,
    exp(theta G) from the eigendecomposition of the Hermitian -iG."""
    a = _lowering(dim)
    at = a.T
    gen = np.kron(at, a) - np.kron(a, at)
    w, v = np.linalg.eigh(-1j * gen)
    return ((v * np.exp(1j * theta * w)) @ v.conj().T).real


def _apply_pair(op: np.ndarray, psi: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    d = psi.shape[0]
    op4 = op.reshape(d, d, d, d)
    out = np.tensordot(op4, psi, axes=([2, 3], list(axes)))
    return np.moveaxis(out, [0, 1], list(axes))


def _no_click_effect(theta: float, eta: float, dim: int) -> np.ndarray:
    """One party's no-click effect on its (H, V) modes: loss of transmission
    ``eta`` on both modes, the rotation U, then H-mode vacuum,
    F = sum_{kH,kV} (K_kH x K_kV)^T U^T (|0><0|_H x 1_V) U (K_kH x K_kV)
    with loss Kraus operators K_n = (1-eta)^(n/2)/sqrt(n!) eta^(N/2) a^n."""
    a = _lowering(dim)
    damp = np.diag(eta ** (np.arange(dim) / 2.0))
    kraus, an = [], np.eye(dim)
    for n in range(dim):
        kraus.append(((1.0 - eta) ** (n / 2.0) / math.sqrt(math.factorial(n))) * (damp @ an))
        an = an @ a
    u = _mode_rotation(theta, dim)
    vacuum_h = np.zeros((dim, dim))
    vacuum_h[0, 0] = 1.0
    g = u.T @ np.kron(vacuum_h, np.eye(dim)) @ u
    out = np.zeros_like(g)
    for k_h in kraus:
        for k_v in kraus:
            k = np.kron(k_h, k_v)
            out += k.T @ g @ k
    return out


def spdc_distribution(mu: float = SPDC_MU,
                      ratio: float = SPDC_RATIO,
                      eta_a: float = SPDC_ETA_A,
                      eta_b: float = SPDC_ETA_B,
                      angles: MeasurementAngles | None = None,
                      cutoff: int = SPDC_CUTOFF) -> np.ndarray:
    """Behavior of the photon-pair setup.

    ``mu`` is the total mean pair number, split as mu_V = mu/(1+r^2) and
    mu_H = r^2 mu/(1+r^2) over the two polarizations (r = ``ratio``), so the
    pair amplitude is r|HH> + |VV> up to normalization.  ``eta_a``/``eta_b``
    are the per-party transmissions applied to every mode.  Fock spaces are
    truncated at ``cutoff`` photons per mode.

    Each cell is p(ab|xy) = <psi| E_a x E_b |psi> with E_0 the party's
    no-click effect (loss, rotation, H-mode vacuum) and E_1 = 1 - E_0; the
    four cells of a block are normalized by their sum.
    """
    if mu < 0.0:
        raise ValueError("mean pair number must be nonnegative")
    if ratio < 0.0:
        raise ValueError("amplitude ratio must be nonnegative")
    for eta in (eta_a, eta_b):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmission {eta} outside [0, 1]")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1 photon")
    angles = angles or spdc_reference_angles()

    d = cutoff + 1
    mu_v = mu / (1.0 + ratio ** 2)
    mu_h = ratio ** 2 * mu / (1.0 + ratio ** 2)

    # state tensor axes: (a_H, a_V, b_H, b_V)
    psi = np.zeros((d, d, d, d))
    psi[0, 0, 0, 0] = 1.0
    psi = _apply_pair(_pair_source(mu_v, d), psi, (1, 3))
    psi = _apply_pair(_pair_source(mu_h, d), psi, (0, 2))
    psi = psi.reshape(d * d, d * d)  # rows (a_H, a_V), columns (b_H, b_V)

    # relative rotation sense between the parties is fixed by the reference
    # behavior: the V->H leakage must interfere destructively with the HH
    # pair amplitude at the (1,1) settings
    one = np.eye(d * d)
    eff_a = [(f, one - f) for f in (_no_click_effect(t, eta_a, d) for t in angles.alice)]
    eff_b = [(f, one - f) for f in (_no_click_effect(-t, eta_b, d) for t in angles.bob)]

    p = np.empty(DIM)
    for x in range(2):
        for y in range(2):
            q = np.array([np.sum(psi * (ea @ psi @ eb))
                          for eb in eff_b[y] for ea in eff_a[x]])
            q /= q.sum()
            for a in range(2):
                for b in range(2):
                    p[vector_index(a, b, x, y)] = q[a + 2 * b]
    return p
