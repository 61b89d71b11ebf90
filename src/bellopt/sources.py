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
inefficiency as loss: Eberhard, PRA 47, R747 (1993)).  All of it is in
closed form, for the four party-settings at once: the state is diagonal in
the pair-number basis, the rotated H-vacuum projector is rank one on each
photon-number block, the loss adjoint is one binomial (d^2, d^2) matrix per
party, and the 16 cells s^T (E_a o E_b) s are one matrix product.

Both models return exactly nonsignaling, normalized behaviors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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
    for name, value in (("lam", lam), ("visibility", visibility)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    The effects are rotated into the Heisenberg picture, R_x^T Pi_a R_x, and
    the 16 cells are one contraction of both effect stacks with rho.
    """
    readout = readout or ReadoutModel()
    angles = angles or MeasurementAngles(*NV_ANGLES)
    rho = two_qubit_state(lam, visibility).reshape(2, 2, 2, 2)  # [i, k, j, l], A on i, j
    # party-settings A0 A1 B0 B1, with the mirrored sense on Bob's side
    r = np.stack([_ry(t) for t in (*angles.alice, *(-t for t in angles.bob))])[:, None]
    e = r.transpose(0, 1, 3, 2) @ np.stack([readout.effects(party) for party in "AABB"]) @ r
    return np.einsum("xaij,ybkl,jlik->yxba", e[:2], e[2:], rho).ravel()  # e: [x, a, i, j]


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


@functools.lru_cache(maxsize=None)
def _fock_tables(dim: int) -> dict[str, np.ndarray]:
    """Read-only tables of one party's (H, V) modes, each truncated at ``dim``
    photons, built once per ``dim``.  A party index (j, m) holds j H and m V
    photons, N = j + m; a one-mode loss keeps i of k photons.  ``vac_pairs``
    and ``loss_pairs`` list (row, column, position) of the nonzero entries of
    r r^T (equal N < dim) and of the loss adjoint (k - i = m - p), in order."""
    n = range(dim)
    tot = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    g = np.indices((dim,) * 4).reshape(4, -1)  # entry [(g0, g2), (g1, g3)]: (j, j', m, m')
    pairs = np.stack([g[0] * dim + g[2], g[1] * dim + g[3], np.arange(dim ** 4)])
    vac = (g[0] + g[2] == g[1] + g[3]) & (g[0] + g[2] < dim)
    loss = (g[0] - g[2] == g[1] - g[3]) & (g[0] >= g[2])  # g read as (k, m, i, p)
    tables = {
        "sqrt_fact": np.sqrt([float(math.factorial(k)) for k in n]),
        "vac_binom": np.sqrt([[math.comb(j + m, j) if j + m < dim else 0 for m in n] for j in n]),
        "vac_pairs": pairs[:, vac],
        "others": (tot[:, None] == tot) - np.eye(dim * dim),  # equal N, other index
        "high_n": (tot >= dim).astype(float),  # N >= dim
        "binom": np.sqrt([[float(math.comb(k, i)) for i in n] for k in n]),
        "lost": np.maximum(np.subtract.outer(np.arange(dim), np.arange(dim)), 0),  # k - i
        "loss_pairs": pairs[:, loss],
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _pair_products(v: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """(len(v), n, n) matrices, zero but for v[a] v[b] at each listed pair."""
    a, b, position = pairs
    out = np.zeros((v.shape[0], n * n))
    out[:, position] = v[:, a] * v[:, b]
    return out.reshape(-1, n, n)


def _rotated_vacuum(thetas, dim: int) -> np.ndarray:
    """The rotated H-vacuum states U^T |0, N>, N < dim, of each polarization
    rotation angle (U+ a_H U = cos a_H + sin a_V), as one (dim, dim) array
    per angle: r[j, m] = sqrt(C(j+m, j)) cos^m (-sin)^j, 0 where j + m >= dim."""
    th = np.asarray(thetas, dtype=float)[:, None, None]
    n = np.arange(dim)
    return _fock_tables(dim)["vac_binom"] * (-np.sin(th)) ** n[:, None] * np.cos(th) ** n


def _loss_adjoints(etas, dim: int) -> np.ndarray:
    """The adjoint of a one-mode loss channel of each transmission ``eta``, as
    a (dim^2, dim^2) matrix on the index pair (X, X') of an operator,
    L[(k, m), (i, p)] = K[k, i] K[m, p] if k - i = m - p, else 0, where
    K[k, i] = sqrt(C(k, i)) eta^(i/2) (1-eta)^((k-i)/2) is the amplitude of
    keeping i of k photons: the Kraus sum in closed form.  Shape
    (len(etas), dim^2, dim^2)."""
    t = _fock_tables(dim)
    eta = np.asarray(etas, dtype=float)[:, None, None]
    kept = t["binom"] * np.sqrt(eta) ** np.arange(dim) * np.sqrt(1.0 - eta) ** t["lost"]
    return _pair_products(kept.reshape(len(etas), -1), t["loss_pairs"], dim * dim)


def _effects(thetas, etas, dim: int) -> np.ndarray:
    """The no-click and click effects of each (angle, transmission) pair on a
    party's modes, shape (2, len(thetas), dim^2, dim^2) (outcome first), each
    with rows (H, H') and columns (V, V'): entry [(j, j'), (m, m')] is
    <j, m| E |j', m'>.

    No click is loss on both modes, the rotation, then H-mode vacuum,
    F = L_H L_V (U^T (|0><0|_H x 1_V) U): the rotated projector is r r^T on
    pairs of equal N, and L_H acts on the rows, L_V on the columns.  The
    click effect is 1 - F, with each Fock state's click probability computed
    as the lossy population of the rotated click projector, whose diagonal
    is the sum of the other r^2 of its block (1 - F_ii would lose digits
    where F_ii is near 1)."""
    t = _fock_tables(dim)
    k, n = len(thetas), dim * dim
    r = _rotated_vacuum(thetas, dim).reshape(k, n)
    loss = _loss_adjoints(etas, dim)
    g = loss @ _pair_products(r, t["vac_pairs"], n)  # L_H on the rows
    e = np.empty((2, k, n, n))
    np.matmul(g, loss.transpose(0, 2, 1), out=e[0])  # L_V on the columns
    np.negative(e[0], out=e[1])
    pop = (r * r @ t["others"] + t["high_n"]).reshape(k, dim, dim)
    ii = np.arange(dim) * (dim + 1)  # one-mode index pairs (i, i)
    transfer = loss[:, ii[:, None], ii]  # K[k, i]^2
    e[1][:, ii[:, None], ii] = transfer @ pop @ transfer.transpose(0, 2, 1)
    return e


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

    Each pair puts one photon of a mode with each party, so the state is
    psi = sum_i s_i |i>_A |i>_B over i = (n_H, n_V), with s_i = c(mu_H, n_H)
    c(mu_V, n_V) and c(mu, n) = e^(-mu/2) mu^(n/2)/sqrt(n!).  Each cell
    <psi| E_a x E_b |psi> = s^T (E_a o E_b) s (o elementwise), with E_0 the
    party's no-click effect and E_1 = 1 - E_0; each block is normalized by
    its sum.
    """
    for name, value in (("mu", mu), ("ratio", ratio)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    for eta in (eta_a, eta_b):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmission {eta} outside [0, 1]")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1 photon")
    angles = angles or spdc_reference_angles()

    r2 = float(ratio) * float(ratio)
    if math.isinf(r2):
        raise ValueError(f"ratio = {ratio} is too large: ratio**2 overflows")

    d = cutoff + 1
    mu_v = mu / (1.0 + r2)
    mu_h = r2 * mu / (1.0 + r2)
    n = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge mu is rejected below
        c_h, c_v = (math.exp(-m / 2.0) * m ** (n / 2.0) / _fock_tables(d)["sqrt_fact"]
                    for m in (mu_h, mu_v))
    ss = np.outer(np.outer(c_h, c_h), np.outer(c_v, c_v)).ravel()  # s_i s_i' at [(j, j'), (m, m')]

    # relative rotation sense between the parties is fixed by the reference
    # behavior: the V->H leakage must interfere destructively with the HH
    # pair amplitude at the (1,1) settings
    thetas = (*angles.alice, *(-t for t in angles.bob))
    # [outcome, party-setting A0 A1 B0 B1, (j, j', m, m')]
    e = _effects(thetas, (eta_a, eta_a, eta_b, eta_b), d).reshape(2, 4, -1)
    q = (e[:, :2] * ss).reshape(4, -1) @ e[:, 2:].reshape(4, -1).T  # [(a, x), (b, y)]
    q = q.reshape(2, 2, 2, 2).transpose(3, 1, 2, 0)  # [y, x, b, a]
    total = q.sum(axis=(2, 3), keepdims=True)
    if not np.all(total > 0.0):  # every amplitude underflowed, or overflowed to nan
        raise ValueError(f"mu = {mu} leaves no pair amplitude the model can represent at "
                         f"cutoff {cutoff}: a setting block sums to {total.min():g}")
    return (q / total).ravel()
