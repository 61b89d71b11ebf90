"""The 128-element relabeling group of the (2,2,2) scenario.

A relabeling may swap the two parties, permute each party's settings, and
permute each party's outcomes separately per setting.  Group elements are
kept in that structured form; their linear action on 16-vectors is the
induced coordinate permutation.

Composition follows the tree-transformation reading of nested (wreath)
permutations: ``compose(g, h)`` applies ``h`` first, then ``g``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .space import DIM, _A, _B, _X, _Y, Subspace, projector, vector_index

_PERMS2 = ((0, 1), (1, 0))  # the two permutations of {0, 1}
_OUTCOME_PERMS = tuple(itertools.product(_PERMS2, repeat=2))


def _perm_compose(p: tuple, q: tuple) -> tuple:
    """(p after q): x -> p[q[x]]."""
    return (p[q[0]], p[q[1]])


@dataclass(frozen=True)
class PartyRelabeling:
    """One party's relabeling: a setting permutation plus one outcome
    permutation per (original) setting."""

    setting_perm: tuple = (0, 1)
    outcome_perms: tuple = ((0, 1), (0, 1))

    def __post_init__(self):
        # anything else would make the action on 16-vectors a non-permutation
        if self.setting_perm not in _PERMS2 or self.outcome_perms not in _OUTCOME_PERMS:
            raise ValueError(f"not a relabeling of two settings and two outcomes: {self!r}")

    def apply(self, a, x):  # ints or index arrays
        return np.asarray(self.outcome_perms)[x, a], np.asarray(self.setting_perm)[x]

    def compose(self, other: "PartyRelabeling") -> "PartyRelabeling":
        """self after other."""
        return PartyRelabeling(
            _perm_compose(self.setting_perm, other.setting_perm),
            tuple(
                _perm_compose(self.outcome_perms[other.setting_perm[x]], other.outcome_perms[x])
                for x in range(2)
            ),
        )


@dataclass(frozen=True)
class Relabeling:
    """A full scenario relabeling: optional party swap plus per-party data.

    With a swap, the new Alice labels are produced by the Bob component
    applied to the old Bob labels (and vice versa): the per-party components
    are indexed by the slot the content comes from.
    """

    party_swap: bool = False
    alice: PartyRelabeling = PartyRelabeling()
    bob: PartyRelabeling = PartyRelabeling()

    def apply_labels(self, a, b, x, y):
        new_a, new_x = self.alice.apply(a, x)
        new_b, new_y = self.bob.apply(b, y)
        if self.party_swap:
            return new_b, new_a, new_y, new_x
        return new_a, new_b, new_x, new_y

    def compose(self, other: "Relabeling") -> "Relabeling":
        """self after other (tree semantics: apply ``other`` first)."""
        # the component of ``self`` seen by content starting at party M is the
        # one at the slot ``other`` sends M to
        if other.party_swap:
            comp_a = self.bob.compose(other.alice)
            comp_b = self.alice.compose(other.bob)
        else:
            comp_a = self.alice.compose(other.alice)
            comp_b = self.bob.compose(other.bob)
        return Relabeling(self.party_swap != other.party_swap, comp_a, comp_b)


IDENTITY = Relabeling()


@functools.lru_cache(maxsize=None)
def permutation_of(g: Relabeling) -> np.ndarray:
    """Index permutation of the action: entry i of v lands at perm[i] in v^g."""
    perm = vector_index(*g.apply_labels(_A, _B, _X, _Y))
    perm.flags.writeable = False
    return perm


def act(g: Relabeling, v) -> np.ndarray:
    """The relabeled vector v^g (a pure coordinate permutation)."""
    arr = np.asarray(v, dtype=float)
    out = np.empty_like(arr)
    out[permutation_of(g)] = arr
    return out


def matrix_of(g: Relabeling) -> np.ndarray:
    """16x16 permutation matrix M with M @ v == act(g, v)."""
    M = np.zeros((DIM, DIM))
    M[permutation_of(g), np.arange(DIM)] = 1.0
    return M


@functools.lru_cache(maxsize=1)
def enumerate_group() -> tuple[Relabeling, ...]:
    """All 128 relabelings: 2 (swap) x 8 x 8 (per-party components)."""
    parts = [PartyRelabeling(sp, op) for sp in _PERMS2 for op in _OUTCOME_PERMS]
    return tuple(
        Relabeling(swap, ga, gb)
        for swap in (False, True) for ga in parts for gb in parts
    )


#: the six blocks that the group leaves invariant (party swap mixes the A/B
#: halves of the marginal and signaling pieces, so those count as one block)
INVARIANT_BLOCKS = (
    Subspace.NO1, Subspace.NO2, Subspace.NO3,
    Subspace.MARG, Subspace.CORR, Subspace.SI,
)


def _elements(elements) -> tuple:
    return enumerate_group() if elements is None else tuple(elements)


def _compose_codes(g, k):
    """Codes of ``g.compose(k)`` for broadcast code arrays.  An element's code is
    its position in ``enumerate_group()``; its seven bits are the party swap,
    then per party the setting flip and the outcome flips at settings 0 and 1.
    As in ``Relabeling.compose``, a swap in ``k`` exchanges the party components
    of ``g``, a setting flip in ``k`` exchanges that party's outcome flips in
    ``g``, and then all flips compose by XOR."""
    g = np.where(k & 0b1000000, g & 0b1000000 | (g & 0b111) << 3 | g >> 3 & 0b111, g)
    read = ((k & 0b0100100) >> 2) * 0b11  # outcome bits of the parties whose setting k flips
    exchanged = (g & 0b0001001) << 1 | (g & 0b0010010) >> 1
    return (g & ~read | exchanged & read) ^ k


@functools.lru_cache(maxsize=4)
def _composition_table(elements: tuple) -> np.ndarray:
    """Entry (g, k) is the position of ``g.compose(k)`` in ``elements``, or -1
    when the composite is not among them: the encoded composition of every
    pair at once, that every group check reads."""
    code = {g: i for i, g in enumerate(enumerate_group())}
    codes = np.array([code[g] for g in elements], dtype=np.int64)
    position = np.full(len(code), -1)
    position[codes] = np.arange(len(codes))
    table = position[_compose_codes(codes[:, None], codes)]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _pair_images(elements: tuple) -> np.ndarray:
    """Row g holds the image pi_g(i) * DIM + pi_g(j) of each index pair
    i * DIM + j under the action of g on 16x16 matrices."""
    perms = np.stack([permutation_of(g) for g in elements])
    images = (perms[:, :, None] * DIM + perms[:, None, :]).reshape(len(perms), DIM * DIM)
    images.flags.writeable = False
    return images


def verify_invariance(block: Subspace, elements=None) -> bool:
    """Check that acting with every group element keeps the block inside itself.

    The block is invariant under a permutation iff its orthogonal projector
    commutes with it, i.e. P[pi_g(i), pi_g(j)] == P[i, j].  The entries of P
    are multiples of 1/16, so the comparison is exact.
    """
    P = projector(block).ravel()
    return bool(np.all(P[_pair_images(_elements(elements))] == P))


def invariance_report(elements=None) -> dict:
    return {block.value: verify_invariance(block, elements) for block in INVARIANT_BLOCKS}


def averaging_projector(elements=None) -> np.ndarray:
    """Group average of the action matrices; projects onto the trivial component."""
    return np.mean([matrix_of(g) for g in _elements(elements)], axis=0)


def commutant_dimension(elements=None) -> int:
    """Dimension of {M : M A_g = A_g M for all g}, by an exact orbit count.

    For a permutation action, M commutes with A_g iff
    M[pi_g(i), pi_g(j)] = M[i, j], so M is constant on the orbits of the 256
    index pairs (i, j) under the group the elements generate, and free across
    them: the dimension is the number of orbits.  Each pair takes the smallest
    pair index reachable from it; a permutation's inverse is one of its
    powers, so reachability is the orbit even when ``elements`` is not a
    whole group.  Equals the number of irreducible components when the
    representation is multiplicity-free.
    """
    images = _pair_images(_elements(elements))
    label = np.arange(DIM * DIM)
    while True:
        nxt = np.minimum(label, label[images].min(axis=0))
        if np.array_equal(nxt, label):  # an orbit's smallest pair alone keeps its own label
            return int(np.count_nonzero(label == np.arange(DIM * DIM)))
        label = nxt


def cayley_checksum(elements=None) -> str:
    """SHA-256 of the composition table in canonical element order, each
    entry a big-endian 16-bit position."""
    table = _composition_table(_elements(elements))
    if np.any(table < 0):
        raise ValueError("the elements are not closed under composition")
    import hashlib  # only this check hashes: no other command pays for the import
    return hashlib.sha256(table.astype(">u2").tobytes()).hexdigest()


def group_axioms_hold(elements=None) -> bool:
    """Exhaustive closure / identity / inverse check, plus action consistency,
    all read off the composition table."""
    elements = _elements(elements)
    if IDENTITY not in elements or len(set(elements)) != len(elements):
        return False
    table = _composition_table(elements)
    if np.any(table < 0):
        return False
    e = elements.index(IDENTITY)
    # g has a two-sided inverse k: g k = e and k g = e
    if not np.all(np.any((table == e) & (table.T == e), axis=1)):
        return False
    # the action is a homomorphism: pi_{g k} = pi_g o pi_k on every pair
    perms = np.stack([permutation_of(g) for g in elements]).astype(np.uint8)
    return bool(np.array_equal(perms[table], perms[:, perms]))
