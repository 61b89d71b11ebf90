"""Hypothesis strategies shared by several test files."""

import functools

import numpy as np
from hypothesis import strategies as st

from bellopt import boxes
from bellopt.sources import nv_distribution, spdc_distribution

#: how far an accepted behavior's cells and block sums are moved, inside BEHAVIOR_TOL = 1e-9
NEAR_TOL = 9e-10


@functools.lru_cache(maxsize=None)
def _models() -> dict:
    return {"photon pair": spdc_distribution(), "spin pair": nv_distribution()}


@st.composite
def accepted_behaviors(draw) -> np.ndarray:
    """Behaviors that ``check_distribution`` accepts at ``BEHAVIOR_TOL`` only
    as rounding: a random nonsignaling behavior or one of the two model
    behaviors, with one cell set to a value down to -9e-10 (its mass moved to
    the largest other cell of its block) and each block's sum moved by an
    offset in +-9e-10 (added to the block's largest cell)."""
    kind = draw(st.sampled_from(["nonsignaling", "photon pair", "spin pair"]))
    if kind == "nonsignaling":
        p = boxes.random_nonsignaling(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        p = _models()[kind]
    blocks = p.reshape(4, 4).copy()
    b, cell = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    depth = draw(st.floats(0.0, NEAR_TOL))
    other = max((k for k in range(4) if k != cell), key=lambda k: blocks[b, k])
    blocks[b, other] += blocks[b, cell] + depth
    blocks[b, cell] = -depth
    offsets = draw(st.lists(st.floats(-NEAR_TOL, NEAR_TOL), min_size=4, max_size=4))
    blocks[np.arange(4), blocks.argmax(axis=1)] += offsets
    return blocks.ravel()
