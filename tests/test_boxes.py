"""Reference behaviors against their per-cell definitions."""

import itertools

import numpy as np

from bellopt import boxes
from bellopt.space import ATOL_EXACT, DIM, is_distribution, is_nonsignaling, vector_index

CELLS = list(itertools.product(range(2), repeat=4))  # (a, b, x, y)


def _from_cells(cell) -> np.ndarray:
    v = np.empty(DIM)
    for a, b, x, y in CELLS:
        v[vector_index(a, b, x, y)] = cell(a, b, x, y)
    return v


def test_boxes_match_their_cell_formulas(rng):
    e = rng.uniform(-1.0, 1.0, size=(2, 2))
    tsirelson = [[1.0 / boxes.SQRT2, 1.0 / boxes.SQRT2], [1.0 / boxes.SQRT2, -1.0 / boxes.SQRT2]]
    cases = [
        (boxes.biased_marginal_box(0.3), lambda a, b, x, y: 0.5 * (0.3 if b == 0 else 1.0 - 0.3)),
        (boxes.setting_copy_box(), lambda a, b, x, y: 0.5 * (b == x)),
        (boxes.shared_coin_box(), lambda a, b, x, y: 0.5 * (a == b)),
        (boxes.pr_box(), lambda a, b, x, y: 0.5 * ((a + b) % 2 == (x * y) % 2)),
        (boxes.tsirelson_box(), lambda a, b, x, y: 0.25 * (1.0 + (-1.0) ** (a + b) * tsirelson[x][y])),
        (boxes.correlator_box(e), lambda a, b, x, y: 0.25 * (1.0 + (-1.0) ** (a + b) * e[x, y])),
    ]
    for box, cell in cases:
        assert np.array_equal(box, _from_cells(cell))


def test_vertices_match_their_cell_formulas():
    for (f0, f1, g0, g1), v in zip(itertools.product(range(2), repeat=4), boxes.local_vertices()):
        f, g = (f0, f1), (g0, g1)
        assert np.array_equal(v, _from_cells(lambda a, b, x, y: float(a == f[x] and b == g[y])))
    for (al, be, ga), v in zip(itertools.product(range(2), repeat=3), boxes.pr_box_vertices()):
        assert np.array_equal(v, _from_cells(
            lambda a, b, x, y: 0.5 * (b == (a + x * y + al * x + be * y + ga) % 2)))


def test_random_nonsignaling_mixes_the_vertex_table():
    # one Dirichlet weight per vertex against the read-only (24, 16) table;
    # the old per-call sum of weighted vertices agrees to rounding
    table = boxes._NS_VERTICES
    assert table.shape == (24, DIM) and not table.flags.writeable
    assert np.array_equal(table, np.array(boxes.nonsignaling_vertices()))
    for seed in range(20):
        p = boxes.random_nonsignaling(np.random.default_rng(seed))
        w = np.random.default_rng(seed).dirichlet(np.ones(24))
        assert np.max(np.abs(p - np.sum([wi * v for wi, v in zip(w, table)], axis=0))) < 1e-15
        assert is_distribution(p, tol=ATOL_EXACT) and is_nonsignaling(p)
