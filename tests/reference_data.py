"""Published reference values used across the test suite.

The two behavior matrices are stored in the display layout (rows (x, a),
columns (y, b)) exactly as published: two decimals for the spin-pair setup,
two significant figures for the photon-pair setup.
"""

import numpy as np

# spin-pair behavior (two-decimal print)
P1_DISPLAY = [
    [0.39, 0.09, 0.35, 0.13],
    [0.08, 0.44, 0.12, 0.40],
    [0.39, 0.09, 0.10, 0.38],
    [0.08, 0.44, 0.37, 0.15],
]

# photon-pair behavior (two significant figures), by setting block
P2_BLOCKS = {
    (0, 0): {"00": 1 - 4.0e-5, "01": 1.0e-5, "10": 9.7e-6, "11": 2.0e-5},
    (0, 1): {"00": 1 - 9.8e-5, "01": 6.7e-5, "10": 8.7e-6, "11": 2.2e-5},
    (1, 0): {"00": 1 - 9.8e-5, "01": 8.3e-6, "10": 6.8e-5, "11": 2.2e-5},
    (1, 1): {"00": 1 - 1.8e-4, "01": 9.0e-5, "10": 8.9e-5, "11": 4.7e-7},
}

# run statistics of the two simulated experiments
P1_TRIALS = 245
P1_MEAN = 0.302
P1_SD_CHSH = 0.211
P1_SD_CH = 0.464

P2_TRIALS = 176_000_000
P2_MEAN = 1.25e-5
P2_SD_CHSH = 5.65e-6
P2_SD_CH = 1.20e-5
P2_SD_EH = 3.72e-6
P2_SD_OPT = 2.60e-6
P2_SRATIO_CH = 1.0
P2_SRATIO_EH = 3.4
P2_SRATIO_OPT = 4.8

CHSH_UNSHIFTED_VALUE = 2.30  # spin-pair violation before the -2 shift


def _from_display(rows) -> np.ndarray:
    """16-vector of a display-layout table: rows (x, a), columns (y, b) are
    the tensor [x, a, y, b], transposed to the vector's [y, x, b, a]."""
    return np.asarray(rows, dtype=float).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).ravel()


def _block(cells) -> np.ndarray:
    """One setting block of ``P2_BLOCKS`` as a 2x2 table, rows a, columns b."""
    return np.array([[cells["00"], cells["01"]], [cells["10"], cells["11"]]])


def p1_printed() -> np.ndarray:
    return _from_display(P1_DISPLAY)


def p2_printed() -> np.ndarray:
    blocks = [[_block(P2_BLOCKS[(x, y)]) for y in range(2)] for x in range(2)]
    return _from_display(np.block(blocks))
