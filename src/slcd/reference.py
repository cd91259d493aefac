"""Reference results for the built-in benchmark datasets.

Two kinds of constants live here. REFERENCE_ESTIMATES holds the
estimated structural matrices originally reported for each built-in
dataset at (sigma, lambda) = (0.3, 5); the repro command juxtaposes a
fresh run against them. REFERENCE_COMPARISON holds the precision,
recall, and correct-link counts reported for several discovery methods
on the same benchmarks. The rows for the other methods (PC, GES,
LINGAM IC, LINGAM Direct, BIC Search) are transcribed values shown for
context only; this package never computes them.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "REFERENCE_ESTIMATES",
    "REFERENCE_COMPARISON",
    "COMPARISON_METHODS",
    "EXPECTED_RECOVERED_IDS",
]

# Datasets 2 through 5 were recovered exactly (precision = recall = 1).
# Dataset 1 is a known failure case: one of its independent variables
# is also expressible through the others, so the model cannot be
# pinned down from observational data alone.
EXPECTED_RECOVERED_IDS = (2, 3, 4, 5)


def _ro(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    a.setflags(write=False)
    return a


REFERENCE_ESTIMATES: dict[int, np.ndarray] = {
    1: _ro([
        [0.0, 0.5, 4.4e-7],
        [2.0, 1.0, 1.1e-6],
        [-1.2e-7, 0.2, 0.0],
    ]),
    2: _ro([
        [1.0, 0.0, -8.8e-4, 0.0],
        [0.0, 1.0, -3.3e-4, 0.0],
        [0.3, 0.0, -2.7e-4, 0.0],
        [1.002, 1.999, 0.0, 0.0],
    ]),
    3: _ro([
        [0.999, 0.0497, 0.0, 0.0, 0.0],
        [0.0, 1.000, 0.0, 0.0, 0.0102],
        [0.976, 3.049, 0.0, 0.0, 0.0],
        [-0.0147, 1.999, 0.0, 0.0, 0.0],
        [1.990, 1.099, 0.0, 0.0, 0.0],
    ]),
    4: _ro([
        [0.999, -0.009, 0.0, 0.0, 0.0, 0.0],
        [0.016, 0.999, 0.0, 0.0, 0.0, 0.0],
        [-0.0432, 0.0, 0.997, 0.0, 0.0, 0.0],
        [0.987, 0.0, 0.3019, 0.0, 0.0, 0.0],
        [2.048, 2.982, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.995, 0.483, 0.0, 0.0, 0.0],
    ]),
    5: _ro([
        [0.997, 0.0525, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-0.082, 0.994, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.057, 0.0, 0.998, 0.0, 0.0, 0.0, 0.0],
        [1.025, 0.0, 0.491, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.956, 2.024, 0.0, 0.0, 0.0, 0.0],
        [1.168, 0.0, 2.986, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.975, 1.025, 0.0, 0.0, 0.0, 0.0],
    ]),
}

COMPARISON_METHODS = (
    "PC", "GES", "LINGAM IC", "LINGAM Direct", "BIC Search", "SLCD",
)

# method -> (precision, recall, correct_links), per dataset id.
REFERENCE_COMPARISON: dict[int, dict[str, tuple[float, float, int]]] = {
    1: {
        "PC": (0.33, 1.0, 2),
        "GES": (0.5, 0.5, 1),
        "LINGAM IC": (0.0, 0.0, 0),
        "LINGAM Direct": (0.33, 0.5, 1),
        "BIC Search": (0.0, 0.0, 0),
        "SLCD": (0.0, 0.0, 0),
    },
    2: {
        "PC": (0.5, 0.66, 2),
        "GES": (0.6, 1.0, 3),
        "LINGAM IC": (0.25, 0.33, 1),
        "LINGAM Direct": (0.0, 0.0, 0),
        "BIC Search": (0.75, 1.0, 3),
        "SLCD": (1.0, 1.0, 3),
    },
    3: {
        "PC": (0.37, 0.6, 3),
        "GES": (0.43, 0.6, 3),
        "LINGAM IC": (0.0, 0.0, 0),
        "LINGAM Direct": (0.0, 0.0, 0),
        "BIC Search": (0.43, 0.6, 3),
        "SLCD": (1.0, 1.0, 5),
    },
    4: {
        "PC": (1.0, 1.0, 6),
        "GES": (1.0, 1.0, 6),
        "LINGAM IC": (0.2, 0.33, 2),
        "LINGAM Direct": (0.1, 0.17, 1),
        "BIC Search": (0.67, 1.0, 6),
        "SLCD": (1.0, 1.0, 6),
    },
    5: {
        "PC": (0.3, 0.37, 3),
        "GES": (0.75, 0.75, 6),
        "LINGAM IC": (0.08, 0.12, 1),
        "LINGAM Direct": (0.13, 0.25, 2),
        "BIC Search": (0.54, 1.0, 6),
        "SLCD": (1.0, 1.0, 8),
    },
}
