"""The constraint rows on A (x) B, formed literally, as a test oracle.

The package keeps every row Gamma_i = A_i (x) B_i as its two factors and
never stacks the full-space rows; this does, so the tests can check the
factored Gram matrix, residuals and reduction against the rows themselves.
"""

from __future__ import annotations

import numpy as np

from dmrate.constraints import ConstraintSet


def full_operators(cs: ConstraintSet) -> np.ndarray:
    """The (m, dim, dim) stack of kron(A_i, B_i)."""
    return np.array([np.kron(a, b) for a, b in zip(cs.a_parts, cs.b_parts)])
