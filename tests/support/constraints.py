"""The constraint rows on A (x) B, formed literally, as a test oracle.

The package keeps every row Gamma_i = A_i (x) B_i as its two factors and
never stacks the full-space rows; this does, so the tests can check the
factored Gram matrix, residuals and reduction against the rows themselves.
`rebuilt` makes a fresh problem from chosen, reordered or altered rows, for
the checks the problem's build makes.
"""

from __future__ import annotations

import numpy as np

from dmrate.solver import Problem


def full_operators(problem: Problem) -> np.ndarray:
    """The (m, dim, dim) stack of kron(A_i, B_i)."""
    return np.array([np.kron(a, b) for a, b in zip(problem.a_parts, problem.b_parts)])


def rebuilt(problem: Problem, order=None, b_parts=None) -> Problem:
    """A fresh problem on the same maps from the rows ``order`` (all by
    default), with ``b_parts`` in place of the B factors if given."""
    order = list(range(len(problem.labels)) if order is None else order)
    b_parts = problem.b_parts if b_parts is None else b_parts
    labels = tuple(problem.labels[i] for i in order)
    return Problem(problem.maps, problem.a_parts[order], b_parts[order], labels)
