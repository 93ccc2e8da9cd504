"""The constraint rows on A (x) B, formed literally, as a test oracle.

The package keeps every row Gamma_i = A_i (x) B_i as its two factors and
never stacks the full-space rows; this does, so the tests can check the
factored Gram matrix, residuals and reduction against the rows themselves.
`embed` writes Hermitian operators as real symmetric ones, which the
package's real solvers take, and `gibbs_state` puts a Gibbs state on the
full-space rows, not symmetric in general.  `rebuilt` makes a fresh problem from chosen, reordered or altered rows, for
the checks the problem's build makes.
"""

from __future__ import annotations

import numpy as np

from dmrate import solver
from dmrate.solver import RANK_TOL, Problem


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


def embed(h: np.ndarray) -> np.ndarray:
    """The real symmetric embedding of every Hermitian matrix in ``h``."""
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def gibbs_state(exponent: np.ndarray, ops: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The Hermitian state exp(exponent + sum_i y_i A_i) on the full-space
    rows ``ops`` (row 0 the trace) at ``values``, by the package's Newton
    solve on the embedding, to 1e-10: exp(embed(H)) = embed(exp(H)) and
    Tr(embed(A) embed(X)) = 2 Tr(A X)."""
    big = embed(ops)
    kept = solver.independent_rows(big)
    n = ops.shape[-1]
    y = np.zeros(len(kept))
    y[0] = -np.log(n)
    w, u, _ = solver._gibbs(embed(exponent)[None], big[kept][:, None], 2.0 * values[kept], y, 1e-10)
    z = ((u * np.exp(w)[..., None, :]) @ u.swapaxes(-1, -2))[0]
    return z[:n, :n] + 1j * z[n:, :n]


def greedy_rows(ops: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The reference for `dmrate.solver.independent_rows`: double Gram-Schmidt
    over the rows in order.  Returns the kept indices and each row's distance
    from the span of the rows before it over its norm (0 for a zero row);
    a row is kept when that ratio exceeds RANK_TOL."""
    vecs = ops.reshape(len(ops), -1)
    kept: list[int] = []
    basis: list[np.ndarray] = []
    ratios = np.zeros(len(ops))
    for i, row in enumerate(vecs):
        v = row.copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):  # the second pass restores orthogonality
            for b in basis:
                v -= np.dot(b, v) * b
        ratios[i] = np.linalg.norm(v) / norm0
        if ratios[i] > RANK_TOL:
            kept.append(i)
            basis.append(v / np.linalg.norm(v))
    return kept, ratios
