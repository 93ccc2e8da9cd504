"""Objective D(G(rho) || Z(G(rho))) and its gradient, in nats, in the
coordinates sigma = W rho W^T of the symmetry-reduced state.

rho is a stack of K real blocks B_j (see `maps`).  With W_j the Kraus factor
(W_j^T W_j the j-th block of K+K), sigma_j = W_j B_j W_j^T has the spectrum
of G(rho).  The register-diagonal blocks E_z rho E_z+ of G(rho) are unitarily
equivalent within each orbit r of key values, so its representative, weighted
by the orbit size w_r, stands for them: E_r rho E_r+ ~ P_r = sum_j F'_r[j]
sigma_j F'_r[j]^T with F'_r = F_r W^-1.  So

    f(sigma) = Tr sigma ln sigma - sum_r w_r Tr P_r ln P_r,
    grad f   = ln sigma + 1 - sum_r w_r F'_r^T (ln P_r + 1) F'_r.

The solver knows ln sigma exactly, as the exponent it built sigma from, and
hands over its eigenpairs.  ln P_r needs P_r's tiny eigenvalues, which a plain
eigendecomposition of P_r loses: P_r = X X^T with X = [F'_r[j] U_j
diag(e^{lambda_j/2})]_j, whose columns span many decades, and `graded_eig`
takes its eigenpairs to high relative accuracy.  No operator on the full
register space is ever formed.  Identical arms give 4 blocks and one pinched
block, distinct arms 2 of each.
"""

from __future__ import annotations

import numpy as np

from .fock import hermitize

__all__ = ["graded_eig", "objective_with_gradient"]

EPS = float(np.finfo(float).eps)
# Rows per block of `graded_eig`: a pair of blocks, 24 rows, stays within
# the 25 that LAPACK's SVD takes by QR iteration, which keeps the relative
# accuracy of graded singular values; past 25 it divides and conquers, which
# does not.
BLOCK = 12
SWEEPS = 30  # far above the 1-2 sweeps the iterates take


def _orthogonal_rows(z: np.ndarray) -> np.ndarray:
    # Rows spanning the row space of every z of a stack, mutually orthogonal,
    # with z z^T = new^T new kept: sorted by norm, a QR of z^T, Q R, and the
    # SVD of R, U S V^T, give z^T = (Q U) S V^T, so the rows S (Q U)^T.
    order = np.argsort(-np.linalg.norm(z, axis=-1), axis=-1, kind="stable")
    q, r = np.linalg.qr(np.take_along_axis(z, order[..., :, None], axis=-2).swapaxes(-1, -2))
    u, s, _ = np.linalg.svd(r)
    return s[..., :, None] * (q @ u).swapaxes(-1, -2)


def graded_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of x x^T, for every square matrix of a stack x, as
    (the logs of the eigenvalues, the unit eigenvectors), to high relative
    accuracy where the columns of x span many decades.

    After Drmac and Veselic's preconditioned Jacobi SVD (SIAM J. Matrix
    Anal. Appl. 29, 1322 (2008)): the columns sorted by norm, largest first,
    a Householder QR, Q R, then a QR of R^T, whose R_2 has R R^T = R_2^T R_2;
    then block one-sided Jacobi on the rows of R_2, each pair of BLOCK-row
    blocks made orthogonal by `_orthogonal_rows`, until every pair of rows
    is orthogonal to n eps of its norms.  The rows are then s_i v_i^T, and
    x x^T = sum_i s_i^2 (Q v_i) (Q v_i)^T.  numpy's SVD of the whole, divide
    and conquer past 25 columns, gets singular values below eps times the
    largest wrong by orders of magnitude, and with them the logs.  An exact
    zero takes the log of the smallest normal number."""
    order = np.argsort(-np.linalg.norm(x, axis=-2), axis=-1, kind="stable")
    q, r = np.linalg.qr(np.take_along_axis(x, order[..., None, :], axis=-1))
    y = np.linalg.qr(r.swapaxes(-1, -2), mode="r")
    n = y.shape[-1]
    blocks = np.array_split(np.arange(n), max(2, -(-n // BLOCK)))
    pairs = [np.concatenate([a, b]) for i, a in enumerate(blocks) for b in blocks[i + 1 :]]
    for _ in range(SWEEPS):
        norm = np.linalg.norm(y, axis=-1)
        off = np.abs(y @ y.swapaxes(-1, -2)) > n * EPS * norm[..., :, None] * norm[..., None, :]
        off[..., np.arange(n), np.arange(n)] = False
        todo = [idx for idx in pairs if off[..., idx[:, None], idx].any()]
        if not todo:
            norm = np.maximum(norm, np.finfo(float).tiny)
            return 2.0 * np.log(norm), q @ (y / norm[..., None]).swapaxes(-1, -2)
        for idx in todo:
            y[..., idx, :] = _orthogonal_rows(y[..., idx, :])
    raise ArithmeticError(f"block Jacobi did not converge in {SWEEPS} sweeps")


def objective_with_gradient(
    lam: np.ndarray, u: np.ndarray, pinch: np.ndarray, weights: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """f(sigma) in nats and its gradient, a (K, d, d) stack of real blocks,
    at sigma = u diag(e^lam) u^T blockwise; ``pinch`` holds the (R, K, n, d)
    factors F'_r and ``weights`` the orbit sizes w_r."""
    n_orbits, n_blocks, n, d = pinch.shape
    x = (pinch @ (u * np.exp(0.5 * lam)[..., None, :])).transpose(0, 2, 1, 3).reshape(n_orbits, n, n_blocks * d)
    log_p, v = graded_eig(x)
    w = np.array(weights, dtype=float)
    value = float(np.sum(np.exp(lam) * lam) - np.sum(w[:, None] * np.exp(log_p) * log_p))
    log_pinched = (v * (log_p + 1.0)[..., None, :]) @ v.swapaxes(-1, -2)
    pulled = pinch.swapaxes(-1, -2) @ log_pinched[:, None] @ pinch
    grad = (u * lam[..., None, :]) @ u.swapaxes(-1, -2) + np.eye(d) - np.tensordot(w, pulled, axes=1)
    return value, hermitize(grad)
