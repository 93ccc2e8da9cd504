"""Dense primal-dual interior-point solver for small Hermitian SDPs.

Standard form:  minimize  <C, X>
                s.t.      <A_i, X> = b_i,  i = 1..m,   X >= 0  (Hermitian PSD)

HKM scaling with Mehrotra predictor-corrector and infeasible start.  Problem
sides here are at most a few hundred, and m a few dozen, so a dense Schur
complement is the right tool; no external solver is involved.  Weak duality
makes the returned dual vector usable as a certificate: any y with
sum_i y_i A_i <= C bounds the optimum below by b.y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lu_factor, lu_solve, solve_triangular

from .fock import hermitize

__all__ = ["SdpResult", "SdpError", "solve_sdp", "independent_rows"]

# Relative primal/dual infeasibility and gap at which an IPM solve is optimal.
TOL = 1e-9
# A row is independent when its component orthogonal to the earlier kept
# rows keeps more than this fraction of its norm.
RANK_TOL = 1e-9


class SdpError(RuntimeError):
    pass


@dataclass
class SdpResult:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    iterations: int
    primal_obj: float
    dual_obj: float
    gap: float
    primal_residual: float
    dual_residual: float

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


def independent_rows(ops: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent subset of the constraint
    operators, chosen greedily in order (earlier rows win ties)."""
    m = ops.shape[0]
    vecs = ops.reshape(m, -1)
    vecs = np.concatenate([vecs.real, vecs.imag], axis=1)
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i in range(m):
        v = vecs[i].copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for b in basis:
            v -= np.dot(b, v) * b
        # Second pass for numerical orthogonality.
        for b in basis:
            v -= np.dot(b, v) * b
        if np.linalg.norm(v) > RANK_TOL * norm0:
            kept.append(i)
            basis.append(v / np.linalg.norm(v))
    return kept


def _trace_prod(a: np.ndarray, b: np.ndarray) -> float:
    # Re Tr(ab) without forming the product.
    return float((a.ravel() @ b.T.ravel()).real)


def _max_step(chol_lower: np.ndarray, direction: np.ndarray) -> float:
    # Largest alpha with M + alpha * D >= 0, via the whitened direction.
    w = solve_triangular(chol_lower, direction, lower=True)
    w = solve_triangular(chol_lower, w.conj().T, lower=True)
    lam_min = float(np.linalg.eigvalsh(hermitize(w)).min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve_sdp(
    c_mat: np.ndarray,
    ops: np.ndarray,
    b: np.ndarray,
    max_iters: int = 100,
) -> SdpResult:
    """Solve the standard-form SDP; ops has shape (m, n, n), all Hermitian.

    Constraints are normalized to unit Frobenius norm internally; the
    returned dual vector refers to the caller's original operators.
    """
    n = c_mat.shape[0]
    m = ops.shape[0]
    c_mat = hermitize(np.asarray(c_mat, dtype=complex))
    norms = np.array([max(np.linalg.norm(a, "fro"), 1e-300) for a in ops])
    ops = np.asarray(ops, dtype=complex) / norms[:, None, None]
    b = np.asarray(b, dtype=float) / norms

    ops_flat = ops.reshape(m, n * n)
    ops_flat_t = np.ascontiguousarray(ops.transpose(0, 2, 1).reshape(m, n * n))

    def aop(mat: np.ndarray) -> np.ndarray:
        # <A_i, mat> for all i; Tr(A_i M) = vec(A_i^T) . vec(M).
        return (ops_flat_t @ mat.ravel()).real

    def amat(vec: np.ndarray) -> np.ndarray:
        return (vec @ ops_flat).reshape(n, n)

    x = max(1.0, float(np.max(np.abs(b))) * np.sqrt(n)) * np.eye(n, dtype=complex)
    s = max(1.0, float(np.linalg.norm(c_mat, "fro")) / np.sqrt(n)) * np.eye(n, dtype=complex)
    y = np.zeros(m)

    b_norm = 1.0 + np.linalg.norm(b)
    c_norm = 1.0 + np.linalg.norm(c_mat, "fro")

    status = "max_iters"
    it = 0
    best = None
    best_merit = np.inf
    for it in range(1, max_iters + 1):
        r_p = b - aop(x)
        r_d = c_mat - amat(y) - s
        mu = _trace_prod(x, s) / n
        pobj = _trace_prod(c_mat, x)
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = np.linalg.norm(r_p) / b_norm
        dinf = np.linalg.norm(r_d, "fro") / c_norm

        merit = pinf + dinf + mu / (1.0 + abs(pobj))
        if merit < best_merit:
            best_merit = merit
            best = (x.copy(), y.copy(), s.copy())

        if pinf < TOL and dinf < TOL and (gap < 10 * TOL or mu / (1 + abs(pobj)) < TOL):
            status = "optimal"
            break

        # The endgame on thin feasible sets can leave the cone; in that case
        # the best-so-far iterate is still a perfectly usable near-solution.
        try:
            x_chol = np.linalg.cholesky(x)
            s_chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        s_inv = hermitize(cho_solve((s_chol, True), np.eye(n, dtype=complex)))

        # Schur complement M[i,j] = Re Tr(A_i X A_j S^-1), via batched matmul.
        t_ops = np.matmul(np.matmul(x[None, :, :], ops), s_inv[None, :, :])
        schur = (ops_flat_t @ t_ops.reshape(m, n * n).T).real
        schur += (1e-13 * max(1.0, np.trace(schur).real / m)) * np.eye(m)
        try:
            schur_lu = lu_factor(schur)
        except ValueError:
            status = "stalled"
            break

        x_rd_sinv = x @ r_d @ s_inv
        base_rhs = r_p + aop(x_rd_sinv) + aop(x)

        def direction(comp_target: np.ndarray):
            # Solves the HKM system with complementarity target comp_target.
            rhs = base_rhs - aop(comp_target @ s_inv)
            dy = lu_solve(schur_lu, rhs)
            ds = r_d - amat(dy)
            dx = hermitize(comp_target @ s_inv - x - x @ ds @ s_inv)
            return dx, dy, ds

        # Predictor, with one synchronized step length for both cones: letting
        # the dual race ahead collapses mu while the primal is still
        # infeasible, which is exactly the stall this avoids.
        dx_a, dy_a, ds_a = direction(np.zeros((n, n), dtype=complex))
        a_aff = min(1.0, _max_step(x_chol, dx_a), _max_step(s_chol, ds_a))
        mu_aff = _trace_prod(x + a_aff * dx_a, s + a_aff * ds_a) / n
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8))
        if pinf > 10 * mu / (1 + abs(pobj)):
            sigma = max(sigma, 0.5)

        # Corrector.
        comp = sigma * mu * np.eye(n, dtype=complex) - dx_a @ ds_a
        dx, dy, ds = direction(comp)
        tau = 0.9 if mu > 1e-4 else 0.98
        alpha = min(1.0, tau * _max_step(x_chol, dx), tau * _max_step(s_chol, ds))

        x = hermitize(x + alpha * dx)
        y = y + alpha * dy
        s = hermitize(s + alpha * ds)

    if status != "optimal" and best is not None:
        x, y, s = best
    r_p = b - aop(x)
    r_d = c_mat - amat(y) - s
    pobj = _trace_prod(c_mat, x)
    dobj = float(b @ y)
    return SdpResult(
        x=x,
        y=y / norms,
        s=s,
        status=status,
        iterations=it,
        primal_obj=pobj,
        dual_obj=dobj,
        gap=abs(pobj - dobj),
        primal_residual=float(np.linalg.norm(r_p * norms, np.inf)),
        dual_residual=float(np.linalg.norm(r_d, "fro")),
    )
