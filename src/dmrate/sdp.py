"""Dense primal-dual interior-point solver for small SDPs over a direct sum
of PSD blocks.

Standard form:  minimize  sum_k <C_k, X_k>
                s.t.      sum_k <A_ik, X_k> = b_i,  i = 1..m,   X_k >= 0

Every C_k, A_ik and X_k is a d x d real symmetric block, kept in stacked
(K, d, d) and (m, K, d, d) arrays: the key-rate solver works on the
symmetry-reduced state, K real blocks, and complex input is a TypeError.
HKM scaling with Mehrotra predictor-corrector and infeasible start.  m is a
few dozen at most, so the Schur complement M_ij = sum_k Tr(A_ik X_k A_jk
S_k^-1) is dense; every factorization is batched over the blocks, and no
external solver is involved.  Weak duality makes the returned dual vector
usable as a certificate: any y with sum_i y_i A_ik <= C_k for every k bounds
the optimum below by b.y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import hermitize

__all__ = ["SdpResult", "solve_sdp", "independent_rows"]

# Relative primal/dual infeasibility and gap at which an IPM solve is optimal.
TOL = 1e-9
MAX_ITERS = 100  # iteration budget of every IPM solve
# A row is independent when its distance from the span of the rows before
# it is more than this fraction of its norm.
RANK_TOL = 1e-9


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
    """Indices of a maximal linearly independent subset of the real
    constraint operators (the first axis of ``ops``), chosen greedily in
    order (earlier rows win ties).  One unpivoted Householder QR of the unit
    rows, each extended by a coordinate of its own of size s = sqrt(eps *
    RANK_TOL): |R_ii| is row i's distance from the span of the rows before it
    there, at least that in the rows' own space, and at most s (1 + |c|^2)^1/2
    for a zero row or a combination c of the unit rows before it.  Unextended,
    a dependent row's step pivots on rounding and spends a direction of the
    rows' space, so a later independent row can read as dependent."""
    if np.iscomplexobj(ops):
        raise TypeError("independent_rows takes real operators only")
    m = len(ops)
    ext = np.vstack([np.sqrt(np.finfo(float).eps * RANK_TOL) * np.eye(m), ops.reshape(m, -1).T])
    norms = np.linalg.norm(ext[m:], axis=0)
    ext[m:] /= np.where(norms > 0.0, norms, 1.0)
    r = np.linalg.qr(ext, mode="r")
    return np.flatnonzero(np.abs(np.diag(r)) > RANK_TOL).tolist()


def _max_step(chol_inv: np.ndarray, direction: np.ndarray) -> float:
    # Largest alpha with M + alpha * D >= 0 in every block, via the whitened
    # direction L^-1 D L^-T, where M = L L^T and chol_inv = L^-1.
    w = chol_inv @ direction @ chol_inv.swapaxes(-1, -2)
    lam_min = float(np.linalg.eigvalsh(hermitize(w)).min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve_sdp(c_mat: np.ndarray, ops: np.ndarray, b: np.ndarray) -> SdpResult:
    """Solve the standard-form SDP: c_mat is a real (K, d, d) stack of
    blocks and ops a real (m, K, d, d) stack of constraints; x and s come
    back as (K, d, d) stacks.  The budget is the fixed MAX_ITERS
    iterations; a solve that is not optimal by then, or that stalls, returns
    its best-merit iterate with status "max_iters" or "stalled".

    Constraints are normalized to unit Frobenius norm internally; the
    returned dual vector refers to the caller's original operators.
    """
    c_mat, ops = np.asarray(c_mat), np.asarray(ops)
    if np.iscomplexobj(c_mat) or np.iscomplexobj(ops):
        raise TypeError("solve_sdp takes real symmetric blocks only")
    n_blocks, n = c_mat.shape[:2]
    dim = n_blocks * n
    m = ops.shape[0]
    c_mat = hermitize(c_mat)
    norms = np.maximum(np.linalg.norm(ops.reshape(m, -1), axis=1), 1e-300)
    ops = ops / norms[:, None, None, None]
    b = np.asarray(b, dtype=float) / norms

    # Tr(A M) = vec(A) . vec(M) for symmetric A.
    ops_flat = ops.reshape(m, -1)
    eye = np.eye(n)

    def aop(mat: np.ndarray) -> np.ndarray:
        # sum_k <A_ik, mat_k> for all i.
        return ops_flat @ mat.ravel()

    def amat(vec: np.ndarray) -> np.ndarray:
        return (vec @ ops_flat).reshape(n_blocks, n, n)

    def newton_step(x, y, s, r_p, r_d, mu, pinf, pobj):
        # One predictor-corrector step.  The stack [X; S] is factorized and
        # inverted once; its L^-1 whitens the one step-length test per phase
        # of [dX; dS], and its lower half gives S^-1 = L^-T L^-1.
        chol_inv = np.linalg.inv(np.linalg.cholesky(np.concatenate([x, s])))
        s_inv = hermitize(chol_inv[n_blocks:].swapaxes(-1, -2) @ chol_inv[n_blocks:])

        # Schur complement M[i,j] = sum_k Tr(A_ik X_k A_jk S_k^-1).
        t_ops = x @ ops @ s_inv
        schur = ops_flat @ t_ops.reshape(m, -1).T
        schur += (1e-13 * max(1.0, np.trace(schur) / m)) * np.eye(m)

        x_rd_sinv = x @ r_d @ s_inv
        base_rhs = r_p + aop(x_rd_sinv) + aop(x)

        def direction(comp_target: np.ndarray):
            # Solves the HKM system with complementarity target comp_target.
            rhs = base_rhs - aop(comp_target @ s_inv)
            dy = np.linalg.solve(schur, rhs)
            ds = r_d - amat(dy)
            dx = hermitize(comp_target @ s_inv - x - x @ ds @ s_inv)
            return dx, dy, ds

        # Predictor, with one synchronized step length for both cones: letting
        # the dual race ahead collapses mu while the primal is still
        # infeasible, which is exactly the stall this avoids.
        dx_a, dy_a, ds_a = direction(np.zeros_like(x))
        a_aff = min(1.0, _max_step(chol_inv, np.concatenate([dx_a, ds_a])))
        mu_aff = float(np.vdot(x + a_aff * dx_a, s + a_aff * ds_a)) / dim
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8))
        if pinf > 10 * mu / (1 + abs(pobj)):
            sigma = max(sigma, 0.5)

        # Corrector.
        comp = sigma * mu * eye - dx_a @ ds_a
        dx, dy, ds = direction(comp)
        tau = 0.9 if mu > 1e-4 else 0.98
        alpha = min(1.0, tau * _max_step(chol_inv, np.concatenate([dx, ds])))
        return x + alpha * dx, y + alpha * dy, hermitize(s + alpha * ds)

    x = max(1.0, float(np.max(np.abs(b))) * np.sqrt(dim)) * np.broadcast_to(eye, c_mat.shape)
    s = max(1.0, float(np.linalg.norm(c_mat)) / np.sqrt(dim)) * np.broadcast_to(eye, c_mat.shape)
    y = np.zeros(m)

    b_norm = 1.0 + np.linalg.norm(b)
    c_norm = 1.0 + np.linalg.norm(c_mat)

    status = "max_iters"
    it = 0
    best = None
    best_merit = np.inf
    for it in range(1, MAX_ITERS + 1):
        r_p = b - aop(x)
        r_d = c_mat - amat(y) - s
        # sum_k Tr(A_k B_k) of symmetric blocks is vdot, without the products.
        mu = float(np.vdot(x, s)) / dim
        pobj = float(np.vdot(c_mat, x))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = np.linalg.norm(r_p) / b_norm
        dinf = np.linalg.norm(r_d) / c_norm
        record = (x, y, s, r_p, r_d, pobj, dobj)  # returned as measured

        merit = pinf + dinf + mu / (1.0 + abs(pobj))
        if merit < best_merit:
            best_merit = merit
            best = record

        if pinf < TOL and dinf < TOL and (gap < 10 * TOL or mu / (1 + abs(pobj)) < TOL):
            status = "optimal"
            break

        # The endgame on thin feasible sets can leave the cone, or make the
        # Schur complement singular; in that case the best-so-far iterate is
        # still a perfectly usable near-solution.
        try:
            x, y, s = newton_step(x, y, s, r_p, r_d, mu, pinf, pobj)
        except np.linalg.LinAlgError:
            status = "stalled"
            break

    x, y, s, r_p, r_d, pobj, dobj = record if status == "optimal" or best is None else best
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
        dual_residual=float(np.linalg.norm(r_d)),
    )
