"""Objective D(G(rho) || Z(G(rho))) and its gradient, in bits, on the
symmetry-reduced state.

rho is a stack of K real blocks B_j (see `maps`).  With W_j^T W_j the j-th
block of K+K, the spectrum of G(rho) is the union of the spectra of
W_j B_j W_j^T.  The register-diagonal blocks E_z rho E_z+ of G(rho) are
unitarily equivalent within each orbit of key values, so one orbit
representative F_r, weighted by its orbit size, stands for them:
E_r rho E_r+ ~ sum_j F_r[j] B_j F_r[j]^T.  The gradient at an invariant state
is invariant, so it is a stack of real blocks too.  No operator on the full
register space is ever formed.  Identical arms give 4 blocks and one pinched
block, distinct arms 2 of each.  Both functions work at `perturbed(rho)`.
"""

from __future__ import annotations

import numpy as np

from .fock import CLAMP_REL
from .maps import PostprocessingMaps

__all__ = ["objective_with_gradient", "line_objective", "perturbed", "PERTURBATION"]

LN2 = float(np.log(2.0))

# rho -> (1-eps) rho + eps 1/dim before any log; standard continuity fix for
# rank-deficient states, objective shift O(eps log dim) << gap tolerances.
PERTURBATION = 1e-9


def perturbed(rho: np.ndarray) -> np.ndarray:
    """(1 - PERTURBATION) rho + PERTURBATION 1/dim, the state at which the
    objective is taken; dim, that of A (x) B, is the sum of the block sizes."""
    n_blocks, d = rho.shape[:2]
    return (1.0 - PERTURBATION) * rho + (PERTURBATION / (n_blocks * d)) * np.eye(d)


def _clamp(w: np.ndarray) -> np.ndarray:
    # Eigenvalues floored at CLAMP_REL * their largest (at 1e-300 if none is
    # positive), so that their logs stay finite.
    top = float(np.max(w))
    return np.maximum(w, CLAMP_REL * top if top > 0 else 1e-300)


def _entropy_sum(w: np.ndarray) -> float:
    # sum lambda ln lambda of the clamped eigenvalues.
    w = _clamp(w)
    return float(np.sum(w * np.log(w)))


def _clamped_log(mat: np.ndarray) -> tuple[np.ndarray, float]:
    # log of a symmetric matrix or of a stack of blocks, clamped jointly.
    w, u = np.linalg.eigh(mat)
    w = _clamp(w)
    log_w = np.log(w)
    return (u * log_w[..., None, :]) @ u.swapaxes(-1, -2), float(np.sum(w * log_w))


def _pinched(factor: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # sum_j F[j] B_j F[j]^T, one representative pinched block of G(rho), as
    # one product [F_0 B_0, F_1 B_1, ...] [F_0, F_1, ...]^T.
    n = factor.shape[1]
    return (factor @ rho).transpose(1, 0, 2).reshape(n, -1) @ factor.transpose(1, 0, 2).reshape(n, -1).T


def objective_with_gradient(rho: np.ndarray, maps: PostprocessingMaps) -> tuple[float, np.ndarray]:
    """Objective in bits and its gradient G+[log2 G(rho)] - G+[log2 Z(G(rho))],
    both at `perturbed(rho)` and on the (K, d, d) stack of real blocks; rho is
    a symmetric stack of unit total trace, which the caller guarantees."""
    rho = perturbed(rho)
    w = maps.kraus_factor
    log_sigma, term1 = _clamped_log(w @ rho @ w.swapaxes(1, 2))
    grad = w.swapaxes(1, 2) @ log_sigma @ w
    term2 = 0.0
    for factor, weight in zip(maps.pinch_factors, maps.pinch_weights):
        log_tau, ent = _clamped_log(_pinched(factor, rho))
        term2 += weight * ent
        grad -= weight * (factor.swapaxes(1, 2) @ log_tau @ factor)
    return (term1 - term2) / LN2, 0.5 * (grad + grad.swapaxes(1, 2)) / LN2


def line_objective(rho: np.ndarray, delta: np.ndarray, maps: PostprocessingMaps):
    """Callable t -> objective(rho + t delta) on the stack, with the
    transformed endpoint matrices precomputed, for cheap exact line
    searches."""
    w = maps.kraus_factor
    rho = perturbed(rho)
    sig0 = w @ rho @ w.swapaxes(1, 2)
    sigd = (1.0 - PERTURBATION) * (w @ delta @ w.swapaxes(1, 2))
    tau0 = [_pinched(f, rho) for f in maps.pinch_factors]
    taud = [(1.0 - PERTURBATION) * _pinched(f, delta) for f in maps.pinch_factors]

    def phi(t: float) -> float:
        val = _entropy_sum(np.linalg.eigvalsh(sig0 + t * sigd))
        for a, b, weight in zip(tau0, taud, maps.pinch_weights):
            val -= weight * _entropy_sum(np.linalg.eigvalsh(a + t * b))
        return val / LN2

    return phi
