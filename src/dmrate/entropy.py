"""Objective D(G(rho) || Z(G(rho))) and its gradient, in bits.

Everything is computed on the column space of the Kraus operator: with
W+W = K+K, the spectrum of G(rho) equals the spectrum of W rho W+, and the
register-diagonal blocks of G(rho) are E_z rho E_z+ with
E_z = 1_A (x) sqrt(R_z).  No operator on the full register space is ever
formed.  At cutoff 12, on one BLAS thread of a 2-core x86-64 Xeon, one
value-and-gradient evaluation takes about 3.5 ms and one line evaluation
1.1-1.6 ms.
"""

from __future__ import annotations

import numpy as np

from .fock import CLAMP_REL, hermitize
from .maps import PostprocessingMaps

__all__ = ["objective_with_gradient", "line_objective", "PERTURBATION"]

LN2 = float(np.log(2.0))

# rho -> (1-eps) rho + eps 1/dim before any log; standard continuity fix for
# rank-deficient states, objective shift O(eps log dim) << gap tolerances.
PERTURBATION = 1e-9


def _perturb(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - PERTURBATION) * rho + (PERTURBATION / d) * np.eye(d, dtype=complex)


def _clamp(w: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues floored at CLAMP_REL * lambda_max (at 1e-300 if
    # none is positive), so that their logs stay finite.
    top = float(w[-1])
    return np.maximum(w, CLAMP_REL * top if top > 0 else 1e-300)


def _entropy_sum(w: np.ndarray) -> float:
    # sum lambda ln lambda of the clamped eigenvalues.
    w = _clamp(w)
    return float(np.sum(w * np.log(w)))


def _clamped_log(mat: np.ndarray) -> tuple[np.ndarray, float]:
    w, u = np.linalg.eigh(mat)
    w = _clamp(w)
    log_w = np.log(w)
    return (u * log_w) @ u.conj().T, float(np.sum(w * log_w))


def objective_with_gradient(rho: np.ndarray, maps: PostprocessingMaps) -> tuple[float, np.ndarray]:
    """Objective in bits and its gradient G+[log2 G(rho)] - G+[log2 Z(G(rho))].

    rho is a Hermitian state on A (x) B; the caller guarantees it."""
    rho = _perturb(np.asarray(rho, dtype=complex))
    w = maps.w_coords
    log_sigma, term1 = _clamped_log(w @ rho @ w.conj().T)
    grad = w.conj().T @ log_sigma @ w
    term2 = 0.0
    for blk in maps.blocks:
        log_tau, ent = _clamped_log(blk @ rho @ blk.conj().T)
        term2 += ent
        grad -= blk.conj().T @ log_tau @ blk
    return (term1 - term2) / LN2, hermitize(grad) / LN2


def line_objective(rho: np.ndarray, delta: np.ndarray, maps: PostprocessingMaps):
    """Callable t -> objective(rho + t delta) with the transformed endpoint
    matrices precomputed, for cheap exact line searches."""
    w = maps.w_coords
    rho = _perturb(rho)
    sig0 = w @ rho @ w.conj().T
    sigd = (1.0 - PERTURBATION) * (w @ delta @ w.conj().T)
    tau0 = [blk @ rho @ blk.conj().T for blk in maps.blocks]
    taud = [(1.0 - PERTURBATION) * (blk @ delta @ blk.conj().T) for blk in maps.blocks]

    def phi(t: float) -> float:
        val = _entropy_sum(np.linalg.eigvalsh(sig0 + t * sigd))
        for a, b in zip(tau0, taud):
            val -= _entropy_sum(np.linalg.eigvalsh(a + t * b))
        return val / LN2

    return phi
