"""Objective D(G(rho) || Z(G(rho))) and its gradient, in bits.

Everything is computed on the column space of the Kraus operator: with
W+W = K+K, the spectrum of G(rho) equals the spectrum of W rho W+, and the
register-diagonal blocks of G(rho) are E_z rho E_z+ with
E_z = 1_A (x) sqrt(R_z).  No operator on the full register space is ever
formed, which keeps one evaluation at cutoff 12 under a millisecond.
"""

from __future__ import annotations

import numpy as np

from .fock import CLAMP_REL, check_hermitian, hermitize
from .maps import PostprocessingMaps

__all__ = ["objective", "objective_with_gradient", "line_objective", "PERTURBATION"]

LN2 = float(np.log(2.0))

# rho -> (1-eps) rho + eps 1/dim before any log; standard continuity fix for
# rank-deficient states, objective shift O(eps log dim) << gap tolerances.
PERTURBATION = 1e-9


def _perturb(rho: np.ndarray, eps: float = PERTURBATION) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - eps) * rho + (eps / d) * np.eye(d, dtype=complex)


def _entropy_sum(w: np.ndarray) -> float:
    # sum lambda ln lambda with the relative clamp; zero rows contribute 0.
    top = float(w[-1])
    if top <= 0.0:
        return 0.0
    w = np.maximum(w, CLAMP_REL * top)
    return float(np.sum(w * np.log(w)))


def _clamped_log(mat: np.ndarray) -> tuple[np.ndarray, float]:
    w, u = np.linalg.eigh(mat)
    top = float(w[-1])
    w = np.maximum(w, CLAMP_REL * max(top, 0.0)) if top > 0 else np.maximum(w, 1e-300)
    return (u * np.log(w)) @ u.conj().T, float(np.sum(w * np.log(w)))


def _validate(rho: np.ndarray, maps: PostprocessingMaps) -> np.ndarray:
    if rho.shape != (maps.dim_ab, maps.dim_ab):
        raise ValueError(f"state shape {rho.shape} does not match A(x)B dimension {maps.dim_ab}")
    return check_hermitian(rho, psd_tol=1e-7)


def objective(rho: np.ndarray, maps: PostprocessingMaps) -> float:
    """Relative entropy between G(rho) and its pinching, in bits."""
    rho = _perturb(_validate(np.asarray(rho, dtype=complex), maps))
    w = maps.w_coords
    term1 = _entropy_sum(np.linalg.eigvalsh(w @ rho @ w.conj().T))
    term2 = 0.0
    for blk in maps.blocks:
        term2 += _entropy_sum(np.linalg.eigvalsh(blk @ rho @ blk.conj().T))
    return (term1 - term2) / LN2


def objective_with_gradient(
    rho: np.ndarray, maps: PostprocessingMaps, validate: bool = True
) -> tuple[float, np.ndarray]:
    """Objective in bits and its gradient G+[log2 G(rho)] - G+[log2 Z(G(rho))]."""
    rho = np.asarray(rho, dtype=complex)
    if validate:
        rho = _validate(rho, maps)
    rho = _perturb(rho)
    w = maps.w_coords
    log_sigma, term1 = _clamped_log(w @ rho @ w.conj().T)
    grad = w.conj().T @ log_sigma @ w
    term2 = 0.0
    for blk in maps.blocks:
        log_tau, ent = _clamped_log(blk @ rho @ blk.conj().T)
        term2 += ent
        grad -= blk.conj().T @ log_tau @ blk
    return (term1 - term2) / LN2, hermitize(grad) / LN2


def line_objective(
    rho: np.ndarray, delta: np.ndarray, maps: PostprocessingMaps
) -> "_LineObjective":
    """Callable t -> objective(rho + t delta) with the transformed endpoint
    matrices precomputed, for cheap exact line searches."""
    return _LineObjective(rho, delta, maps)


class _LineObjective:
    def __init__(self, rho: np.ndarray, delta: np.ndarray, maps: PostprocessingMaps):
        w = maps.w_coords
        self._sig0 = w @ _perturb(rho) @ w.conj().T
        self._sigd = (1.0 - PERTURBATION) * (w @ delta @ w.conj().T)
        self._tau0 = [blk @ _perturb(rho) @ blk.conj().T for blk in maps.blocks]
        self._taud = [(1.0 - PERTURBATION) * (blk @ delta @ blk.conj().T) for blk in maps.blocks]

    def __call__(self, t: float) -> float:
        val = _entropy_sum(np.linalg.eigvalsh(self._sig0 + t * self._sigd))
        for tau0, taud in zip(self._tau0, self._taud):
            val -= _entropy_sum(np.linalg.eigvalsh(tau0 + t * taud))
        return val / LN2
