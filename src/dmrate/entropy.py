"""Objective D(G(rho) || Z(G(rho))) and its gradient, in bits, on the
symmetry-reduced state.

rho is a stack of K real blocks B_j (see `maps`).  With W_j^T W_j the j-th
block of K+K, the spectrum of G(rho) is that of the stack W_j B_j W_j^T.  The
register-diagonal blocks E_z rho E_z+ of G(rho) are unitarily equivalent
within each orbit r of key values, so its representative F_r, weighted by the
orbit size w_r, stands for them: E_r rho E_r+ ~ sum_j F_r[j] B_j F_r[j]^T.
`_terms` lists these signed entropy terms (sign, factor, blocks) once: (+1, W,
W_j B_j W_j^T) and (-w_r, F_r, sum_j F_r[j] B_j F_r[j]^T).  The objective is
sum sign Tr(M ln M) over their blocks M, the gradient sum sign F^T ln(M) F (a
stack of real blocks, since it is invariant too), and the line search takes
the blocks at rho and at its direction.  No operator on the full register
space is ever formed.  Identical arms give 4 blocks and one pinched block,
distinct arms 2 of each.  Both functions work at `perturbed(rho)`.
"""

from __future__ import annotations

import numpy as np

from .fock import CLAMP_REL, hermitize
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


def _terms(rho: np.ndarray, maps: PostprocessingMaps) -> list[tuple[float, np.ndarray, np.ndarray]]:
    # The signed entropy terms (sign, factor, blocks) of the module docstring.
    # A pinched block is one product [F_0 B_0, F_1 B_1, ...] [F_0, F_1, ...]^T.
    w = maps.kraus_factor
    terms = [(1.0, w, w @ rho @ w.swapaxes(1, 2))]
    for factor, weight in zip(maps.pinch_factors, maps.pinch_weights):
        n = factor.shape[1]
        pinched = (factor @ rho).transpose(1, 0, 2).reshape(n, -1) @ factor.transpose(1, 0, 2).reshape(n, -1).T
        terms.append((-weight, factor, pinched))
    return terms


def _clamped_log(w: np.ndarray) -> tuple[np.ndarray, float]:
    # Logs of a term's eigenvalues w, floored jointly at CLAMP_REL * their
    # largest (at 1e-300 if none is positive), and their sum lambda ln lambda.
    top = float(np.max(w))
    w = np.maximum(w, CLAMP_REL * top if top > 0 else 1e-300)
    log_w = np.log(w)
    return log_w, float(np.sum(w * log_w))


def objective_with_gradient(rho: np.ndarray, maps: PostprocessingMaps) -> tuple[float, np.ndarray]:
    """Objective in bits and its gradient G+[log2 G(rho)] - G+[log2 Z(G(rho))],
    both at `perturbed(rho)` and on the (K, d, d) stack of real blocks; rho is
    a symmetric stack of unit total trace, which the caller guarantees."""
    value, grad = 0.0, 0.0
    for sign, factor, blocks in _terms(perturbed(rho), maps):
        w, u = np.linalg.eigh(blocks)
        log_w, ent = _clamped_log(w)
        value += sign * ent
        grad = grad + sign * (factor.swapaxes(-1, -2) @ ((u * log_w[..., None, :]) @ u.swapaxes(-1, -2)) @ factor)
    return value / LN2, hermitize(grad) / LN2


def line_objective(rho: np.ndarray, delta: np.ndarray, maps: PostprocessingMaps):
    """Callable t -> objective(rho + t delta) on the stack, with the
    transformed endpoint matrices precomputed, for cheap exact line
    searches."""
    # perturbed(rho + t delta) = perturbed(rho) + t (1 - PERTURBATION) delta.
    ends = [
        (sign, start, (1.0 - PERTURBATION) * step)
        for (sign, _, start), (_, _, step) in zip(_terms(perturbed(rho), maps), _terms(delta, maps))
    ]

    def phi(t: float) -> float:
        return sum(sign * _clamped_log(np.linalg.eigvalsh(start + t * step))[1] for sign, start, step in ends) / LN2

    return phi
