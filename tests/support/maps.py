"""Register-space postprocessing maps and the full-space objective, formed
literally, as test oracles.

The package computes the objective on the symmetry-reduced state, a stack of
real blocks, and never forms G(rho) = K rho K+, its pinching Z or any
operator on A (x) B beyond the constraint rows; these do, so the tests can
check the reduced evaluation against the definition, on any state, invariant
or not.
"""

from __future__ import annotations

import numpy as np

from dmrate.entropy import PERTURBATION
from dmrate.fock import CLAMP_REL, check_hermitian, hermitian_sqrt, hermitize
from dmrate.maps import PostprocessingMaps

DIM_R = 4
DIM_A = 4
LN2 = float(np.log(2.0))


def kraus_blocks(roots) -> tuple[np.ndarray, ...]:
    """E_z = 1_A (x) sqrt(R_z), from the square roots of the regions."""
    return tuple(np.kron(np.eye(DIM_A, dtype=complex), s) for s in roots)


def roots(maps: PostprocessingMaps) -> tuple[np.ndarray, ...]:
    """sqrt(R_z), computed as the package computes it."""
    return tuple(hermitian_sqrt(r) for r in maps.regions)


def kraus(maps: PostprocessingMaps) -> np.ndarray:
    """K, the blocks E_z stacked over the register index."""
    return np.vstack(kraus_blocks(roots(maps)))


def kraus_gram(maps: PostprocessingMaps) -> np.ndarray:
    """K+K on A (x) B."""
    out = np.zeros((maps.dim_ab, maps.dim_ab), dtype=complex)
    for blk in kraus_blocks(roots(maps)):
        out += blk.conj().T @ blk
    return out


def z_projector(maps: PostprocessingMaps, j: int) -> np.ndarray:
    """|j><j| on the register, tensored with the identity on A (x) B."""
    proj = np.zeros((DIM_R, DIM_R), dtype=complex)
    proj[j, j] = 1.0
    return np.kron(proj, np.eye(maps.dim_ab, dtype=complex))


def apply_G(rho: np.ndarray, maps: PostprocessingMaps) -> np.ndarray:
    """K rho K+ on register (x) A (x) B; trace equals the kept mass of rho."""
    rho = check_hermitian(rho)
    if np.linalg.eigvalsh(rho).min() < -1e-7:
        raise ValueError("state is not positive semidefinite within 1e-7")
    k = kraus(maps)
    return hermitize(k @ rho @ k.conj().T)


def apply_G_adjoint(y: np.ndarray, maps: PostprocessingMaps) -> np.ndarray:
    k = kraus(maps)
    return hermitize(k.conj().T @ np.asarray(y, dtype=complex) @ k)


def apply_Z(sigma: np.ndarray, maps: PostprocessingMaps) -> np.ndarray:
    """Pinching over the key register: keep the register-diagonal blocks."""
    sigma = np.asarray(sigma, dtype=complex)
    d = maps.dim_ab
    if sigma.shape != (DIM_R * d, DIM_R * d):
        raise ValueError(f"expected operator on the register space, got shape {sigma.shape}")
    out = np.zeros_like(sigma)
    for z in range(DIM_R):
        sl = slice(z * d, (z + 1) * d)
        out[sl, sl] = sigma[sl, sl]
    return out


def hermitian_log(M: np.ndarray) -> np.ndarray:
    """Matrix log by eigendecomposition with eigenvalues clamped to
    CLAMP_REL * lambda_max before the log."""
    w, U = np.linalg.eigh(check_hermitian(M))
    if w[-1] <= 0:
        raise ValueError("matrix log needs at least one positive eigenvalue")
    w = np.maximum(w, CLAMP_REL * float(w[-1]))
    return hermitize((U * np.log(w)) @ U.conj().T)


def _perturb(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - PERTURBATION) * rho + (PERTURBATION / d) * np.eye(d, dtype=complex)


def _clamped_log(mat: np.ndarray) -> tuple[np.ndarray, float]:
    w, u = np.linalg.eigh(mat)
    w = np.maximum(w, CLAMP_REL * w[-1] if w[-1] > 0 else 1e-300)
    log_w = np.log(w)
    return (u * log_w) @ u.conj().T, float(np.sum(w * log_w))


def full_objective_with_gradient(rho: np.ndarray, sqrt_regions) -> tuple[float, np.ndarray]:
    """The objective in bits and its gradient on A (x) B, at any Hermitian
    state rho, for the regions with square roots ``sqrt_regions``: the
    spectrum of G(rho) is that of W rho W+ with W+W = K+K, and the
    register-diagonal blocks of G(rho) are E_z rho E_z+."""
    blocks = kraus_blocks(sqrt_regions)
    w = np.linalg.qr(np.vstack(blocks), mode="r")
    rho = _perturb(np.asarray(rho, dtype=complex))
    log_sigma, term1 = _clamped_log(w @ rho @ w.conj().T)
    grad = w.conj().T @ log_sigma @ w
    term2 = 0.0
    for blk in blocks:
        log_tau, ent = _clamped_log(blk @ rho @ blk.conj().T)
        term2 += ent
        grad -= blk.conj().T @ log_tau @ blk
    return (term1 - term2) / LN2, hermitize(grad) / LN2


def full_objective(rho: np.ndarray, sqrt_regions) -> float:
    return full_objective_with_gradient(rho, sqrt_regions)[0]
