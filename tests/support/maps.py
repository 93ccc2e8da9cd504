"""Register-space postprocessing maps, formed literally, as test oracles.

The package computes the objective on the column space of the Kraus
operator K and never forms G(rho) = K rho K+ or its pinching Z on the
register (x) A (x) B space; these do, so the tests can check the reduced
evaluation against the definition.
"""

from __future__ import annotations

import numpy as np

from dmrate.fock import CLAMP_REL, check_hermitian, hermitize
from dmrate.maps import PostprocessingMaps

DIM_R = 4


def kraus(maps: PostprocessingMaps) -> np.ndarray:
    """K, the blocks E_z stacked over the register index."""
    return np.vstack(maps.blocks)


def kraus_gram(maps: PostprocessingMaps) -> np.ndarray:
    """K+K on A (x) B."""
    out = np.zeros((maps.dim_ab, maps.dim_ab), dtype=complex)
    for blk in maps.blocks:
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
