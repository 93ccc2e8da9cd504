"""Register-space postprocessing maps, the full-space objective and the
basis change to the symmetry blocks, formed literally, as test oracles.

The package computes the objective on the symmetry-reduced state, a stack of
real blocks, and never forms G(rho) = K rho K+, its pinching Z, any operator
on A (x) B beyond the lifted state, or the basis change U as a product; it
builds every block entrywise from the factors of a product.  These do form
them, so the tests can check the reduced evaluation against the definition,
on any state, invariant or not, and the entrywise blocks against U+ op U.
"""

from __future__ import annotations

import numpy as np

from dmrate.entropy import objective_with_gradient
from dmrate.fock import CLAMP_REL, check_hermitian, hermitian_sqrt, hermitize
from dmrate.maps import PostprocessingMaps

DIM_R = 4
DIM_A = 4
LN2 = float(np.log(2.0))
_POWERS_OF_I = np.array([1.0, 1.0j, -1.0, -1.0j])


def _phases(n_b: int) -> tuple[np.ndarray, np.ndarray]:
    # U = D (F (x) 1_B): D = diag(i^{nx}) on |x>|n>, F[x, k] = i^{-kx}/2.
    x = np.arange(DIM_A)
    d = _POWERS_OF_I[np.outer(x, np.arange(n_b)) % 4]
    f = 0.5 * _POWERS_OF_I[(-np.outer(x, x)) % 4]
    return d, f


def to_block_basis(op: np.ndarray, n_b: int) -> np.ndarray:
    """U+ op U for an operator on A (x) B, U[(x, n), (k, n)] = i^{(n-k)x}/2."""
    d, f = _phases(n_b)
    t = op.reshape(DIM_A, n_b, DIM_A, n_b) * (d.conj()[:, :, None, None] * d[None, None, :, :])
    t = np.tensordot(f.conj(), t, axes=(0, 0))  # (k, n, y, m)
    t = np.tensordot(t, f, axes=(2, 0))  # (k, n, m, l)
    return t.transpose(0, 1, 3, 2).reshape(DIM_A * n_b, DIM_A * n_b)


def from_block_basis(m: np.ndarray, n_b: int) -> np.ndarray:
    """U m U+, the inverse of `to_block_basis`."""
    d, f = _phases(n_b)
    t = np.tensordot(f, m.reshape(DIM_A, n_b, DIM_A, n_b), axes=(1, 0))  # (x, n, l, m)
    t = np.tensordot(t, f.conj(), axes=(2, 1))  # (x, n, m, y)
    t = t.transpose(0, 1, 3, 2) * (d[:, :, None, None] * d.conj()[None, None, :, :])
    return t.reshape(DIM_A * n_b, DIM_A * n_b)


def reduce(maps: PostprocessingMaps, op: np.ndarray) -> np.ndarray:
    """The real (K, d, d) blocks Re(U_j+ op U_j) of a Hermitian operator on
    A (x) B: Tr(rho op) = sum_j Tr(B_j block_j) for every invariant rho, and
    the blocks are those of the group average of op."""
    full = to_block_basis(op, op.shape[0] // DIM_A)
    return full[maps.columns[:, :, None], maps.columns[:, None, :]].real


def lift(maps: PostprocessingMaps, blocks: np.ndarray) -> np.ndarray:
    """The operator on A (x) B whose blocks are ``blocks``, by U M U+."""
    n = maps.dim_ab
    m = np.zeros((n, n), dtype=complex)
    m[maps.columns[:, :, None], maps.columns[:, None, :]] = blocks
    return from_block_basis(m, n // DIM_A)


def kraus_blocks(roots) -> tuple[np.ndarray, ...]:
    """E_z = 1_A (x) sqrt(R_z), from the square roots of the regions."""
    return tuple(np.kron(np.eye(DIM_A, dtype=complex), s) for s in roots)


def roots(maps: PostprocessingMaps) -> tuple[np.ndarray, ...]:
    """sqrt(R_z) of every region, by a complex eigendecomposition."""
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
    rho = np.asarray(rho, dtype=complex)
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


def reduced_objective_with_gradient(stack: np.ndarray, maps: PostprocessingMaps) -> tuple[float, np.ndarray]:
    """The package's objective at a positive definite stack rho, in bits,
    and its gradient in rho coordinates: `entropy.objective_with_gradient`
    at sigma = W rho W^T, from an eigendecomposition of sigma, with its
    gradient pulled back as W^T grad W."""
    w = maps.kraus_factor
    lam, u = np.linalg.eigh(w @ stack @ w.swapaxes(1, 2))
    f, grad = objective_with_gradient(np.log(lam), u, maps.pinch_factors @ np.linalg.inv(w), maps.pinch_weights)
    return f / LN2, w.swapaxes(1, 2) @ grad @ w / LN2
