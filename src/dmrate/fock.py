"""Truncated Fock-space operator algebra and the special functions it needs.

Everything here is pure and deterministic.  Factorial ratios downstream go
through log-gamma, since their factorial forms overflow past degree ~20.  The
special functions are log-gamma (`gammaln`) and erfc, elementwise through
`math`, the incomplete gamma lattices of both key-map closed forms, regions
and P(x, z) (`lattice_gamma`), and, for the distinct-arm polar grid alone,
Gauss-Legendre rules (`gauss_legendre`, from Golub and Welsch's eigenproblem)
refined until two levels agree (`refined`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gammaln",
    "erfc",
    "lattice_gamma",
    "gauss_legendre",
    "refined",
    "hermitize",
    "check_hermitian",
    "quadrature_operators",
    "coherent_overlap",
    "hermitian_sqrt",
]

# A relative floor for three rules: the eigenvalues of `entropy`'s clamped
# logs (rank-deficient states), those `hermitian_sqrt` zeroes, and the vacuum
# mass outside the disk a radius must exceed in `observables.check_radius`.
CLAMP_REL = 1e-12

POWERS_OF_I = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k at k mod 4, exact
POWERS_OF_I.setflags(write=False)

_lgamma = np.frompyfunc(math.lgamma, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def gammaln(x):
    """log Gamma(x) for x > 0, elementwise; a scalar for scalar x."""
    return np.asarray(_lgamma(x), dtype=float)[()]


def erfc(x):
    """Complementary error function, elementwise; a scalar for scalar x."""
    return np.asarray(_erfc(x), dtype=float)[()]


def lattice_gamma(x: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The regularized incomplete gamma pair P(s, x), Q(s, x) at s = 1, 3/2,
    ..., N + 1, from the positive terms t_j = e^{-x} x^j / Gamma(j + 1),
    j = 0, 1/2, 1, ...  On each lattice (integer j, half-integer j) Q(s) sums
    the terms below s, plus Q(1/2, x) = erfc(sqrt(x)) on the half-integer one,
    and P(s) the terms from s on.  Past j = max(2x, N + 1) each term is at
    most half the one before, so 64 more take the tail below rounding.  At
    x = 0, P = 0 and Q = 1 exactly."""
    top = math.ceil(max(2 * x, N + 1)) + 64
    j = np.arange(2 * top + 2).reshape(-1, 2) / 2  # columns: the two lattices
    t = np.exp(j * math.log(x) - x - gammaln(j + 1)) if x > 0 else (j == 0).astype(float)
    below = np.cumsum(t, axis=0)  # up to and including j
    below[:, 1] += erfc(math.sqrt(x))
    above = np.cumsum(t[::-1], axis=0)[::-1]  # from j on
    # s runs over the flat positions 2 .. 2N + 2 of j; Q(s) sums up to s - 1.
    return above.ravel()[2 : 2 * N + 3], below.ravel()[: 2 * N + 1]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], read-only, since the cache hands out the same arrays every time.

    Golub and Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the Jacobi matrix of the Legendre recurrence (zero
    diagonal, off-diagonal k / sqrt(4k^2 - 1) for k = 1..n-1), and the
    weights twice the squared first entries of its unit eigenvectors."""
    if n < 1:
        raise ValueError(f"gauss_legendre needs n >= 1, got {n}")
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * v[0] ** 2
    # The rule is symmetric about 0; make it so exactly.
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    for arr in (x, w):
        arr.setflags(write=False)
    return x, w


def refined(rule, levels, tol: float, what: str) -> np.ndarray:
    """rule(level) at the first of ``levels`` that agrees with the level
    before it to ``tol`` in every entry; else RuntimeError naming ``what``."""
    prev, err = rule(levels[0]), np.inf
    for level in levels[1:]:
        cur = rule(level)
        err = float(np.max(np.abs(cur - prev)))
        if err < tol:
            return cur
        prev = cur
    raise RuntimeError(f"{what} did not converge (last refinement change {err:.2e})")


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m+)/2: the Hermitian part, exactly Hermitian afterwards; for a
    stack of matrices, of every matrix in it."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """The exactly Hermitian part of a square matrix whose asymmetry is at
    most 1e-8 relative to its largest entry (or 1).  Else ValueError.  A
    real matrix stays real (its Hermitian part is its symmetric part)."""
    m = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    return hermitize(m)


def quadrature_operators(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncated q, p, photon-number and d = a^2 + a+^2 matrices at cutoff N.

    The annihilation operator has <n-1|a|n> = sqrt(n), so q = (a + a+)/sqrt(2)
    and p = i(a+ - a)/sqrt(2) have sqrt(n/2) on their first off-diagonals,
    n = diag(0..N), and d has sqrt(n (n-1)) = sqrt(n-1) sqrt(n) on its
    second off-diagonals.  q, n and d are real; p is imaginary.  The
    truncated commutator [q, p] - i*identity is nonzero only in the last
    row/column.
    """
    if N < 1:
        raise ValueError("cutoff N must be >= 1; quadratures degenerate at N = 0")
    root = np.sqrt(np.arange(1, N + 1))
    a = np.diag(root, k=1)
    a2 = np.diag(root[:-1] * root[1:], k=2)
    q = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    return q, p, np.diag(np.arange(N + 1.0)), a2 + a2.T


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <b|a> of two coherent states."""
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(b) * a)


def hermitian_sqrt(M: np.ndarray) -> np.ndarray:
    """PSD square root by eigendecomposition; eigenvalues below the clamp
    threshold go to zero first.  A real symmetric M has a real root, taken
    by a real eigendecomposition."""
    w, U = np.linalg.eigh(check_hermitian(M))
    floor = CLAMP_REL * max(float(w[-1]), 0.0)
    w = np.where(w < floor, 0.0, w)
    return hermitize((U * np.sqrt(w)) @ U.conj().T)
