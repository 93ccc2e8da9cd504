"""Displaced thermal states by the Laguerre closed form, as oracles.

The package builds displaced thermal states in one place, the POVM kernel
`dmrate.detector.povm_weighted_sum` (the channel's conditional states are pi
times one of its elements).  This module is the independent route the tests
check it against: coherent amplitudes from log-gamma, and the matrix
elements of D(alpha) rho_th(nbar) D(alpha)+ from the generalized Laguerre
polynomials, evaluated by their stable recurrence.
"""

from __future__ import annotations

import numpy as np

from dmrate.fock import gammaln

__all__ = ["laguerre", "coherent_state_vector", "displaced_thermal_matrix"]


def laguerre(k: int, j: int, x: float) -> float:
    """Generalized Laguerre polynomial L_k^(j)(x) by the stable recurrence.

    Raises ValueError for negative degree or parameter.
    """
    if k < 0 or j < 0:
        raise ValueError(f"laguerre needs k >= 0 and j >= 0, got k={k}, j={j}")
    if k == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + j - x
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 + j - x) * cur - (i + j) * prev) / (i + 1)
    return cur


def coherent_state_vector(alpha: complex, N: int) -> np.ndarray:
    """Amplitudes <n|alpha> for n = 0..N (not renormalized after truncation)."""
    if alpha == 0:
        v = np.zeros(N + 1, dtype=complex)
        v[0] = 1.0
        return v
    n = np.arange(N + 1)
    logmag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag) * phase


def displaced_thermal_matrix(alpha: complex, nbar: float, N: int) -> np.ndarray:
    """Photon-number matrix of D(alpha) rho_th(nbar) D(alpha)+, truncated at N.

    For m <= n the entry is
        exp(-|alpha|^2/(1+nbar)) * nbar^m/(1+nbar)^(n+1) * conj(alpha)^(n-m)
        * sqrt(m!/n!) * L_m^(n-m)(-|alpha|^2/(nbar(1+nbar))),
    the rest by Hermiticity.  nbar -> 0 reduces to the coherent projector.
    """
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    if nbar < 1e-12:
        v = coherent_state_vector(alpha, N)
        return np.outer(v, v.conj())
    rho = np.zeros((N + 1, N + 1), dtype=complex)
    aa = abs(alpha) ** 2
    larg = -aa / (nbar * (1.0 + nbar))
    for m in range(N + 1):
        for n in range(m, N + 1):
            logmag = (
                -aa / (1.0 + nbar)
                + m * np.log(nbar)
                - (n + 1) * np.log1p(nbar)
                + 0.5 * (gammaln(m + 1) - gammaln(n + 1))
            )
            val = np.exp(logmag) * np.conj(alpha) ** (n - m) * laguerre(m, n - m, larg)
            rho[m, n] = val
            rho[n, m] = np.conj(val)
    return rho
