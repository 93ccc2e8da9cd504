"""Single POVM elements G_y in the photon-number basis, as oracles for the
package's one POVM kernel (`dmrate.detector.povm_weighted_sum`) and for the
observables that integrate it: the coherent projector of the ideal detector,
the identical-arm closed form, and the one-node kernel call for distinct
arms; and the kernel's weighted sum in complex arithmetic, one complex Gram
matrix of the recurrence's table, as the reference for its real GEMM."""

from __future__ import annotations

import numpy as np

from dmrate.detector import DetectorModel, povm_weighted_sum
from dmrate.fock import gammaln, hermitize
from support.fock import coherent_state_vector, displaced_thermal_matrix


def povm_element_simple(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y for identical detector arms: (1/(eta_d pi)) times a displaced
    thermal state at y/sqrt(eta_d) with occupation nbar_d."""
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    if not det.simple_case():
        raise ValueError("detector arms differ; use povm_element_kernel")
    eta = det.eta_d
    rho = displaced_thermal_matrix(y / np.sqrt(eta), det.nbar_d, N)
    return hermitize(rho / (eta * np.pi))


def povm_element_kernel(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y from one node of the batched kernel, for any pair of arms."""
    return hermitize(povm_weighted_sum(np.array([y]), np.ones(1), det, N))


def povm_element(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y by whichever closed form applies to the detector; the ideal
    detector takes the coherent projector (1/pi)|y><y|."""
    if det == DetectorModel.ideal():
        v = coherent_state_vector(y, N)
        return hermitize(np.outer(v, v.conj()) / np.pi)
    if det.simple_case():
        return povm_element_simple(y, det, N)
    return povm_element_kernel(y, det, N)


def povm_weighted_sum_complex(ys, weights, det: DetectorModel, N: int) -> np.ndarray:
    """`povm_weighted_sum` with its table P of P_j(y_i) complex and its Gram
    matrix formed as P^T diag(d) conj(P) in one complex product."""
    ys = np.asarray(ys, dtype=complex)
    lam1, lam2 = det.lambdas()
    alpha = ys.real / np.sqrt(det.eta1) + 1j * ys.imag / np.sqrt(det.eta2)
    a_t = 1.0 - (lam1 + lam2 + 2.0) / (2.0 * (lam1 + 1) * (lam2 + 1))
    c_t = alpha.real / (lam1 + 1) + 1j * alpha.imag / (lam2 + 1)
    q0 = np.exp(-alpha.real**2 / (lam1 + 1) - alpha.imag**2 / (lam2 + 1)) / (np.pi * np.sqrt((lam1 + 1) * (lam2 + 1)))
    btilde = (lam2 - lam1) / (2.0 * (lam1 + 1) * (lam2 + 1))
    P = np.empty((len(ys), N + 1), dtype=complex)
    P[:, 0], P[:, 1] = 1.0, c_t
    for j in range(1, N):
        P[:, j + 1] = c_t * P[:, j] - j * btilde * P[:, j - 1]
    d = np.asarray(weights, dtype=float) * q0 / np.sqrt(det.eta1 * det.eta2)
    gram = P.T @ (d[:, None] * P.conj())
    log_fact = gammaln(np.arange(N + 1) + 1.0)
    out = np.zeros_like(gram)
    for k in range(N + 1):
        coef = np.exp(0.5 * log_fact[k:] - log_fact[: N + 1 - k])
        out[k:, k:] += a_t**k * np.exp(-log_fact[k]) * np.outer(coef, coef) * gram[: N + 1 - k, : N + 1 - k]
    return out
