"""Noisy-heterodyne detector model and its POVM in the photon-number basis.

The detector is two homodyne detectors behind a 50:50 splitter, each modeled
as a beam-splitter of transmittance eta_j with a thermal state on the idle
port.  Each POVM element G_y is a scaled projection onto a displaced
(squeezed, if the two arms differ) thermal state, with closed-form matrix
elements.  The package needs G_y only inside integrals over the outcome
plane, so it has one POVM kernel: `povm_weighted_sum` builds a weighted sum
of G_y over many outcomes y at once, by one recurrence for any pair of arms
(equal arms included), and the distinct-arm quadrature of the region
operators calls it.  The kernel's one matrix product is real: the
recurrence fills the real and imaginary parts of its table side by side, and
its Gram matrix is one real GEMM on them, so no complex array reaches BLAS.
Single elements G_y (the identical-arm closed form and the one-node kernel
call) live with the tests in `tests/support/detector.py`, which check them
against an independent Wigner-quadrature oracle in `tests/support/wigner.py`;
so does the channel's truncated conditional state, a displaced thermal state
that is pi G_y of a detector of unit efficiency (`tests/support/channel.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import gammaln

__all__ = ["DetectorModel", "povm_weighted_sum"]

# Nodes per partial Gram matrix of `povm_weighted_sum`.  OpenBLAS's dgemm
# (0.3.31, x86-64) sums a long inner dimension in sequence: over 2592 polar
# nodes it rounds to ~2.7e-15 relative, against ~3e-16 for 64-node partial
# products added afterwards, as complex GEMM over the same nodes rounds.
_GRAM_CHUNK = 64


@dataclass(frozen=True)
class DetectorModel:
    """Efficiencies and electronic noises (SNU) of the two homodyne arms."""

    eta1: float
    eta2: float
    nu1: float
    nu2: float

    def __post_init__(self):
        for name in ("eta1", "eta2", "nu1", "nu2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for eta in (self.eta1, self.eta2):
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"detector efficiency must be in (0, 1], got {eta}")
        for nu in (self.nu1, self.nu2):
            if nu < 0.0:
                raise ValueError(f"electronic noise must be >= 0, got {nu}")

    @classmethod
    def simple(cls, eta_d: float, nu_el: float) -> "DetectorModel":
        return cls(eta_d, eta_d, nu_el, nu_el)

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(1.0, 1.0, 0.0, 0.0)

    def simple_case(self) -> bool:
        return self.eta1 == self.eta2 and self.nu1 == self.nu2

    @property
    def eta_d(self) -> float:
        if not self.simple_case():
            raise ValueError("eta_d is only defined for the simple (identical-arm) case")
        return self.eta1

    @property
    def nu_el(self) -> float:
        if not self.simple_case():
            raise ValueError("nu_el is only defined for the simple (identical-arm) case")
        return self.nu1

    @property
    def nbar_d(self) -> float:
        """Thermal occupation (1 - eta_d + nu_el)/eta_d of the displaced
        thermal state each G_y projects onto, simple case only."""
        if not self.simple_case():
            raise ValueError("nbar_d is only defined for the simple (identical-arm) case")
        return self.lambdas()[0]

    def lambdas(self) -> tuple[float, float]:
        """lambda_j = (1 - eta_j + nu_j)/eta_j for the two arms."""
        return (
            (1.0 - self.eta1 + self.nu1) / self.eta1,
            (1.0 - self.eta2 + self.nu2) / self.eta2,
        )


def povm_weighted_sum(ys, weights, det: DetectorModel, N: int) -> np.ndarray:
    """sum_i weights[i] G_{ys[i]} for arbitrary (eta_1, nu_1, eta_2, nu_2).
    ``ys`` is a 1-D array of outcomes and ``weights`` a real array of the
    same length, both finite (else ValueError); the result is one
    (N+1) x (N+1) matrix.

    Each G_y is a short sum of rank-1 terms,
        G_y = q0(y)/sqrt(eta_1 eta_2) sum_k (a_t^k/k!) w_k w_k^H,
        w_k[m] = sqrt(m!)/(m-k)! P_{m-k}(y) for m >= k (0 otherwise),
    where P_j = (b/sqrt2)^j H_j(c_t/(sqrt2 b)), with b^2 = B-tilde, obeys
        P_0 = 1, P_1 = c_t, P_{j+1} = c_t P_j - j B-tilde P_{j-1}.
    B-tilde = (lambda_2 - lambda_1)/(2(lambda_1+1)(lambda_2+1)) is real for
    either ordering of the arms, and 0 for equal lambdas, where P_j = c_t^j
    and G_y is a scaled displaced thermal state at alpha_het.  Here
    alpha_het = Re(y)/sqrt(eta_1) + i Im(y)/sqrt(eta_2) is the outcome
    rescaled by each arm's efficiency.
    Since w_k is P shifted down by k and rescaled entrywise, every term of
    the weighted sum is a block of the (N+1) x (N+1) Gram matrix
    M = P^T diag(weights q0) conj(P), with P the len(ys) x (N+1) table of
    P_j(y_i).  The recurrence runs on the real and imaginary parts of P side
    by side, in X = [Re P, Im P], and with G = X^T diag(weights q0) X,
        M = G_rr + G_ii + i (G_ir - G_ri):
    one real GEMM whatever the number of outcomes, batched over partial sums
    of _GRAM_CHUNK nodes.
    """
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    ys = np.asarray(ys, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if ys.ndim != 1 or weights.shape != ys.shape:
        raise ValueError(f"ys and weights must be 1-D of one length, got shapes {ys.shape} and {weights.shape}")
    if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(weights))):
        raise ValueError("ys and weights must be finite")
    lam1, lam2 = det.lambdas()
    # alpha_het: the Re axis of the outcome plane belongs to arm 1 and the
    # Im axis to arm 2, matching the Gaussian Wigner form of G_y.
    a_re, a_im = ys.real / np.sqrt(det.eta1), ys.imag / np.sqrt(det.eta2)
    a_t = 1.0 - (lam1 + lam2 + 2.0) / (2.0 * (lam1 + 1) * (lam2 + 1))
    c_re, c_im = a_re / (lam1 + 1), a_im / (lam2 + 1)  # c_t
    q0 = (
        (1.0 / np.pi)
        / np.sqrt((lam1 + 1) * (lam2 + 1))
        * np.exp(-a_re**2 / (lam1 + 1) - a_im**2 / (lam2 + 1))
    )
    btilde = (lam2 - lam1) / (2.0 * (lam1 + 1) * (lam2 + 1))
    degree = np.arange(N + 1)
    # X = [Re P, Im P], zero-padded to whole chunks of _GRAM_CHUNK nodes.
    n = len(ys)
    X = np.zeros((-(-n // _GRAM_CHUNK) * _GRAM_CHUNK, 2 * (N + 1)))
    re, im = X[:n, : N + 1], X[:n, N + 1 :]
    re[:, 0] = 1.0
    re[:, 1], im[:, 1] = c_re, c_im
    for j in range(1, N):
        re[:, j + 1] = c_re * re[:, j] - c_im * im[:, j] - j * btilde * re[:, j - 1]
        im[:, j + 1] = c_re * im[:, j] + c_im * re[:, j] - j * btilde * im[:, j - 1]
    d = np.zeros(len(X))
    d[:n] = weights * (q0 / np.sqrt(det.eta1 * det.eta2))
    chunks = X.reshape(-1, _GRAM_CHUNK, X.shape[1])
    g = np.sum(chunks.swapaxes(1, 2) @ (d.reshape(-1, _GRAM_CHUNK, 1) * chunks), axis=0)
    gram = (g[: N + 1, : N + 1] + g[N + 1 :, N + 1 :]) + 1j * (g[N + 1 :, : N + 1] - g[: N + 1, N + 1 :])
    log_fact = gammaln(degree + 1.0)
    out = np.zeros_like(gram)
    for k in degree:
        size = N + 1 - k
        coef = np.exp(0.5 * log_fact[k:] - log_fact[:size])
        out[k:, k:] += (a_t**k * np.exp(-log_fact[k])) * np.outer(coef, coef) * gram[:size, :size]
    return out
