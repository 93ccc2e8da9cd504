"""Noisy-heterodyne detector model and its POVM in the photon-number basis.

The detector is two homodyne detectors behind a 50:50 splitter, each modeled
as a beam-splitter of transmittance eta_j with a thermal state on the idle
port.  Each POVM element G_y is a scaled projection onto a displaced
(squeezed, if the two arms differ) thermal state, with closed-form matrix
elements.  The package needs G_y only inside integrals over the outcome
plane, so it has one POVM kernel: `povm_weighted_sum` builds a weighted sum
of G_y over many outcomes y at once, for any pair of arms, and the
distinct-arm quadrature of the region operators calls it.
Single elements G_y (the identical-arm closed form and the one-node kernel
call) live with the tests in `tests/support/detector.py`, which check them
against an independent Wigner-quadrature oracle in `tests/support/wigner.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .fock import hermite

__all__ = ["DetectorModel", "povm_weighted_sum", "IDEAL_NBAR_THRESHOLD"]

# Below this effective thermal occupation a detector is ideal and its G_y are
# coherent projectors: the Laguerre arguments contain 1/nbar_d and become
# numerically treacherous, and the ideal limit is exact anyway.
IDEAL_NBAR_THRESHOLD = 1e-12

# lambda_1 == lambda_2 collapses the squeezing of the general POVM; at this
# gap the B-tilde powers in the general formula degenerate and their
# B-tilde -> 0 limit, the displaced-thermal form, takes over.
DEGENERATE_LAMBDA_GAP = 1e-12


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
        return (1.0 - self.eta_d + self.nu_el) / self.eta_d

    def is_ideal(self) -> bool:
        return self.simple_case() and self.nbar_d < IDEAL_NBAR_THRESHOLD

    def lambdas(self) -> tuple[float, float]:
        """lambda_j = (1 - eta_j + nu_j)/eta_j for the two arms."""
        return (
            (1.0 - self.eta1 + self.nu1) / self.eta1,
            (1.0 - self.eta2 + self.nu2) / self.eta2,
        )


def _btilde_sqrt(lam1: float, lam2: float) -> complex:
    # Square-root branch of B-tilde = -|lam1-lam2| / (2(lam1+1)(lam2+1)).
    # The branch must pair with the quadrature axes so that the matrix
    # elements reproduce the detector's two-quadrature Gaussian Wigner form
    # (Re axis governed by lam1, Im by lam2); that fixes i|B|^(1/2) for
    # lam1 > lam2 and -|B|^(1/2) otherwise, verified against the quadrature
    # oracle for both orderings.
    mag = np.sqrt(abs(lam1 - lam2) / (2 * (lam1 + 1) * (lam2 + 1)))
    return 1j * mag if lam1 > lam2 else -mag


def povm_weighted_sum(ys, weights, det: DetectorModel, N: int) -> np.ndarray:
    """sum_i weights[i] G_{ys[i]} for arbitrary (eta_1, nu_1, eta_2, nu_2).
    ``ys`` is a 1-D array of outcomes and ``weights`` a real array of the
    same length; the result is one (N+1) x (N+1) matrix.

    Each G_y is a short sum of rank-1 terms,
        G_y = q0(y)/sqrt(eta_1 eta_2) sum_k (a_t^k/k!) w_k w_k^H,
        w_k[m] = sqrt(m!)/(m-k)! P_{m-k}(y) for m >= k (0 otherwise),
    with P_j = (b/sqrt2)^j H_j(c_t/(sqrt2 b)) and b the B-tilde square root.
    Since w_k is P shifted down by k and rescaled entrywise, every term of
    the weighted sum is a block of the (N+1) x (N+1) Gram matrix
    M = P^T diag(weights q0) conj(P), with P the len(ys) x (N+1) table of
    P_j(y_i): one matmul, whatever the number of outcomes.
    Degenerate squeezing (lambda_1 == lambda_2) takes the b -> 0 limit
    P_j = c_t^j, a scaled displaced thermal state at alpha_het.  Here
    alpha_het = Re(y)/sqrt(eta_1) + i Im(y)/sqrt(eta_2) is the outcome
    rescaled by each arm's efficiency.
    """
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    ys = np.asarray(ys, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    lam1, lam2 = det.lambdas()
    alpha = ys.real / np.sqrt(det.eta1) + 1j * ys.imag / np.sqrt(det.eta2)  # alpha_het
    a_t = 1.0 - (lam1 + lam2 + 2.0) / (2.0 * (lam1 + 1) * (lam2 + 1))
    # The Re axis of the outcome plane belongs to arm 1 and the Im axis to
    # arm 2, matching the Gaussian Wigner form of G_y.
    c_t = alpha.real / (lam1 + 1) + 1j * alpha.imag / (lam2 + 1)
    q0 = (
        (1.0 / np.pi)
        / np.sqrt((lam1 + 1) * (lam2 + 1))
        * np.exp(-alpha.real**2 / (lam1 + 1) - alpha.imag**2 / (lam2 + 1))
    )
    degree = np.arange(N + 1)
    if abs(lam1 - lam2) < DEGENERATE_LAMBDA_GAP:
        P = c_t[:, None] ** degree
    else:
        b_sqrt = _btilde_sqrt(lam1, lam2)
        herm_arg = c_t / (np.sqrt(2.0) * b_sqrt)
        P = np.stack([hermite(j, herm_arg) for j in degree], axis=1) * (b_sqrt / np.sqrt(2.0)) ** degree
    d = weights * (q0 / np.sqrt(det.eta1 * det.eta2))
    gram = P.T @ (d[:, None] * P.conj())
    log_fact = gammaln(degree + 1.0)
    out = np.zeros_like(gram)
    for k in degree:
        size = N + 1 - k
        coef = np.exp(0.5 * log_fact[k:] - log_fact[:size])
        out[k:, k:] += (a_t**k * np.exp(-log_fact[k])) * np.outer(coef, coef) * gram[:size, :size]
    return out
