"""Region operators and moment observables of the noisy heterodyne detector.

Region operator R_j integrates the POVM over the angular sector
[(2j-1)pi/4, (2j+1)pi/4) outside a central disk of radius delta_a; the
first/second-moment observables integrate the POVM against
sqrt(2)Re(y), sqrt(2)Im(y) and their squares.  Each moment reads one
homodyne arm, so every detector's moments are one per-arm linear form in q,
p, n and d (`moment_observables`): on the truncated operators it gives the
observables, and on a state's means the channel's simulated data
(`channel.simulate_statistics`).  The regions of identical arms,
the ideal detector included, and their central-disk complement are one
closed form: the angular integrals are elementary, and each radial integral
is a finite sum of positive terms, a gamma function times a regularized
incomplete gamma function Q (outside the disk) or P (inside it), summed on
the lattices of its orders 1, 3/2, ..., N + 1 (`fock.lattice_gamma`).  The ideal
detector is thermal occupation 0 of that sum, not a separate path.  Only the
regions of distinct arms are numeric, and only two of them: sectors 0 and 1
integrate the POVM over a tensor Gauss-Legendre grid in polar coordinates
(radius times angle), refined by `fock.refined` until two levels agree, and
the half turn S = diag((-1)^n) gives the other two, R_2 = S R_0 S and
R_3 = S R_1 S, so the regions are exactly covariant under the half turn and
the reflection (`_general_regions`).  Each grid is one call of the batched
kernel `detector.povm_weighted_sum`, one real GEMM whatever the number of
nodes.
One rule (`check_radius`, which the channel's P(x, z) applies too) refuses a
radius the regions cannot resolve, with ValueError and before any work that
grows with it: e^{-delta_a^2/(1 + max(nu1, nu2))} at most `fock.CLAMP_REL`.
That is the vacuum's mass outside the disk for identical arms and an upper
bound on it for distinct arms, and any radius the rule admits lies inside
the polar grid's outer radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detector import DetectorModel, povm_weighted_sum
from .fock import (
    CLAMP_REL, POWERS_OF_I, gammaln, gauss_legendre, hermitize, lattice_gamma, quadrature_operators, refined
)

__all__ = [
    "ObservableSet",
    "region_operators",
    "sector_harmonic",
    "check_radius",
    "moment_observables",
    "observable_set",
]

# Two successive levels of the distinct-arm polar quadrature agree to this.
POLAR_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """First/second-moment observables and region operators for ``detector``,
    all read-only (cached sets are shared).  The regions are the closed form
    for identical arms, the ideal detector included, and the polar quadrature
    for distinct arms.  A set compares and hashes by identity."""

    fq: np.ndarray
    fp: np.ndarray
    sq: np.ndarray
    sp: np.ndarray
    regions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    detector: DetectorModel

    def __post_init__(self):
        for m in (self.fq, self.fp, self.sq, self.sp, *self.regions):
            m.setflags(write=False)


def sector_harmonic(k: np.ndarray) -> np.ndarray:
    """sinc(k/4)/4 = (1/2pi) int_{|theta| < pi/4} e^{ik theta} d theta at
    integers k: an exact 0 at k = 0 mod 4, k != 0."""
    return np.where(k % 4 == 0, k == 0, np.sinc(k / 4)) / 4


def _identical_arm_operators(det: DetectorModel, delta_a: float, N: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Region operators and disk-complement diagonal of identical arms.

    G_y projects onto a thermal state of occupation nbar = nbar_d displaced
    to y/sqrt(eta_d).  With x = delta_a^2/(eta_d(1+nbar)), t = nbar/(1+nbar)
    and h = 2i + n - m, the radial integrals over |y| > delta_a (F = Q) and
    |y| < delta_a (F = P) are, for m <= n,
        W_F[m, n] = sum_{i=0}^{m} sqrt(m!/n!) C(n, m-i) t^{m-i}
                    (1+nbar)^{-h/2} Gamma(h/2+1)/i! F(h/2+1, x),
    with P, Q the regularized incomplete gamma pair (`fock.lattice_gamma`) and
    0^0 = 1, so nbar = 0 is the ideal detector.  Every term is positive, and
    writing nbar^{m-i} as t^{m-i} (1+nbar)^{m-i} keeps every factor below
    overflow.  With k = m - n, the sector's angular integral
    (1/2pi) int e^{ik theta} d theta is i^{jk} sinc(k/4)/4, so every entry is
        R_j[m, n] = i^{jk} sinc(k/4)/4 W[m, n],
    with W the symmetric W_Q whose diagonal entries are each divided by
    their computed whole-plane mass W_Q[m, m] + W_P[m, m], 1 up to rounding.
    The diagonal is thus a ratio of sums of positive terms, accurate however
    small e^{-x} is, and exactly 1/4 at delta_a = 0, where P = 0.  i^{jk} is
    read from the exact table `fock.POWERS_OF_I` and sinc(k/4)/4 from
    `sector_harmonic`, an exact 0 at k = 0 mod 4, k != 0, so the regions are
    exactly covariant under the quarter turn and the reflection, and their
    sum is exactly diagonal.  The disk complement is the diagonal W_P[m, m].
    """
    nbar = det.nbar_d
    s = np.arange(2 * N + 1) / 2 + 1
    x = delta_a * delta_a / (det.eta_d * (1 + nbar))
    P, Q = lattice_gamma(x, N)
    log_fact = gammaln(np.arange(N + 1) + 1.0)
    m, n, i = np.indices((N + 1,) * 3).reshape(3, -1)
    keep = (i <= m) & (m <= n)
    m, n, i = m[keep], n[keep], i[keep]
    h = 2 * i + n - m
    terms = (nbar / (1 + nbar)) ** (m - i) * np.exp(
        0.5 * (log_fact[m] + log_fact[n])
        - log_fact[m - i]
        - log_fact[n - m + i]
        - log_fact[i]
        + gammaln(s)[h]
        - h / 2 * np.log1p(nbar)
    )

    def radial(F):
        return np.bincount(m * (N + 1) + n, weights=terms * F[h], minlength=(N + 1) ** 2).reshape(N + 1, N + 1)

    w_q, disk = radial(Q), np.diag(radial(P))
    w = w_q + np.triu(w_q, 1).T
    np.fill_diagonal(w, np.diag(w_q) / (np.diag(w_q) + disk))
    k = np.subtract.outer(np.arange(N + 1), np.arange(N + 1))
    sector = sector_harmonic(k) * w
    return tuple(POWERS_OF_I[j * k % 4] * sector for j in range(4)), disk


def _polar_grid_integral(det: DetectorModel, N: int, r_lo, r_hi, th_lo, th_hi, nodes):
    # Tensor Gauss-Legendre integral of G_y over the polar patch, nodes = (n_r, n_th).
    n_r, n_th = nodes
    xr, wr = gauss_legendre(n_r)
    xt, wt = gauss_legendre(n_th)
    r = 0.5 * (r_hi - r_lo) * (xr + 1.0) + r_lo
    wr = wr * 0.5 * (r_hi - r_lo)
    th = 0.5 * (th_hi - th_lo) * (xt + 1.0) + th_lo
    wt = wt * 0.5 * (th_hi - th_lo)
    y = (r[:, None] * np.exp(1j * th)).ravel()
    return povm_weighted_sum(y, np.outer(wr * r, wt).ravel(), det, N)


def _general_regions(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    # Sectors 0 and 1 are refined from 48 x 24 to 120 x 60 nodes until two
    # levels agree to POLAR_TOL.  The half turn S = diag((-1)^n) maps them
    # onto sectors 2 and 3.  The reflection y -> conj(y) keeps each arm on its
    # axis and conjugates G_y, so R_0 = conj(R_0) and R_3 = conj(R_1): R_0 is
    # taken real and R_1 averaged with S conj(R_1) S, so both hold exactly.
    r_hi = 6.0 * np.sqrt(1.0 + max(det.nu1, det.nu2)) + 4.0
    levels = ((48, 24), (72, 36), (96, 48), (120, 60))
    ops = []
    for j in (0, 1):
        rule = partial(_polar_grid_integral, det, N, delta_a, r_hi, (2 * j - 1) * np.pi / 4, (2 * j + 1) * np.pi / 4)
        ops.append(hermitize(refined(rule, levels, POLAR_TOL, "polar quadrature")))
    half_turn = (-1.0) ** np.add.outer(np.arange(N + 1), np.arange(N + 1))  # S X S = half_turn * X
    r_0 = ops[0].real + 0j
    r_1 = 0.5 * (ops[1] + half_turn * ops[1].conj())
    return r_0, r_1, half_turn * r_0, half_turn * r_1


def check_radius(det: DetectorModel, delta_a: float, N: int) -> None:
    """ValueError unless delta_a is finite, >= 0 and resolvable at cutoff N
    (module docstring)."""
    if not 0.0 <= delta_a < np.inf:
        raise ValueError(f"postselection radius must be finite and >= 0, got {delta_a}")
    x = delta_a * delta_a / (1 + max(det.nu1, det.nu2))
    if math.exp(-x) <= CLAMP_REL:
        raise ValueError(f"delta_a = {delta_a} leaves the vacuum at most e^-{x:.4g} outside the disk at cutoff {N}")


def region_operators(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    """Key-map region operators R_0..R_3 in the truncated photon-number basis:
    the closed form for identical arms, the polar quadrature for distinct arms.
    ValueError unless delta_a passes `check_radius`.

    With delta_a = 0 the closed form resolves the identity exactly at every
    truncation: each diagonal is 1/4, and the off-diagonal entries of the
    sum are exact zeros (`_identical_arm_operators`).
    """
    check_radius(det, delta_a, N)
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    if det.simple_case():
        return _identical_arm_operators(det, delta_a, N)[0]
    return _general_regions(det, delta_a, N)


def moment_observables(det: DetectorModel, q, p, n, d, one):
    """First-moment (F_Q, F_P) and second-moment (S_Q, S_P) forms, linear in
    the quadratures q, p, the photon number n, d = a^2 + a+^2 and the unit
    ``one``: operators (`observable_set`) or their means on a state
    (`channel.simulate_statistics`).

    F_Q and S_Q integrate the POVM against sqrt(2) Re(y) and 2 Re(y)^2, so
    they read arm 1 alone; F_P and S_P read arm 2 alone.  Integrating out the
    other arm leaves one homodyne arm: a beam splitter of transmittance eta_j
    that mixes in vacuum, then electronic noise nu_j.  Each moment is thus the
    ideal detector's (q, p, n + d/2 + 1, n - d/2 + 1) scaled by sqrt(eta_j)
    or eta_j, and each second moment gains the added noise 1 - eta_j + nu_j:
        F_Q = sqrt(eta_1) q,  S_Q = eta_1 (n + d/2) + (1 + nu_1),
        F_P = sqrt(eta_2) p,  S_P = eta_2 (n - d/2) + (1 + nu_2),
    for any pair of arms.  The ideal detector gives exactly the operators that
    the untrusted scenario constrains.
    """
    return (
        np.sqrt(det.eta1) * q,
        np.sqrt(det.eta2) * p,
        det.eta1 * (n + d / 2) + (1 + det.nu1) * one,
        det.eta2 * (n - d / 2) + (1 + det.nu2) * one,
    )


def observable_set(det: DetectorModel, delta_a: float, N: int) -> ObservableSet:
    """Moment observables plus region operators for one detector and radius."""
    if N < 2:
        raise ValueError("cutoff N must be >= 2 for second-moment observables")
    moments = moment_observables(det, *quadrature_operators(N), np.eye(N + 1))
    return ObservableSet(*moments, region_operators(det, delta_a, N), det)
