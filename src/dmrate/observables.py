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
the lattices of its orders 1, 3/2, ..., N + 1 (`_lattice_gamma`).  The ideal
detector is thermal occupation 0 of that sum, not a separate path.  Only the
regions of distinct arms are numeric: they integrate the POVM over a tensor
Gauss-Legendre grid in polar coordinates (radius times angle), refined by
`fock.refined` until two levels agree.  Each grid is one call of the batched
kernel `detector.povm_weighted_sum`, one matmul whatever the number of nodes.
A radius the regions cannot resolve raises ValueError, before any work that
grows with it: for identical arms where the vacuum's mass outside the disk,
e^{-x}, is at most `fock.CLAMP_REL`, and for distinct arms where it reaches
the polar grid's outer radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detector import DetectorModel, povm_weighted_sum
from .fock import CLAMP_REL, erfc, gammaln, gauss_legendre, hermitize, quadrature_operators, refined

__all__ = [
    "ObservableSet",
    "region_operators",
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


def _sector_phase(k: int, j: int) -> complex:
    # Integral of e^{ik theta} over [(2j-1)pi/4, (2j+1)pi/4), k != 0.
    return 1j * (np.exp(1j * k * (2 * j - 1) * np.pi / 4) - np.exp(1j * k * (2 * j + 1) * np.pi / 4)) / k


def _lattice_gamma(x: float, N: int) -> tuple[np.ndarray, np.ndarray]:
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


def _identical_arm_operators(det: DetectorModel, delta_a: float, N: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Region operators and disk-complement diagonal of identical arms.

    G_y projects onto a thermal state of occupation nbar = nbar_d displaced
    to y/sqrt(eta_d).  With x = delta_a^2/(eta_d(1+nbar)), t = nbar/(1+nbar)
    and h = 2i + n - m, the radial integrals over |y| > delta_a (F = Q) and
    |y| < delta_a (F = P) are, for m <= n,
        W_F[m, n] = sum_{i=0}^{m} sqrt(m!/n!) C(n, m-i) t^{m-i}
                    (1+nbar)^{-h/2} Gamma(h/2+1)/i! F(h/2+1, x),
    with P, Q the regularized incomplete gamma pair (`_lattice_gamma`) and
    0^0 = 1, so nbar = 0 is the ideal detector.  Every term is positive, and
    writing nbar^{m-i} as t^{m-i} (1+nbar)^{m-i} keeps every factor below
    overflow.  R_j[m, n] is W_Q[m, n] times the sector phase over 2 pi for
    m < n, and 1/4 - W_P[m, m]/4 on the diagonal, exactly 1/4 at
    delta_a = 0.  The disk complement is the diagonal W_P[m, m].
    """
    nbar = det.nbar_d
    s = np.arange(2 * N + 1) / 2 + 1
    x = delta_a * delta_a / (det.eta_d * (1 + nbar))
    if math.exp(-x) <= CLAMP_REL:  # the vacuum's mass outside the disk; the lattices grow with x
        raise ValueError(f"delta_a = {delta_a} leaves the vacuum no resolvable mass (e^-{x:.4g}) at cutoff {N}")
    P, Q = _lattice_gamma(x, N)
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
    upper = np.triu_indices(N + 1, 1)
    ops = []
    for j in range(4):
        R = np.diag(0.25 - disk / 4).astype(complex)
        R[upper] = _sector_phase(upper[0] - upper[1], j) / (2 * np.pi) * w_q[upper]
        R[upper[::-1]] = np.conj(R[upper])
        ops.append(R)
    return tuple(ops), disk


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
    # Each sector's patch is refined from 48 x 24 to 120 x 60 nodes until two levels agree to POLAR_TOL.
    r_hi = 6.0 * np.sqrt(1.0 + max(det.nu1, det.nu2)) + 4.0
    if delta_a >= r_hi:
        raise ValueError(f"delta_a = {delta_a} reaches the polar quadrature's outer radius {r_hi:.4g} at cutoff {N}")
    levels = ((48, 24), (72, 36), (96, 48), (120, 60))
    ops = []
    for j in range(4):
        rule = partial(_polar_grid_integral, det, N, delta_a, r_hi, (2 * j - 1) * np.pi / 4, (2 * j + 1) * np.pi / 4)
        ops.append(hermitize(refined(rule, levels, POLAR_TOL, "polar quadrature")))
    return tuple(ops)


def region_operators(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    """Key-map region operators R_0..R_3 in the truncated photon-number basis:
    the closed form for identical arms, the polar quadrature for distinct arms.
    ValueError unless delta_a is finite, >= 0 and resolvable (module docstring).

    With delta_a = 0 the four operators resolve the identity exactly at every
    truncation (diagonals are 1/4 each; off-diagonal sector phases telescope).
    """
    if not 0.0 <= delta_a < np.inf:
        raise ValueError(f"postselection radius must be finite and >= 0, got {delta_a}")
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
