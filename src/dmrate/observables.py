"""Region operators and moment observables of the noisy heterodyne detector.

Region operator R_j integrates the POVM over the angular sector
[(2j-1)pi/4, (2j+1)pi/4) outside a central disk of radius delta_a; the
first/second-moment observables integrate the POVM against
sqrt(2)Re(y), sqrt(2)Im(y) and their squares.  Each moment reads one
homodyne arm, so every detector's moments are one per-arm closed form in the
quadrature operators (`moment_observables`).  The regions of identical arms
are closed forms too (angular integrals are elementary, radial integrals
reduce to a gamma function times a Taylor coefficient, and the central-disk
integrals of postselection to finite sums of incomplete gamma functions);
the ideal detector reduces to incomplete-gamma radial masses.  Only the
regions of distinct arms are numeric: they integrate the POVM over a tensor
Gauss-Legendre grid in polar coordinates (radius times angle), refined until
two levels agree.  Each grid is one call of the batched kernel
`detector.povm_weighted_sum`, one matmul whatever the number of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as gamma_fn

import numpy as np
from scipy.special import gammaincc, gammainc, gammaln

from .detector import DetectorModel, povm_weighted_sum
from .fock import hermitize, quadrature_operators, taylor_f

__all__ = [
    "ObservableSet",
    "region_operators",
    "region_complement",
    "moment_observables",
    "observable_set",
]

# Two successive levels of the distinct-arm polar quadrature agree to this.
POLAR_TOL = 1e-8


@dataclass(frozen=True)
class ObservableSet:
    """First/second-moment observables and region operators for one detector,
    all read-only (cached sets are shared).  ``method`` names the path that
    built the regions: "ideal", "closed-form" or "numeric"."""

    fq: np.ndarray
    fp: np.ndarray
    sq: np.ndarray
    sp: np.ndarray
    regions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    method: str

    def __post_init__(self):
        for m in (self.fq, self.fp, self.sq, self.sp, *self.regions):
            m.setflags(write=False)


def _sector_phase(k: int, j: int) -> complex:
    # Integral of e^{ik theta} over [(2j-1)pi/4, (2j+1)pi/4), k != 0.
    return 1j * (np.exp(1j * k * (2 * j - 1) * np.pi / 4) - np.exp(1j * k * (2 * j + 1) * np.pi / 4)) / k


def _log_cmn(m: int, n: int, eta: float, nbar: float) -> float:
    # C_{m,n} = (1/(pi eta^{(n-m)/2+1})) sqrt(m!/n!) nbar^m/(1+nbar)^{n+1}
    return (
        -np.log(np.pi)
        - ((n - m) / 2 + 1) * np.log(eta)
        + 0.5 * (gammaln(m + 1) - gammaln(n + 1))
        + m * np.log(nbar)
        - (n + 1) * np.log1p(nbar)
    )


def _disk_head(m: int, k: int, A: float, B: float, delta_a: float) -> float:
    """integral_0^{delta_a} exp(-r^2/A) L_m^{(k)}(-r^2/B) r^{k+1} dr in closed form:
    (1/2) sum_{j=0}^m C(m+k, m-j)/j! B^{-j} A^{s_j} Gamma(s_j) P(s_j, delta_a^2/A)
    with s_j = j + k/2 + 1 and P the regularized lower incomplete gamma.
    Every term is positive, so the sum does not cancel; the coefficients go
    through log-gamma."""
    j = np.arange(m + 1)
    s = j + k / 2 + 1
    log_coef = (
        gammaln(m + k + 1.0)
        - gammaln(m - j + 1.0)
        - gammaln(k + j + 1.0)
        - gammaln(j + 1.0)
        - j * np.log(B)
        + s * np.log(A)
        + gammaln(s)
    )
    return 0.5 * float(np.sum(np.exp(log_coef) * gammainc(s, delta_a * delta_a / A)))


def _radial_tail(m: int, n: int, eta: float, nbar: float, delta_a: float) -> float:
    """integral_{delta_a}^inf exp(-r^2/A) L_m^{(n-m)}(-r^2/B) r^{n-m+1} dr
    with A = eta(1+nbar), B = eta nbar (1+nbar), for m <= n."""
    A = eta * (1.0 + nbar)
    B = eta * nbar * (1.0 + nbar)
    k = n - m
    full = 0.5 * A ** (k / 2 + 1) * gamma_fn(k / 2 + 1) * taylor_f(m, nbar, k, k / 2)
    if delta_a == 0.0:
        return full
    return full - _disk_head(m, k, A, B, delta_a)


def _ideal_regions(delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    ops = []
    x = delta_a * delta_a
    for j in range(4):
        R = np.zeros((N + 1, N + 1), dtype=complex)
        for m in range(N + 1):
            R[m, m] = 0.25 * gammaincc(m + 1, x)
            for n in range(m + 1, N + 1):
                s = (m + n) / 2 + 1
                radial = 0.5 * gamma_fn(s) * gammaincc(s, x)
                val = (
                    _sector_phase(m - n, j)
                    * radial
                    * np.exp(-np.log(np.pi) - 0.5 * (gammaln(m + 1) + gammaln(n + 1)))
                )
                R[m, n] = val
                R[n, m] = np.conj(val)
        ops.append(R)
    return tuple(ops)


def _simple_disk_diagonal(eta: float, nbar: float, delta_a: float, N: int) -> np.ndarray:
    # Diagonal of the identical-arm disk operator |y| < delta_a.
    A, B = eta * (1 + nbar), eta * nbar * (1 + nbar)
    diag = np.zeros(N + 1)
    for m in range(N + 1):
        head = _disk_head(m, 0, A, B, delta_a)
        diag[m] = np.exp(m * np.log(nbar) - (m + 1) * np.log1p(nbar)) * head * 2 / eta
    return diag


def _simple_regions(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    eta, nbar = det.eta_d, det.nbar_d
    radial = {}
    for m in range(N + 1):
        for n in range(m + 1, N + 1):
            radial[(m, n)] = _radial_tail(m, n, eta, nbar, delta_a)
    # Each sector holds a quarter of the disk; dividing by 4 is exact.
    diag_corr = _simple_disk_diagonal(eta, nbar, delta_a, N) / 4 if delta_a > 0.0 else np.zeros(N + 1)
    ops = []
    for j in range(4):
        R = np.zeros((N + 1, N + 1), dtype=complex)
        for m in range(N + 1):
            R[m, m] = 0.25 - diag_corr[m]
            for n in range(m + 1, N + 1):
                val = np.exp(_log_cmn(m, n, eta, nbar)) * _sector_phase(m - n, j) * radial[(m, n)]
                R[m, n] = val
                R[n, m] = np.conj(val)
        ops.append(R)
    return tuple(ops)


def _polar_grid_integral(det: DetectorModel, N: int, r_lo, r_hi, th_lo, th_hi, n_r, n_th):
    # Tensor Gauss-Legendre integral of G_y over the polar patch.
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    xt, wt = np.polynomial.legendre.leggauss(n_th)
    r = 0.5 * (r_hi - r_lo) * (xr + 1.0) + r_lo
    wr = wr * 0.5 * (r_hi - r_lo)
    th = 0.5 * (th_hi - th_lo) * (xt + 1.0) + th_lo
    wt = wt * 0.5 * (th_hi - th_lo)
    y = (r[:, None] * np.exp(1j * th)).ravel()
    return povm_weighted_sum(y, np.outer(wr * r, wt).ravel(), det, N)


def _polar_integral_refined(det: DetectorModel, N: int, r_lo, r_hi, th_lo, th_hi):
    # Nested Gauss rule: refine the node counts until two levels agree to
    # POLAR_TOL.
    n_r, n_th = 48, 24
    prev = _polar_grid_integral(det, N, r_lo, r_hi, th_lo, th_hi, n_r, n_th)
    err = np.inf
    for _ in range(3):
        n_r, n_th = n_r + 24, n_th + 12
        cur = _polar_grid_integral(det, N, r_lo, r_hi, th_lo, th_hi, n_r, n_th)
        err = float(np.max(np.abs(cur - prev)))
        if err < POLAR_TOL:
            return cur
        prev = cur
    raise RuntimeError(f"polar quadrature did not converge (last refinement change {err:.2e})")


def _general_regions(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    r_hi = 6.0 * np.sqrt(1.0 + max(det.nu1, det.nu2)) + 4.0
    ops = []
    for j in range(4):
        th_lo, th_hi = (2 * j - 1) * np.pi / 4, (2 * j + 1) * np.pi / 4
        ops.append(hermitize(_polar_integral_refined(det, N, delta_a, r_hi, th_lo, th_hi)))
    return tuple(ops)


def _regions(det: DetectorModel, delta_a: float, N: int) -> tuple[str, tuple[np.ndarray, ...]]:
    # The one branch on the detector: the name of the region path and the
    # four operators it builds.
    if delta_a < 0:
        raise ValueError(f"postselection radius must be >= 0, got {delta_a}")
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    if det.is_ideal():
        return "ideal", _ideal_regions(delta_a, N)
    if det.simple_case():
        return "closed-form", _simple_regions(det, delta_a, N)
    return "numeric", _general_regions(det, delta_a, N)


def region_operators(det: DetectorModel, delta_a: float, N: int) -> tuple[np.ndarray, ...]:
    """Key-map region operators R_0..R_3 in the truncated photon-number basis.

    With delta_a = 0 the four operators resolve the identity exactly at every
    truncation (diagonals are 1/4 each; off-diagonal sector phases telescope).
    """
    return _regions(det, delta_a, N)[1]


def region_complement(det: DetectorModel, delta_a: float, N: int) -> np.ndarray:
    """Operator of the discarded central disk |y| < delta_a; diagonal, since
    the full-circle angular integral kills every off-diagonal entry."""
    if delta_a < 0:
        raise ValueError(f"postselection radius must be >= 0, got {delta_a}")
    if det.is_ideal():
        diag = gammainc(np.arange(N + 1) + 1, delta_a * delta_a)
        return np.diag(diag).astype(complex)
    if not det.simple_case():
        raise ValueError("disk complement implemented for identical arms only")
    diag = _simple_disk_diagonal(det.eta_d, det.nbar_d, delta_a, N)
    return np.diag(diag).astype(complex)


def moment_observables(det: DetectorModel, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First-moment (F_Q, F_P) and second-moment (S_Q, S_P) observables.

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
    if N < 2:
        raise ValueError("cutoff N must be >= 2 for second-moment observables")
    q, p, n_op, d = quadrature_operators(N)
    eye = np.eye(N + 1)
    return (
        np.sqrt(det.eta1) * q,
        np.sqrt(det.eta2) * p,
        det.eta1 * (n_op + d / 2) + (1 + det.nu1) * eye,
        det.eta2 * (n_op - d / 2) + (1 + det.nu2) * eye,
    )


def observable_set(det: DetectorModel, delta_a: float, N: int) -> ObservableSet:
    """Moment observables plus region operators for one detector and radius."""
    moments = moment_observables(det, N)
    method, regions = _regions(det, delta_a, N)
    return ObservableSet(*moments, regions, method)
