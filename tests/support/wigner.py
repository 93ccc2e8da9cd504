"""Gaussian Wigner functions and phase-space overlap quadrature.

This module is the tests' oracle path: operators are represented as functions
on the complex plane and traces are computed by adaptive 2-D quadrature
through the overlap formula Tr(FG) = pi * integral(W_F * W_G).  Nothing here
touches the analytic photon-number-basis constructors it is used to
cross-check; `povm_oracle_entry` checks the POVM matrix elements of
`dmrate.detector` this way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from dmrate.detector import DetectorModel
from support.fock import laguerre

__all__ = [
    "WignerGaussian",
    "QuadratureError",
    "wigner_state",
    "povm_wigner_gaussian",
    "transition_wigner",
    "plane_integral",
    "overlap_integral",
    "overlap_integral_complex",
    "povm_oracle_entry",
]

DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error ~{achieved:.2e})")
        self.achieved = achieved


@dataclass(frozen=True)
class WignerGaussian:
    """W(gamma) = prefactor * exp(-(Re(gamma-center))^2/var_q
                                  -(Im(gamma-center))^2/var_p).

    Integrates over the plane to prefactor * pi * sqrt(var_q * var_p).
    """

    center: complex
    var_q: float
    var_p: float
    prefactor: float

    def __post_init__(self):
        if self.var_q <= 0 or self.var_p <= 0:
            raise ValueError("variances must be positive")

    def __call__(self, gamma):
        dq = np.real(gamma) - self.center.real
        dp = np.imag(gamma) - self.center.imag
        return self.prefactor * np.exp(-(dq**2) / self.var_q - dp**2 / self.var_p)

    @property
    def box_radius(self) -> float:
        sigma = np.sqrt(max(self.var_q, self.var_p) / 2.0)
        return max(6.0, abs(self.center) + 6.0 * sigma)


def wigner_state(kind: str, alpha: complex = 0.0, nbar: float = 0.0, squeeze: float = 0.0) -> WignerGaussian:
    """Wigner function of a Gaussian state.

    kind: one of 'vacuum', 'thermal', 'dts' (displaced thermal), 'sts'
    (squeezed thermal), 'dsts' (displaced squeezed thermal).  The squeeze
    parameter is real; nbar is the pre-squeeze thermal mean photon number.
    """
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    width = 1.0 + 2.0 * nbar
    if kind == "vacuum":
        return WignerGaussian(0j, 0.5, 0.5, 2.0 / np.pi)
    if kind == "thermal":
        return WignerGaussian(0j, width / 2, width / 2, 2.0 / (np.pi * width))
    if kind == "dts":
        return WignerGaussian(complex(alpha), width / 2, width / 2, 2.0 / (np.pi * width))
    if kind == "sts":
        alpha = 0.0
    elif kind != "dsts":
        raise ValueError(f"unknown Wigner state kind {kind!r}")
    return WignerGaussian(
        complex(alpha),
        width / (2 * np.exp(2 * squeeze)),
        width * np.exp(2 * squeeze) / 2,
        2.0 / (np.pi * width),
    )


def povm_wigner_gaussian(y: complex, eta1: float, nu1: float, eta2: float, nu2: float) -> WignerGaussian:
    """Wigner function of the noisy-heterodyne POVM element for outcome y,
    taken directly from the two-quadrature Gaussian form (not from the
    photon-number matrix elements, so it can serve as their oracle)."""
    lam1 = (1.0 - eta1 + nu1) / eta1
    lam2 = (1.0 - eta2 + nu2) / eta2
    pref = (1.0 / (np.sqrt(eta1 * eta2) * np.pi)) * (2.0 / np.pi) / np.sqrt((1 + 2 * lam1) * (1 + 2 * lam2))
    center = y.real / np.sqrt(eta1) + 1j * y.imag / np.sqrt(eta2)
    return WignerGaussian(center, (1 + 2 * lam1) / 2, (1 + 2 * lam2) / 2, pref)


def transition_wigner(n: int, m: int) -> Callable[[complex], complex]:
    """Wigner transform of the transition operator |n><m|, so that
    pi * integral(W * W_rho) = <m|rho|n>.  Complex-valued for n != m."""
    if n < 0 or m < 0:
        raise ValueError("Fock indices must be >= 0")
    if n > m:
        conj_fn = transition_wigner(m, n)

        def wig_conj(gamma):
            return np.conj(conj_fn(gamma))

        wig_conj.box_radius = conj_fn.box_radius
        return wig_conj

    k = m - n
    pref = (2.0 / np.pi) * (-1.0) ** n * np.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))

    def wig(gamma):
        g = complex(gamma)
        r2 = abs(g) ** 2
        return pref * np.exp(-2.0 * r2) * (2.0 * g) ** k * laguerre(n, k, 4.0 * r2)

    wig.box_radius = float(np.sqrt(m + 1.0) + 5.0)
    return wig


def _box_radius(fn, fallback: float = 8.0) -> float:
    return float(getattr(fn, "box_radius", fallback))


def plane_integral(fn: Callable[[complex], float], radius: float | None = None, tol: float = DEFAULT_TOL) -> float:
    """integral fn(gamma) d^2 gamma over a square box that bounds the
    Gaussian tails, by adaptive nested quadrature."""
    R = radius if radius is not None else _box_radius(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.dblquad(
                lambda p, q: fn(q + 1j * p), -R, R, -R, R, epsabs=tol, epsrel=1e-9
            )
        except integrate.IntegrationWarning as exc:  # pragma: no cover - defensive
            raise QuadratureError(str(exc), np.nan) from exc
    if err > max(100 * tol, 1e-8):
        raise QuadratureError("plane integral did not converge", err)
    return val


def overlap_integral(wf, wg, radius: float | None = None, tol: float = DEFAULT_TOL) -> float:
    """Tr(FG) = pi * integral(W_F(gamma) W_G(gamma) d^2 gamma) for real-valued
    Wigner functions of Gaussian-decaying operators."""
    R = radius if radius is not None else max(_box_radius(wf), _box_radius(wg))
    return np.pi * plane_integral(lambda g: wf(g) * wg(g), radius=R, tol=tol)


def overlap_integral_complex(wf, wg, radius: float | None = None, tol: float = DEFAULT_TOL) -> complex:
    """Overlap formula for complex-valued Wigner transforms (e.g. transition
    operators |n><m| with n != m)."""
    R = radius if radius is not None else max(_box_radius(wf), _box_radius(wg))
    re = plane_integral(lambda g: np.real(wf(g) * wg(g)), radius=R, tol=tol)
    im = plane_integral(lambda g: np.imag(wf(g) * wg(g)), radius=R, tol=tol)
    return np.pi * (re + 1j * im)


def povm_oracle_entry(m: int, n: int, y: complex, det: DetectorModel, tol: float = DEFAULT_TOL) -> complex:
    """<m|G_y|n> by phase-space quadrature: the overlap of the transition
    Wigner function of |n><m| with the Gaussian Wigner function of G_y."""
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    if max(m, n) > 20:
        raise ValueError("oracle entries limited to m, n <= 20")
    wg = povm_wigner_gaussian(y, det.eta1, det.nu1, det.eta2, det.nu2)
    return overlap_integral_complex(transition_wigner(n, m), wg, tol=tol)
