"""Honest-channel simulation: expectation values, the key map's joint
distribution P(x, z), and the error-correction cost.

The quantum channel is phase-invariant Gaussian: transmittance eta_t
(10^(-0.02 L) for fiber of length L km at 0.2 dB/km) plus excess noise xi
quoted in shot-noise units at the channel input.  A coherent signal |alpha>
arrives as a displaced thermal state centered at sqrt(eta_t) alpha with
per-quadrature variance (1 + eta_t xi)/2.  Its quadrature means are closed
forms, and `simulate_statistics` reads them through the detector's per-arm
moment form, the one that builds the observables, so the data carry no
truncation.  The key map's sector masses are closed forms too.  The key
map's values take one path: `discretization_distribution` gives P(x, z),
whose sum is p_pass, and `ec_cost` turns it into the pair (delta_EC,
p_pass) that `solver.solve` charges as p_pass delta_EC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorModel
from .fock import POWERS_OF_I, erfc, gammaln, lattice_gamma
from .observables import check_radius, moment_observables, sector_harmonic

__all__ = [
    "ChannelModel",
    "ProtocolParams",
    "SimulatedStatistics",
    "simulate_statistics",
    "discretization_distribution",
    "ec_cost",
]

ATTENUATION_DB_PER_KM = 0.2


@dataclass(frozen=True)
class ChannelModel:
    eta_t: float
    xi: float
    distance_km: float | None = None

    def __post_init__(self):
        for name in ("eta_t", "xi", "distance_km"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.distance_km is not None and self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if not 0.0 < self.eta_t <= 1.0:
            raise ValueError(f"transmittance must be in (0, 1], got {self.eta_t}")
        if self.xi < 0.0:
            raise ValueError(f"excess noise must be >= 0, got {self.xi}")

    @classmethod
    def from_distance(cls, distance_km: float, xi: float) -> "ChannelModel":
        eta_t = 10.0 ** (-ATTENUATION_DB_PER_KM * distance_km / 10.0)
        return cls(eta_t=eta_t, xi=xi, distance_km=distance_km)


@dataclass(frozen=True)
class ProtocolParams:
    """QPSK protocol knobs: amplitude, postselection radius, reconciliation
    efficiency and photon-number cutoff.  Signal priors are uniform."""

    alpha: float
    delta_a: float = 0.0
    beta: float = 0.95
    cutoff: int = 12

    PRIORS = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        for name in ("alpha", "delta_a", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not isinstance(self.cutoff, (int, np.integer)):
            raise ValueError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.alpha <= 0:
            raise ValueError(f"amplitude must be > 0, got {self.alpha}")
        if self.delta_a < 0:
            raise ValueError(f"postselection radius must be >= 0, got {self.delta_a}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"reconciliation efficiency must be in (0, 1], got {self.beta}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")

    def signal(self, x: int) -> complex:
        return self.alpha * POWERS_OF_I[x % 4]


@dataclass(frozen=True)
class SimulatedStatistics:
    """Per-signal expectation values of the four detector observables."""

    fq: tuple[float, float, float, float]
    fp: tuple[float, float, float, float]
    sq: tuple[float, float, float, float]
    sp: tuple[float, float, float, float]

    def __post_init__(self):
        for x in range(4):
            if self.sq[x] < self.fq[x] ** 2 - 1e-9 or self.sp[x] < self.fp[x] ** 2 - 1e-9:
                raise ValueError("second moments must dominate squared first moments")


def simulate_statistics(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> SimulatedStatistics:
    """Expectation values of F_Q, F_P, S_Q, S_P for each signal: the
    detector's per-arm moment form (`observables.moment_observables`) on the
    untruncated means of Bob's conditional state D(beta) rho_th(nbar)
    D(beta)+, beta = sqrt(eta_t) alpha_x and nbar = eta_t xi/2:
    <q> = sqrt(2) Re beta, <p> = sqrt(2) Im beta, <n> = |beta|^2 + nbar and
    <d> = 2 Re beta^2.  Any pair of arms, and no cutoff."""
    beta = np.sqrt(ch.eta_t) * np.array([pp.signal(x) for x in range(4)])
    q, p = np.sqrt(2.0) * beta.real, np.sqrt(2.0) * beta.imag
    n = np.abs(beta) ** 2 + ch.eta_t * ch.xi / 2.0
    fq, fp, sq, sp = moment_observables(det, q, p, n, 2.0 * (beta * beta).real, 1.0)
    return SimulatedStatistics(tuple(fq), tuple(fp), tuple(sq), tuple(sp))


def _sector_mass(a: float, s: float, delta_a: float) -> np.ndarray:
    # Mass at radii >= delta_a of sector z under signal x, (4, 4), for the
    # Gaussian exp(-|y - a i^x|^2/s)/(pi s), a >= 0.  It is m_d, d = z - x
    # mod 4, and d = 1, 3 take the same operations on the same numbers, so
    # the table is exactly circulant and mirror-symmetric.  The whole plane
    # gives (p^2, pq, q^2, pq), as each sector is a quadrant in axes turned
    # by pi/4, with p, q = erfc(-/+a/sqrt(2s))/2.  Expanding e^{2ar cos(theta)/s}
    # in Bessel functions I_k, the disk holds sum_k Re(i^{kd}) sinc(k/4)/4 C_|k|
    # of sector d, with u = a^2/s, x = delta_a^2/s and h = j + k/2:
    #   C_k = int_0^x e^{-u-t} I_k(2 sqrt(ut)) dt,  0 <= C_k <= C_0 <= 1,
    #       = e^{-u} sum_j u^h Gamma(h+1) P(h+1, x)/(j! (j+k)!).
    # Truncation, w = sqrt(ux): at each t <= x the terms of I_k shrink by
    # ut/((j+1)(j+k+1)) <= 1/4 per j from j = ceil(2w), and I_{k+1} <=
    # sqrt(ut)/(k+1) I_k termwise, so C_k shrinks by <= 1/4 per k from
    # k = ceil(4w).  32 more of each leave < 4^-32 C_0 per C_k, < 2e-19 in
    # all, as the kept |sinc(k/4)/4| sum to < 3.2.  Skip: I_0(z) <= e^z bounds
    # C_0 by e^{-(sqrt(u) - sqrt(x))^2} sqrt(x)/(sqrt(u) - sqrt(x)) < e^-746,
    # which rounds to 0, once sqrt(u) - sqrt(x) > 27.3, as `check_radius`
    # keeps x < 27.64.  So w < 172: at most 376 x 718 terms.
    u, x = a * a / s, delta_a * delta_a / s
    p, q = 0.5 * erfc(-a / math.sqrt(2 * s)), 0.5 * erfc(a / math.sqrt(2 * s))
    share = np.zeros(4)
    if x > 0 and math.sqrt(u) - math.sqrt(x) <= 27.3:
        w = math.sqrt(u * x)
        j = np.arange(math.ceil(2 * w) + 33)[:, None]
        k = np.arange(math.ceil(4 * w) + 33)
        h2 = 2 * j + k  # 2h
        lg = gammaln(np.arange(2 * (j[-1, 0] + k[-1]) + 1) / 2 + 1)  # log Gamma(i/2 + 1)
        if u > 0:
            t = np.exp(h2 / 2 * math.log(u) - u + lg[h2] - lg[2 * j] - lg[2 * (j + k)])
        else:  # a^2 underflowed: only u^0 = 1 survives
            t = (h2 == 0).astype(float)
        c = (t * lattice_gamma(x, (h2[-1, -1] + 1) // 2)[0][h2]).sum(axis=0)  # C_k
        harmonic = np.where(k == 0, 1, 2) * sector_harmonic(k) * c  # k and -k
        share = np.array([POWERS_OF_I[k * d % 4].real @ harmonic for d in range(4)])
    mass = np.array([p * p, p * q, q * q, p * q]) - share
    return mass[(np.arange(4) - np.arange(4)[:, None]) % 4]


def discretization_distribution(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> np.ndarray:
    """P(x, z), the (4, 4) joint probability of signal x (prior 1/4) and key
    symbol z, the sector of the outcome's angle, over outcomes outside the
    central disk of radius delta_a.  Its sum is p_pass, the probability that
    a round passes postselection; 4 P(x, z) is that of z given signal x.
    The table is circulant and mirror-symmetric, exactly.  ValueError for
    distinct arms or for a radius `observables.check_radius` refuses."""
    if not det.simple_case():
        raise ValueError("discretization implemented for identical detector arms")
    check_radius(det, pp.delta_a, pp.cutoff)
    # Per-quadrature outcome noise 1 + eta_d eta_t xi/2 + nu_el, in SNU.
    noise = 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el
    cond = _sector_mass(np.sqrt(det.eta_d * ch.eta_t) * pp.alpha, noise, pp.delta_a)
    if cond.min() < -1e-10:
        x, z = np.unravel_index(np.argmin(cond), cond.shape)
        raise RuntimeError(f"negative sector mass {cond[x, z]} at (x={x}, z={z})")
    return np.asarray(pp.PRIORS)[:, None] * np.maximum(cond, 0.0)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def ec_cost(joint: np.ndarray, beta: float) -> tuple[float, float]:
    """(delta_EC, p_pass) of reverse reconciliation at efficiency beta, from
    the joint P(x, z) of `discretization_distribution`: p_pass is its sum,
    and delta_EC = H(Z) - beta I(X:Z), in bits, is taken on the postselected
    distribution P(x, z) / p_pass.  ValueError unless every entry is finite
    and >= 0 and p_pass > 0: a NaN, an inf or a negative entry fails."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must be in (0, 1], got {beta}")
    p_pass = float(joint.sum())
    # A finite sum of entries >= 0 has every entry finite; a NaN fails both.
    if not (0.0 < p_pass < np.inf and joint.min() >= 0.0):
        raise ValueError(f"cannot price the joint: p_pass = {p_pass}, smallest entry {joint.min()}")
    joint = joint / p_pass
    h_z = _entropy_bits(joint.sum(axis=0))
    mi = _entropy_bits(joint.sum(axis=1)) + h_z - _entropy_bits(joint.ravel())
    return h_z - beta * mi, p_pass
