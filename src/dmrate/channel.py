"""Honest-channel simulation: expectation values, the key map's joint
distribution P(x, z), and the error-correction cost.

The quantum channel is phase-invariant Gaussian: transmittance eta_t
(10^(-0.02 L) for fiber of length L km at 0.2 dB/km) plus excess noise xi
quoted in shot-noise units at the channel input.  A coherent signal |alpha>
arrives as a displaced thermal state centered at sqrt(eta_t) alpha with
per-quadrature variance (1 + eta_t xi)/2.  Its quadrature means are closed
forms, and `simulate_statistics` reads them through the detector's per-arm
moment form, the one that builds the observables, so the data carry no
truncation.  `fock.refined` refines the key map's sector masses.  The key
map's values take one path: `discretization_distribution` gives P(x, z),
whose sum is p_pass, and `ec_cost` turns it into the pair (delta_EC,
p_pass) that `solver.solve` charges as p_pass delta_EC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .detector import DetectorModel
from .fock import erfc, gauss_legendre, refined
from .observables import moment_observables

__all__ = [
    "ChannelModel",
    "ProtocolParams",
    "SimulatedStatistics",
    "simulate_statistics",
    "discretization_distribution",
    "ec_cost",
]

ATTENUATION_DB_PER_KM = 0.2
# Two successive Gauss-Legendre levels of the sector masses agree to this.
SECTOR_TOL = 1e-10


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
        return self.alpha * np.exp(1j * x * np.pi / 2)


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


def _sector_integrals(c: np.ndarray, s: float, delta_a: float, n: int) -> np.ndarray:
    # n-node Gauss-Legendre rule for the angular integrals of every signal
    # c[x] over each key sector z, [(2z-1)pi/4, (2z+1)pi/4).
    x, w = gauss_legendre(n)
    theta = (2 * np.arange(4)[:, None] - 1) * np.pi / 4 + (x + 1.0) * np.pi / 4
    amp = np.abs(c)[:, None, None]
    mu = amp * np.cos(theta - np.angle(c)[:, None, None])
    tail = 0.5 * s * np.exp(-((delta_a - mu) ** 2) / s) + mu * 0.5 * np.sqrt(np.pi * s) * erfc(
        (delta_a - mu) / np.sqrt(s)
    )
    return np.sum(w * np.pi / 4 * np.exp(-(amp * amp - mu * mu) / s) * tail, axis=-1)


def _sector_mass(c: np.ndarray, s: float, delta_a: float) -> np.ndarray:
    # Mass of each sector z at radii >= delta_a under the Gaussian centered at
    # each c[x] with per-component variance s/2 (density
    # exp(-|y-c|^2/s)/(pi s)), shape (len(c), 4).  The radial integral is
    # analytic per angle; the angle takes one Gauss-Legendre rule for all
    # signals and sectors, doubled from 32 to 512 nodes until two levels
    # agree to SECTOR_TOL.
    rule = partial(_sector_integrals, c, s, delta_a)
    return refined(rule, (32, 64, 128, 256, 512), SECTOR_TOL, "sector quadrature") / (np.pi * s)


def discretization_distribution(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> np.ndarray:
    """P(x, z), the (4, 4) joint probability of signal x (prior 1/4) and key
    symbol z, the sector of the outcome's angle, over outcomes outside the
    central disk of radius delta_a.  Its sum is p_pass, the probability that
    a round passes postselection; 4 P(x, z) is that of z given signal x."""
    if not det.simple_case():
        raise ValueError("discretization implemented for identical detector arms")
    signals = np.sqrt(det.eta_d * ch.eta_t) * np.array([pp.signal(x) for x in range(4)])
    # Per-quadrature outcome noise 1 + eta_d eta_t xi/2 + nu_el, in SNU.
    noise = 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el
    cond = _sector_mass(signals, noise, pp.delta_a)
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
