"""Honest-channel simulation: expectation values, discretized outcome
distribution, and the error-correction cost.

The quantum channel is phase-invariant Gaussian: transmittance eta_t
(10^(-0.02 L) for fiber of length L km at 0.2 dB/km) plus excess noise xi
quoted in shot-noise units at the channel input.  A coherent signal |alpha>
arrives as a displaced thermal state centered at sqrt(eta_t) alpha with
per-quadrature variance (1 + eta_t xi)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import erfc

from .detector import DetectorModel
from .fock import displaced_thermal_matrix
from .observables import moment_observables

__all__ = [
    "ChannelModel",
    "ProtocolParams",
    "SimulatedStatistics",
    "DiscretizedDistribution",
    "simulate_statistics",
    "untrusted_statistics",
    "simulated_conditional_state",
    "pdf_outcome",
    "discretization_distribution",
    "ec_cost",
    "effective_excess_noise",
]

ATTENUATION_DB_PER_KM = 0.2


@dataclass(frozen=True)
class ChannelModel:
    eta_t: float
    xi: float
    distance_km: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eta_t <= 1.0:
            raise ValueError(f"transmittance must be in (0, 1], got {self.eta_t}")
        if self.xi < 0.0:
            raise ValueError(f"excess noise must be >= 0, got {self.xi}")

    @classmethod
    def from_distance(cls, distance_km: float, xi: float) -> "ChannelModel":
        if distance_km < 0:
            raise ValueError(f"distance must be >= 0, got {distance_km}")
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


def simulated_conditional_state(ch: ChannelModel, x: int, pp: ProtocolParams, N: int) -> np.ndarray:
    """Bob's conditional state for signal x: displaced thermal, truncated at N."""
    return displaced_thermal_matrix(np.sqrt(ch.eta_t) * pp.signal(x), ch.eta_t * ch.xi / 2.0, N)


def simulate_statistics(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> SimulatedStatistics:
    """Expectation values of F_Q, F_P, S_Q, S_P for each signal.

    Identical detector arms have closed forms; distinct arms take traces of
    the numerically integrated observables against the conditional states,
    both truncated at the protocol cutoff.
    """
    if det.simple_case():
        eta = det.eta_d * ch.eta_t
        noise = 1.0 + 0.5 * eta * ch.xi + det.nu_el
        fq, fp, sq, sp = [], [], [], []
        for x in range(4):
            a = pp.signal(x)
            fq.append(np.sqrt(2.0 * eta) * a.real)
            fp.append(np.sqrt(2.0 * eta) * a.imag)
            sq.append(2.0 * eta * a.real**2 + noise)
            sp.append(2.0 * eta * a.imag**2 + noise)
        return SimulatedStatistics(tuple(fq), tuple(fp), tuple(sq), tuple(sp))

    N = pp.cutoff
    obs = moment_observables(det, N)
    fq, fp, sq, sp = [], [], [], []
    for x in range(4):
        sigma = simulated_conditional_state(ch, x, pp, N)
        fq.append(float(np.trace(sigma @ obs.fq.entries).real))
        fp.append(float(np.trace(sigma @ obs.fp.entries).real))
        sq.append(float(np.trace(sigma @ obs.sq.entries).real))
        sp.append(float(np.trace(sigma @ obs.sp.entries).real))
    return SimulatedStatistics(tuple(fq), tuple(fp), tuple(sq), tuple(sp))


def untrusted_statistics(stats: SimulatedStatistics) -> dict[str, tuple[float, float, float, float]]:
    """Recast the same simulated data as ideal-detector expectation values of
    q, p, n, d (detector imperfections folded into the effective channel)."""
    q = stats.fq
    p = stats.fp
    n = tuple((stats.sq[x] + stats.sp[x]) / 2.0 - 1.0 for x in range(4))
    d = tuple(stats.sq[x] - stats.sp[x] for x in range(4))
    return {"q": q, "p": p, "n": n, "d": d}


def pdf_outcome(y: complex, x: int, ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> float:
    """Outcome density P(y|x) of the noisy heterodyne on the simulated state."""
    if not det.simple_case():
        raise ValueError("outcome density implemented for identical detector arms")
    s = 1.0 + 0.5 * det.eta_d * ch.eta_t * ch.xi + det.nu_el
    c = np.sqrt(det.eta_d * ch.eta_t) * pp.signal(x)
    return float(np.exp(-abs(y - c) ** 2 / s) / (np.pi * s))


@dataclass(frozen=True)
class DiscretizedDistribution:
    """Joint distribution of (signal x, key symbol z) after postselection."""

    ptilde: np.ndarray
    p_pass: float
    conditional: np.ndarray = field(repr=False)

    def renormalized(self) -> np.ndarray:
        if self.p_pass <= 0:
            raise ValueError("degenerate distribution: p_pass = 0")
        return self.ptilde / self.p_pass


def _sector_mass(c: complex, s: float, delta_a: float, z: int, tol: float = 1e-10) -> float:
    # integral over sector z, radii >= delta_a, of the Gaussian centered at c
    # with per-component variance s/2 (density exp(-|y-c|^2/s)/(pi s)).
    # The radial integral is analytic per angle; the angle is done adaptively.
    cc = abs(c) ** 2
    phi = np.angle(c) if c != 0 else 0.0
    rs = np.sqrt(s)

    def angular(theta):
        mu = abs(c) * np.cos(theta - phi)
        tail = 0.5 * s * np.exp(-((delta_a - mu) ** 2) / s) + mu * 0.5 * np.sqrt(np.pi * s) * erfc(
            (delta_a - mu) / rs
        )
        return np.exp(-(cc - mu * mu) / s) * tail

    lo, hi = (2 * z - 1) * np.pi / 4, (2 * z + 1) * np.pi / 4
    val, _ = integrate.quad(angular, lo, hi, epsabs=tol, limit=200)
    return val / (np.pi * s)


def discretization_distribution(
    ch: ChannelModel, det: DetectorModel, pp: ProtocolParams
) -> DiscretizedDistribution:
    """P(x, z) over the four signals and four key symbols, with the central
    disk of radius delta_a discarded; p_pass is the retained mass."""
    if not det.simple_case():
        raise ValueError("discretization implemented for identical detector arms")
    s = 1.0 + 0.5 * det.eta_d * ch.eta_t * ch.xi + det.nu_el
    scale = np.sqrt(det.eta_d * ch.eta_t)
    cond = np.zeros((4, 4))
    for x in range(4):
        c = scale * pp.signal(x)
        for z in range(4):
            val = _sector_mass(c, s, pp.delta_a, z)
            if val < -1e-10:
                raise RuntimeError(f"negative sector mass {val} at (x={x}, z={z})")
            cond[x, z] = max(val, 0.0)
    joint = cond / 4.0
    return DiscretizedDistribution(ptilde=joint, p_pass=float(joint.sum()), conditional=cond)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def ec_cost(dd: DiscretizedDistribution, beta: float) -> tuple[float, float, float, float]:
    """Error-correction cost of reverse reconciliation at efficiency beta.

    Returns (delta_EC, p_pass, H_Z, I_XZ), entropies in bits, computed on the
    distribution renormalized by p_pass.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must be in (0, 1], got {beta}")
    joint = dd.renormalized()
    pz = joint.sum(axis=0)
    px = joint.sum(axis=1)
    h_z = _entropy_bits(pz)
    mi = _entropy_bits(px) + h_z - _entropy_bits(joint.ravel())
    delta_ec = h_z - beta * mi
    return delta_ec, dd.p_pass, h_z, mi


def effective_excess_noise(ch: ChannelModel, det: DetectorModel) -> float:
    """Channel-input-referred excess noise when the detector is untrusted:
    xi + nu_el / (eta_d eta_t)."""
    return ch.xi + det.nu_el / (det.eta_d * ch.eta_t)
