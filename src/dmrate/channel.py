"""Honest-channel simulation: expectation values, the key map's joint
distribution P(x, z), and the error-correction cost.

The quantum channel is phase-invariant Gaussian: transmittance eta_t
(10^(-0.02 L) for fiber of length L km at 0.2 dB/km) plus excess noise xi
quoted in shot-noise units at the channel input.  A coherent signal |alpha>
arrives as a displaced thermal state centered at sqrt(eta_t) alpha with
per-quadrature variance (1 + eta_t xi)/2, built by the POVM kernel of
`detector`.  `fock.refined` refines the key map's sector masses.  The key
map's values take one path: `discretization_distribution` gives P(x, z),
whose sum is p_pass, and `ec_cost` turns it into the pair (delta_EC,
p_pass) that `solver.solve` charges as p_pass delta_EC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .detector import DetectorModel, povm_weighted_sum
from .fock import erfc, gauss_legendre, refined
from .observables import moment_observables

__all__ = [
    "ChannelModel",
    "ProtocolParams",
    "SimulatedStatistics",
    "simulate_statistics",
    "simulated_conditional_state",
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


def simulated_conditional_state(ch: ChannelModel, x: int, pp: ProtocolParams, N: int) -> np.ndarray:
    """Bob's conditional state D(beta) rho_th(nbar) D(beta)+ for signal x,
    truncated at N, with beta = sqrt(eta_t) alpha_x and nbar = eta_t xi/2.
    A heterodyne element of unit efficiency and noise nbar is
    G_y = D(y) rho_th(nbar) D(y)+ / pi, so the state is pi G_beta."""
    nbar = ch.eta_t * ch.xi / 2.0
    det = DetectorModel(1.0, 1.0, nbar, nbar)
    return np.pi * povm_weighted_sum([np.sqrt(ch.eta_t) * pp.signal(x)], [1.0], det, N)


def _noise_variance(ch: ChannelModel, det: DetectorModel) -> float:
    # Per-outcome-quadrature noise 1 + eta_d eta_t xi/2 + nu_el of the
    # identical-arm detector on the simulated state, in SNU.
    return 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el


def simulate_statistics(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> SimulatedStatistics:
    """Expectation values of F_Q, F_P, S_Q, S_P for each signal.

    Identical detector arms have closed forms; distinct arms take traces of
    the per-arm closed-form observables against the conditional states, both
    truncated at the protocol cutoff.
    """
    if det.simple_case():
        eta = det.eta_d * ch.eta_t
        noise = _noise_variance(ch, det)
        fq, fp, sq, sp = [], [], [], []
        for x in range(4):
            a = pp.signal(x)
            fq.append(np.sqrt(2.0 * eta) * a.real)
            fp.append(np.sqrt(2.0 * eta) * a.imag)
            sq.append(2.0 * eta * a.real**2 + noise)
            sp.append(2.0 * eta * a.imag**2 + noise)
        return SimulatedStatistics(tuple(fq), tuple(fp), tuple(sq), tuple(sp))

    N = pp.cutoff
    fq_op, fp_op, sq_op, sp_op = moment_observables(det, N)
    fq, fp, sq, sp = [], [], [], []
    for x in range(4):
        sigma = simulated_conditional_state(ch, x, pp, N)
        fq.append(float(np.trace(sigma @ fq_op).real))
        fp.append(float(np.trace(sigma @ fp_op).real))
        sq.append(float(np.trace(sigma @ sq_op).real))
        sp.append(float(np.trace(sigma @ sp_op).real))
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
    cond = _sector_mass(signals, _noise_variance(ch, det), pp.delta_a)
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
    distribution P(x, z) / p_pass.  ValueError unless p_pass > 0 (a NaN
    fails too)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must be in (0, 1], got {beta}")
    p_pass = float(joint.sum())
    if not p_pass > 0:
        raise ValueError(f"degenerate distribution: p_pass = {p_pass}")
    joint = joint / p_pass
    h_z = _entropy_bits(joint.sum(axis=0))
    mi = _entropy_bits(joint.sum(axis=1)) + h_z - _entropy_bits(joint.ravel())
    return h_z - beta * mi, p_pass
