"""Oracles for the honest channel: Bob's conditional state in the truncated
photon-number basis, against which the tests trace the observables, and the
outcome density of the noisy heterodyne and an angular quadrature of its
sector masses, against which they check the discretized distribution."""

from __future__ import annotations

from functools import partial

import numpy as np

from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel, povm_weighted_sum
from dmrate.fock import erfc, gauss_legendre, refined


def simulated_conditional_state(ch: ChannelModel, x: int, pp: ProtocolParams, N: int) -> np.ndarray:
    """Bob's conditional state D(beta) rho_th(nbar) D(beta)+ for signal x,
    truncated at N, with beta = sqrt(eta_t) alpha_x and nbar = eta_t xi/2.
    A heterodyne element of unit efficiency and noise nbar is
    G_y = D(y) rho_th(nbar) D(y)+ / pi, so the state is pi G_beta."""
    nbar = ch.eta_t * ch.xi / 2.0
    det = DetectorModel(1.0, 1.0, nbar, nbar)
    return np.pi * povm_weighted_sum([np.sqrt(ch.eta_t) * pp.signal(x)], [1.0], det, N)


def pdf_outcome(y: complex, x: int, ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> float:
    """Outcome density P(y|x) of an identical-arm detector on the simulated
    state: a Gaussian centred at sqrt(eta_d eta_t) alpha_x with per-component
    variance s/2, s = 1 + eta_d eta_t xi/2 + nu_el."""
    s = 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el
    c = np.sqrt(det.eta_d * ch.eta_t) * pp.signal(x)
    return float(np.exp(-abs(y - c) ** 2 / s) / (np.pi * s))


def _sector_integrals(c: np.ndarray, s: float, delta_a: float, n: int) -> np.ndarray:
    # n-node Gauss-Legendre rule for the angular integrals of every signal
    # c[x] over each key sector z, [(2z-1)pi/4, (2z+1)pi/4); the radial
    # integral from delta_a out is analytic at each angle.
    x, w = gauss_legendre(n)
    theta = (2 * np.arange(4)[:, None] - 1) * np.pi / 4 + (x + 1.0) * np.pi / 4
    amp = np.abs(c)[:, None, None]
    mu = amp * np.cos(theta - np.angle(c)[:, None, None])
    tail = 0.5 * s * np.exp(-((delta_a - mu) ** 2) / s) + mu * 0.5 * np.sqrt(np.pi * s) * erfc(
        (delta_a - mu) / np.sqrt(s)
    )
    return np.sum(w * np.pi / 4 * np.exp(-(amp * amp - mu * mu) / s) * tail, axis=-1)


def angular_distribution(ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> np.ndarray:
    """P(x, z) of an identical-arm detector by an angular Gauss-Legendre rule
    over each sector, doubled from 32 to 512 nodes until two levels agree to
    1e-10, on the outcome density of `pdf_outcome`.  It is accurate far
    below that tolerance once the peak is resolved (alpha up to a few), and
    it raises RuntimeError where no two levels agree."""
    signals = np.sqrt(det.eta_d * ch.eta_t) * np.array([pp.signal(x) for x in range(4)])
    s = 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el
    rule = partial(_sector_integrals, signals, s, pp.delta_a)
    cond = refined(rule, (32, 64, 128, 256, 512), 1e-10, "sector quadrature") / (np.pi * s)
    return np.asarray(pp.PRIORS)[:, None] * cond
