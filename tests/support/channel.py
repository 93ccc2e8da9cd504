"""Oracles for the honest channel: Bob's conditional state in the truncated
photon-number basis, against which the tests trace the observables, and the
outcome density of the noisy heterodyne, against which they integrate the
discretized distribution."""

from __future__ import annotations

import numpy as np

from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel, povm_weighted_sum


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
