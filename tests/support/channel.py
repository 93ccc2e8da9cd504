"""The outcome density of the noisy heterodyne, as a quadrature oracle for
the discretized distribution."""

from __future__ import annotations

import numpy as np

from dmrate.channel import ChannelModel, ProtocolParams
from dmrate.detector import DetectorModel


def pdf_outcome(y: complex, x: int, ch: ChannelModel, det: DetectorModel, pp: ProtocolParams) -> float:
    """Outcome density P(y|x) of an identical-arm detector on the simulated
    state: a Gaussian centred at sqrt(eta_d eta_t) alpha_x with per-component
    variance s/2, s = 1 + eta_d eta_t xi/2 + nu_el."""
    s = 1.0 + 0.5 * (det.eta_d * ch.eta_t) * ch.xi + det.nu_el
    c = np.sqrt(det.eta_d * ch.eta_t) * pp.signal(x)
    return float(np.exp(-abs(y - c) ** 2 / s) / (np.pi * s))
