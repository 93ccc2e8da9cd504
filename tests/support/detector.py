"""Single POVM elements G_y in the photon-number basis, as oracles for the
package's one POVM kernel (`dmrate.detector.povm_weighted_sum`) and for the
observables that integrate it: the coherent projector of the ideal detector,
the identical-arm closed form, and the one-node kernel call for distinct
arms."""

from __future__ import annotations

import numpy as np

from dmrate.detector import DetectorModel, povm_weighted_sum
from dmrate.fock import hermitize
from support.fock import coherent_state_vector, displaced_thermal_matrix


def povm_element_simple(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y for identical detector arms: (1/(eta_d pi)) times a displaced
    thermal state at y/sqrt(eta_d) with occupation nbar_d."""
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    if not det.simple_case():
        raise ValueError("detector arms differ; use povm_element_kernel")
    eta = det.eta_d
    rho = displaced_thermal_matrix(y / np.sqrt(eta), det.nbar_d, N)
    return hermitize(rho / (eta * np.pi))


def povm_element_kernel(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y from one node of the batched kernel, for any pair of arms."""
    return hermitize(povm_weighted_sum(np.array([y]), np.ones(1), det, N))


def povm_element(y: complex, det: DetectorModel, N: int) -> np.ndarray:
    """G_y by whichever closed form applies to the detector; the ideal
    detector takes the coherent projector (1/pi)|y><y|."""
    if det == DetectorModel.ideal():
        v = coherent_state_vector(y, N)
        return hermitize(np.outer(v, v.conj()) / np.pi)
    if det.simple_case():
        return povm_element_simple(y, det, N)
    return povm_element_kernel(y, det, N)
