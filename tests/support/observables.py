"""The central-disk complement of the identical-arm regions, which the
package builds only on the way to the regions' diagonals, as an operator the
completeness and radial-integral tests can read."""

from __future__ import annotations

import numpy as np

from dmrate.detector import DetectorModel
from dmrate.observables import _identical_arm_operators


def region_complement(det: DetectorModel, delta_a: float, N: int) -> np.ndarray:
    """Operator of the discarded central disk |y| < delta_a; real and
    diagonal, since the full-circle angular integral kills every
    off-diagonal entry."""
    if delta_a < 0:
        raise ValueError(f"postselection radius must be >= 0, got {delta_a}")
    if not det.simple_case():
        raise ValueError("disk complement implemented for identical arms only")
    return np.diag(_identical_arm_operators(det, delta_a, N)[1])
