"""The blocks E_z = 1_A (x) sqrt(R_z) of the Kraus operator K of the
postprocessing map G(rho) = K rho K+, and the factor W with W+W = K+K.
That is all the objective needs: G and the register pinching Z are never
formed here (the tests form them, in ``tests/support/maps.py``)."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .constraints import DIM_A
from .fock import hermitian_sqrt

__all__ = ["PostprocessingMaps", "build_postprocessing_maps"]


@dataclass(frozen=True)
class PostprocessingMaps:
    """K = sum_z |z>_R (x) E_z, kept as its ``blocks`` E_z.  K+K = 1_A (x)
    sum_z R_z is the identity exactly when the postselection radius is zero,
    and contractive otherwise.  ``w_coords`` is the upper-triangular W with
    W+W = K+K: G(rho) on the column space of K is W rho W+.  Every array is
    read-only, since cached maps are shared."""

    sqrt_regions: InitVar[tuple[np.ndarray, ...]]
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    w_coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, sqrt_regions):
        blocks = tuple(np.kron(np.eye(DIM_A, dtype=complex), s) for s in sqrt_regions)
        w_coords = np.linalg.qr(np.vstack(blocks), mode="r")
        for m in (*blocks, w_coords):
            m.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "w_coords", w_coords)

    @property
    def dim_ab(self) -> int:
        return self.w_coords.shape[1]


def build_postprocessing_maps(regions: tuple[np.ndarray, ...]) -> PostprocessingMaps:
    roots = tuple(hermitian_sqrt(R) for R in regions)
    return PostprocessingMaps(roots)
