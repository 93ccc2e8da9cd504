"""The postprocessing map G(rho) = K rho K+ on the symmetry-reduced state.

K = sum_z |z>_R (x) E_z with E_z = 1_A (x) sqrt(R_z).  The QPSK protocol is
symmetric: the quarter turn V = (x -> x+1 on A) (x) e^{i pi n/2} relabels the
signals and the key regions, and the antiunitary Theta = (x -> -x on A) (x)
complex conjugation in the Fock basis maps each region to its mirror image.
In the fixed basis

    e_{k,n} = 1/2 sum_x i^{(n-k)x} |x>|n>,   k = 0..3, n = 0..N,

V acts as i^k and Theta as plain conjugation.  A state invariant under the
group of V and Theta is therefore a stack of K = 4 real symmetric
(N+1) x (N+1) blocks, one per k.  Distinct detector arms break V but keep V^2
and Theta; the state is then K = 2 real blocks of size 2(N+1), one per
k mod 2.  Since the objective is convex and invariant and the feasible set
is invariant, its minimum over all states equals its minimum over invariant
ones, so the solver works on the stack alone.

The maps hold, read-only, everything the objective needs on the stack:
``kraus_factor``, the upper-triangular W_j with W_j^T W_j the j-th block of
K+K (which commutes with the group), and ``pinch_factors``, one real
(K, 4(N+1), d) factor F_r per orbit of key values under the group, with
E_r rho E_r+ unitarily equivalent to sum_j F_r[j] B_j F_r[j]^T.  The quarter
turn makes the four pinched entropies equal, so one orbit representative
with weight 4 replaces them; the half turn leaves two orbits of weight 2.
G and the register pinching are never formed here (the tests form them, in
``tests/support/maps.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import DIM_A
from .fock import hermitian_sqrt

__all__ = ["PostprocessingMaps", "build_postprocessing_maps"]

# Largest deviation from group covariance, relative to the largest entry of
# a region operator, that the maps accept.
COVARIANCE_TOL = 1e-10

_POWERS_OF_I = np.array([1.0, 1.0j, -1.0, -1.0j])


def _phases(n_b: int) -> tuple[np.ndarray, np.ndarray]:
    # U = D (F (x) 1_B): D = diag(i^{nx}) on |x>|n>, F[x, k] = i^{-kx}/2.
    x = np.arange(DIM_A)
    d = _POWERS_OF_I[np.outer(x, np.arange(n_b)) % 4]
    f = 0.5 * _POWERS_OF_I[(-np.outer(x, x)) % 4]
    return d, f


def _to_block_basis(op: np.ndarray, n_b: int) -> np.ndarray:
    """U+ op U for an operator on A (x) B, in O(dim^2)."""
    d, f = _phases(n_b)
    t = op.reshape(DIM_A, n_b, DIM_A, n_b) * (d.conj()[:, :, None, None] * d[None, None, :, :])
    t = np.tensordot(f.conj(), t, axes=(0, 0))  # (k, n, y, m)
    t = np.tensordot(t, f, axes=(2, 0))  # (k, n, m, l)
    return t.transpose(0, 1, 3, 2).reshape(DIM_A * n_b, DIM_A * n_b)


def _from_block_basis(m: np.ndarray, n_b: int) -> np.ndarray:
    """U m U+, the inverse of `_to_block_basis`."""
    d, f = _phases(n_b)
    t = np.tensordot(f, m.reshape(DIM_A, n_b, DIM_A, n_b), axes=(1, 0))  # (x, n, l, m)
    t = np.tensordot(t, f.conj(), axes=(2, 1))  # (x, n, m, y)
    t = t.transpose(0, 1, 3, 2) * (d[:, :, None, None] * d.conj()[None, None, :, :])
    return t.reshape(DIM_A * n_b, DIM_A * n_b)


def _check_covariance(regions: tuple[np.ndarray, ...], turn: int) -> None:
    # R_{z+turn} = e^{i turn pi n/2} R_z e^{-i turn pi n/2}, and the mirror
    # image of R_z is R_{-z}: conj(R_z) = R_{-z}.
    phase = _POWERS_OF_I[(turn * np.arange(regions[0].shape[0])) % 4]
    scale = max(float(np.max(np.abs(r))) for r in regions)
    for z, r in enumerate(regions):
        turned = phase[:, None] * r * phase.conj()[None, :]
        dev = max(
            float(np.max(np.abs(turned - regions[(z + turn) % 4]))),
            float(np.max(np.abs(r.conj() - regions[-z % 4]))),
        )
        if dev > COVARIANCE_TOL * scale:
            kind = "quarter" if turn == 1 else "half"
            raise ValueError(f"region {z} is not covariant under the {kind} turn and the reflection (deviation {dev:.3e})")


@dataclass(frozen=True)
class PostprocessingMaps:
    """The maps of the key regions R_0..R_3 on the state reduced under the
    quarter turn (``quarter_turn``, identical detector arms) or the half
    turn (distinct arms), with the reflection in both.  ``columns[j]`` lists
    the basis vectors e_{k,n} (at index k (N+1) + n) of block j.  Raises ValueError if the regions are not covariant under the
    group.  Every array is read-only, since cached maps are shared."""

    regions: tuple[np.ndarray, ...] = field(repr=False)
    quarter_turn: bool = True
    columns: np.ndarray = field(init=False, repr=False)
    kraus_factor: np.ndarray = field(init=False, repr=False)
    pinch_factors: np.ndarray = field(init=False, repr=False)
    pinch_weights: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        regions = tuple(np.array(r, dtype=complex) for r in self.regions)
        _check_covariance(regions, 1 if self.quarter_turn else 2)
        n_b = regions[0].shape[0]
        n_blocks = 4 if self.quarter_turn else 2
        k = np.arange(DIM_A * n_b) // n_b
        columns = np.stack([np.flatnonzero(k % n_blocks == j) for j in range(n_blocks)])
        object.__setattr__(self, "columns", columns)

        roots = [hermitian_sqrt(r) for r in regions]
        gram = sum(s @ s for s in roots)
        kraus_factor = np.linalg.cholesky(self.reduce(np.kron(np.eye(DIM_A), gram))).transpose(0, 2, 1)

        # E_r is invariant under the antiunitary V^{2r} Theta, which acts as
        # conjugation after i^{2rk}: so i^{-rk} E_r i^{rk} is real, and moving
        # i^{rk} onto block j of the state leaves the signs (-1)^{r(k-j)/2} on
        # it once the phase i^{rj} cancels.
        reps = (0,) if self.quarter_turn else (0, 1)
        factors = []
        for r in reps:
            phase = _POWERS_OF_I[(r * k) % 4]
            e = phase.conj()[:, None] * _to_block_basis(np.kron(np.eye(DIM_A), roots[r]), n_b) * phase[None, :]
            sign = np.where((k[columns] - np.arange(n_blocks)[:, None]) % 4 == 2, (-1.0) ** r, 1.0)
            factors.append(e.real[:, columns].transpose(1, 0, 2) * sign[:, None, :])
        pinch_factors = np.stack(factors)

        for arr in (*regions, columns, kraus_factor, pinch_factors):
            arr.setflags(write=False)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "kraus_factor", kraus_factor)
        object.__setattr__(self, "pinch_factors", pinch_factors)
        object.__setattr__(self, "pinch_weights", (4 // len(reps),) * len(reps))

    @property
    def dim_ab(self) -> int:
        return DIM_A * self.regions[0].shape[0]

    def reduce(self, op: np.ndarray) -> np.ndarray:
        """The real (K, d, d) blocks Re(U_j+ op U_j) of a Hermitian operator
        on A (x) B: Tr(rho op) = sum_j Tr(B_j block_j) for every invariant
        rho, and the blocks are those of the group average of op."""
        full = _to_block_basis(op, op.shape[0] // DIM_A)
        return full[self.columns[:, :, None], self.columns[:, None, :]].real

    def lift(self, blocks: np.ndarray) -> np.ndarray:
        """The operator on A (x) B whose blocks are ``blocks``."""
        n = self.dim_ab
        m = np.zeros((n, n), dtype=complex)
        m[self.columns[:, :, None], self.columns[:, None, :]] = blocks
        return _from_block_basis(m, n // DIM_A)


def build_postprocessing_maps(regions: tuple[np.ndarray, ...], quarter_turn: bool = True) -> PostprocessingMaps:
    """Maps of the key regions R_0..R_3; ``quarter_turn`` is False for
    distinct detector arms, whose regions only have the half turn."""
    return PostprocessingMaps(tuple(regions), quarter_turn)
