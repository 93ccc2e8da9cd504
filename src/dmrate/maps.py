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
k mod 2.  The maps read the group from the regions themselves: the quarter
turn where they are covariant under it, else the half turn.  Since the
objective is convex and invariant and the feasible set is invariant, its
minimum over all states equals its minimum over invariant ones, so the
solver works on the stack alone.

Every operator the solver reads is built entrywise in this basis, in real
arithmetic wherever the operator is real.  For a product on A (x) B,

    <e_{k,n}| A (x) B |e_{l,m}> = At[(n-k) % 4, (m-l) % 4] B[n, m],
    At = F+ A F,  F[x, q] = i^{qx}/2,

so the blocks of a constraint row come straight from its two factors.  The
maps hold, read-only, everything the objective needs on the stack:
``kraus_factor``, the upper-triangular W_j with W_j^T W_j the j-th block of
K+K = 1_A (x) sum_z R_z (which commutes with the group; the sum is real by
the reflection, and for identical arms it is the rotation-invariant, so
diagonal, integral of the POVM outside the disk), and ``pinch_factors``, one real (K, 4(N+1), d) factor F_r per orbit
of key values under the group, with E_r rho E_r+ unitarily equivalent to
sum_j F_r[j] B_j F_r[j]^T.  The quarter turn makes the four pinched
entropies equal, so one orbit representative with weight 4 replaces them;
the half turn leaves two orbits of weight 2.  Each F_r takes one real
eigendecomposition: R_0 is real, and so is S+ R_1 S with S = diag(i^n).
G, the register pinching and the basis change as a matrix product are
never formed here (the tests form them, in ``tests/support/maps.py``).
Regions whose sum is not positive definite, as at a postselection radius
that leaves them no resolvable mass, raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import DIM_A
from .fock import POWERS_OF_I, hermitian_sqrt

__all__ = ["PostprocessingMaps", "build_postprocessing_maps"]

# Largest deviation from group covariance, relative to the largest entry of
# a region operator, that the maps accept.
COVARIANCE_TOL = 1e-10

# F[x, q] = i^{qx}/2, the register part of the basis change.
_F = 0.5 * POWERS_OF_I[np.outer(np.arange(DIM_A), np.arange(DIM_A)) % 4]


def _product_entries(a_t: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_b: int) -> np.ndarray:
    """Entries <e_rows| A (x) B |e_cols> = At[(n-k) % 4, (m-l) % 4] B[n, m]
    of products, from At = F+ A F and B (stacks allowed in the leading
    axes), at basis indices k (N+1) + n broadcast from ``rows`` and
    ``cols``."""
    k, n = np.divmod(rows, n_b)
    l, m = np.divmod(cols, n_b)
    return a_t[..., (n - k) % DIM_A, (m - l) % DIM_A] * b[..., n, m]


def _covariance_deviation(regions: tuple[np.ndarray, ...], turn: int) -> float:
    """The largest deviation from R_{z+turn} = e^{i turn pi n/2} R_z
    e^{-i turn pi n/2} and from the mirror image conj(R_z) = R_{-z},
    relative to the largest entry of a region operator."""
    stack = np.stack(regions)
    phase = POWERS_OF_I[(turn * np.arange(stack.shape[1])) % 4]
    turned = phase[:, None] * stack * phase.conj()[None, :]
    dev = max(np.max(np.abs(turned - np.roll(stack, -turn, axis=0))), np.max(np.abs(stack.conj() - stack[[0, 3, 2, 1]])))
    return float(dev / np.max(np.abs(stack)))


@dataclass(frozen=True, eq=False)
class PostprocessingMaps:
    """The maps of the key regions R_0..R_3 on the state reduced under the
    quarter turn where the regions are covariant under it (``quarter_turn``;
    identical detector arms), else the half turn (distinct arms), with the
    reflection in both.  ``columns[j]`` lists the basis vectors e_{k,n} (at
    index k (N+1) + n) of block j.  Raises ValueError if the regions are not
    finite, all zero, not covariant under the half turn or of a sum that is
    not positive definite.  Every array is read-only, since cached maps are
    shared; maps compare and hash by identity."""

    regions: tuple[np.ndarray, ...] = field(repr=False)
    quarter_turn: bool = field(init=False)
    columns: np.ndarray = field(init=False, repr=False)
    kraus_factor: np.ndarray = field(init=False, repr=False)
    pinch_factors: np.ndarray = field(init=False, repr=False)
    pinch_weights: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        regions = tuple(np.array(r, dtype=complex) for r in self.regions)
        if not (np.isfinite(regions).all() and np.any(regions)):
            raise ValueError("regions must be finite and not all zero")
        quarter_turn = _covariance_deviation(regions, 1) <= COVARIANCE_TOL
        if not quarter_turn and (dev := _covariance_deviation(regions, 2)) > COVARIANCE_TOL:
            raise ValueError(f"regions are not covariant under the half turn and the reflection (deviation {dev:.3e})")
        n_b = regions[0].shape[0]
        n_blocks = 4 if quarter_turn else 2
        k = np.arange(DIM_A * n_b) // n_b
        columns = np.stack([np.flatnonzero(k % n_blocks == j) for j in range(n_blocks)])
        object.__setattr__(self, "columns", columns)

        eye_t = np.eye(DIM_A)  # F+ 1 F
        region_sum = sum(regions).real
        gram = _product_entries(eye_t, region_sum, columns[:, :, None], columns[:, None, :], n_b)
        try:
            kraus_factor = np.linalg.cholesky(gram).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            raise ValueError(f"the region sum is not positive definite at cutoff {n_b - 1}") from None

        # E_r is invariant under the antiunitary V^{2r} Theta, which acts as
        # conjugation after i^{2rk}: so i^{-rk} E_r i^{rk} is real.  Its
        # entries are those of 1 (x) T_r with T_r = sqrt(S^{-r} R_r S^r),
        # S = diag(i^n), since i^{n-m} = i^{k-l} wherever 1 (x) B has an
        # entry.  Moving i^{rk} onto block j of the state leaves the signs
        # (-1)^{r(k-j)/2} on it once the phase i^{rj} cancels.
        reps = (0,) if quarter_turn else (0, 1)
        factors = []
        for r in reps:
            turn = POWERS_OF_I[(r * np.arange(n_b)) % 4]
            root = hermitian_sqrt((turn.conj()[:, None] * regions[r] * turn[None, :]).real)
            e = _product_entries(eye_t, root, np.arange(DIM_A * n_b)[None, :, None], columns[:, None, :], n_b)
            sign = np.where((k[columns] - np.arange(n_blocks)[:, None]) % 4 == 2, (-1.0) ** r, 1.0)
            factors.append(e * sign[:, None, :])
        pinch_factors = np.stack(factors)

        for arr in (*regions, columns, kraus_factor, pinch_factors):
            arr.setflags(write=False)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "quarter_turn", quarter_turn)
        object.__setattr__(self, "kraus_factor", kraus_factor)
        object.__setattr__(self, "pinch_factors", pinch_factors)
        object.__setattr__(self, "pinch_weights", (4 // len(reps),) * len(reps))

    @property
    def dim_ab(self) -> int:
        return DIM_A * self.regions[0].shape[0]

    def reduce_products(self, a_parts: np.ndarray, b_parts: np.ndarray) -> np.ndarray:
        """The real (m, K, d, d) blocks of the Hermitian products
        A_i (x) B_i, from the (m, 4, 4) and (m, N+1, N+1) factors:
        Tr(rho A_i (x) B_i) = sum_j Tr(B_j block_ij) for every invariant rho,
        and the blocks are those of the group average of the product.  One
        row at a time, so the complex entries of only one row are alive."""
        a_t = np.einsum("xp,ixy,yq->ipq", _F.conj(), a_parts, _F)
        rows, cols = self.columns[:, :, None], self.columns[:, None, :]
        out = np.empty((len(a_t), *rows.shape[:2], cols.shape[2]))
        for i, (a, b) in enumerate(zip(a_t, b_parts)):
            out[i] = _product_entries(a, b, rows, cols, b.shape[0]).real
        return out

    def lift(self, blocks: np.ndarray) -> np.ndarray:
        """The operator on A (x) B whose blocks are ``blocks``: with
        U[(x, n), (k, n)] = i^{(n-k)x}/2 the basis change, entry (x, n, y, m)
        is i^{nx - my} sum_{k,l} G[x, k] M[k, n, l, m] conj(G[y, l]) with
        G[x, k] = i^{-kx}/2, taken entrywise."""
        n = self.dim_ab
        n_b = n // DIM_A
        m = np.zeros((n, n))
        m[self.columns[:, :, None], self.columns[:, None, :]] = blocks
        d = POWERS_OF_I[np.outer(np.arange(DIM_A), np.arange(n_b)) % 4]
        t = np.einsum("xk,knlm,yl->xnym", _F.conj(), m.reshape(DIM_A, n_b, DIM_A, n_b), _F)
        return (t * (d[:, :, None, None] * d.conj()[None, None, :, :])).reshape(n, n)


def build_postprocessing_maps(regions: tuple[np.ndarray, ...]) -> PostprocessingMaps:
    """Maps of the key regions R_0..R_3, reduced under the group they have."""
    return PostprocessingMaps(tuple(regions))
