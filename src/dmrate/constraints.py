"""Assembly of the convex feasible set: moment constraints on A tensor B,
the unit-trace constraint, and the partial-trace pin to Alice's Gram matrix.

The two noise scenarios share one builder.  Trusted noise constrains the
noisy detector's F_Q, F_P, S_Q, S_P.  Untrusted noise hands the detector
noise to Eve, so the same data are read as the output of an ideal heterodyne
detector: the builder is given the ideal detector's observables q, p,
n + d/2 + 1 and n - d/2 + 1 (`observables.moment_observables`) and the same
simulated values, which that per-arm form gives on the untruncated means of
the conditional states.  Since each ``ptrace-d*`` row already pins
Tr[(|x><x| (x) 1) rho] = p_x, these rows span the same set as constraints on
q, p, n and d with the data recast to (s_Q + s_P)/2 - 1 and s_Q - s_P.

Every row is a product A_i (x) B_i of an operator on Alice's register and
one on Bob's mode (the identity or a moment observable), and the set keeps
the two factors: the (m, 4 (N+1), 4 (N+1)) stack of full-space rows is never
formed.  The Gram matrix and the residuals are entrywise contractions of the
factors (einsum without path optimization), so no complex product goes to
BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ProtocolParams, SimulatedStatistics
from .detector import DetectorModel
from .fock import coherent_overlap
from .observables import ObservableSet

__all__ = ["ConstraintSet", "alice_gram", "build_constraints", "check_mode"]

DIM_A = 4


@dataclass(frozen=True)
class ConstraintSet:
    """Equality constraints Tr(rho Gamma_i) = c_i on A (x) B, every row a
    product Gamma_i = A_i (x) B_i kept as its two factors: ``a_parts``, the
    A_i as an (m, 4, 4) array, ``b_parts``, the B_i as an (m, N+1, N+1)
    array, ``values``, the c_i as an (m,) array, and one label per row.  The
    full-space rows are never stacked.  The arrays are copied (factors as
    complex) and made read-only; every entry must be finite (else
    ValueError)."""

    a_parts: np.ndarray
    b_parts: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        a = np.array(self.a_parts, dtype=complex)
        b = np.array(self.b_parts, dtype=complex)
        values = np.array(self.values, dtype=float)
        m = len(self.labels)
        square_b = b.ndim == 3 and b.shape[0] == m and b.shape[1] == b.shape[2]
        if a.shape != (m, DIM_A, DIM_A) or not square_b or values.shape != (m,):
            raise ValueError(f"{m} labels, factors of shapes {a.shape} and {b.shape}, values of shape {values.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(values).all()):
            raise ValueError("constraint factors and values must be finite")
        for arr in (a, b, values):
            arr.setflags(write=False)
        object.__setattr__(self, "a_parts", a)
        object.__setattr__(self, "b_parts", b)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return DIM_A * self.b_parts.shape[1]

    def gram(self) -> np.ndarray:
        """The real Gram matrix <Gamma_i, Gamma_j> = Re(<A_i, A_j><B_i, B_j>)
        of the rows, from the factors alone, entrywise."""
        a, b = self.a_parts.conj(), self.b_parts.conj()
        return (np.einsum("ixy,jxy->ij", a, self.a_parts) * np.einsum("inm,jnm->ij", b, self.b_parts)).real

    def residuals(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho Gamma_i) - c_i for an operator rho on A (x) B, entrywise."""
        n_b = self.b_parts.shape[1]
        blocks = rho.reshape(DIM_A, n_b, DIM_A, n_b)
        return np.einsum("iyx,imn,xnym->i", self.a_parts, self.b_parts, blocks).real - self.values


def alice_gram(pp: ProtocolParams) -> np.ndarray:
    """rho_A[i, j] = sqrt(p_i p_j) <alpha_j | alpha_i> for the QPSK signals."""
    rho = np.empty((DIM_A, DIM_A), dtype=complex)
    for i in range(DIM_A):
        for j in range(DIM_A):
            rho[i, j] = np.sqrt(pp.PRIORS[i] * pp.PRIORS[j]) * coherent_overlap(pp.signal(i), pp.signal(j))
    return rho


def check_mode(mode: str) -> None:
    """ValueError unless mode names a detector-noise scenario."""
    if mode not in ("trusted", "untrusted"):
        raise ValueError(f"mode must be 'trusted' or 'untrusted', got {mode!r}")


def build_constraints(
    stats: SimulatedStatistics, obs: ObservableSet, pp: ProtocolParams, mode: str = "trusted"
) -> ConstraintSet:
    """Constraint set of the key-rate minimization.

    The 16 moment rows constrain obs.fq, obs.fp, obs.sq, obs.sp to the
    simulated stats, one row per signal; the unit-trace row and the 16 real
    functionals pinning Tr_B(rho) to Alice's Gram matrix complete the set.
    ``mode`` names the scenario: "untrusted" needs observables built for the
    ideal detector (DetectorModel.ideal()), since Eve holds the detector
    noise, and raises ValueError for any other set.
    """
    check_mode(mode)
    if mode == "untrusted" and obs.detector != DetectorModel.ideal():
        raise ValueError(f"untrusted noise needs the ideal detector's observables, got {obs.detector}")
    dim_b = obs.fq.shape[0]
    if dim_b != pp.cutoff + 1:
        raise ValueError(f"observable dimension {dim_b} does not match cutoff {pp.cutoff}")
    rho_a = alice_gram(pp)
    moments = (("FQ", obs.fq, stats.fq), ("FP", obs.fp, stats.fp), ("SQ", obs.sq, stats.sq), ("SP", obs.sp, stats.sp))

    # The trace comes first: the solver's dual repair shifts row 0.
    m = 1 + DIM_A * DIM_A + len(moments) * DIM_A
    a_parts = np.zeros((m, DIM_A, DIM_A), dtype=complex)
    b_parts = np.empty((m, dim_b, dim_b), dtype=complex)
    b_parts[: 1 + DIM_A * DIM_A] = np.eye(dim_b)
    values = np.empty(m)
    labels = ["trace"]
    values[0] = 1.0
    a_parts[0] = np.eye(DIM_A)

    def row(label: str, value: float) -> int:
        labels.append(label)
        values[len(labels) - 1] = value
        return len(labels) - 1

    for i in range(DIM_A):
        a_parts[row(f"ptrace-d{i}", rho_a[i, i].real), i, i] = 1.0
    for i in range(DIM_A):
        for j in range(i + 1, DIM_A):
            r = row(f"ptrace-re{i}{j}", 2 * rho_a[i, j].real)
            a_parts[r, i, j] = a_parts[r, j, i] = 1.0
            r = row(f"ptrace-im{i}{j}", 2 * rho_a[i, j].imag)
            a_parts[r, i, j], a_parts[r, j, i] = 1j, -1j
    for name, op_b, stat in moments:
        for x in range(DIM_A):
            r = row(f"moment-{name}-x{x}", pp.PRIORS[x] * stat[x])
            a_parts[r, x, x] = 1.0
            b_parts[r] = op_b
    return ConstraintSet(a_parts, b_parts, values, tuple(labels))
