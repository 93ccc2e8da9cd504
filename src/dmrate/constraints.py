"""Assembly of the convex feasible set: moment constraints on A tensor B,
the unit-trace constraint, and the partial-trace pin to Alice's Gram matrix.

The two noise scenarios share one builder.  Trusted noise constrains the
noisy detector's F_Q, F_P, S_Q, S_P.  Untrusted noise hands the detector
noise to Eve, so the same data are read as the output of an ideal heterodyne
detector: the builder is given the ideal detector's observables q, p,
n + d/2 + 1 and n - d/2 + 1 (`observables.moment_observables`) and the same
simulated values.  Since each ``ptrace-d*`` row already pins
Tr[(|x><x| (x) 1) rho] = p_x, these rows span the same set as constraints on
q, p, n and d with the data recast to (s_Q + s_P)/2 - 1 and s_Q - s_P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ProtocolParams, SimulatedStatistics
from .fock import coherent_overlap
from .observables import ObservableSet

__all__ = ["ConstraintSet", "alice_gram", "build_constraints", "check_mode"]

DIM_A = 4


@dataclass(frozen=True)
class ConstraintSet:
    """Equality constraints Tr(rho Gamma_i) = c_i: the Gamma_i stacked as a
    read-only (m, n, n) array, the c_i as a read-only (m,) array, and one
    label per row."""

    operators: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)
        values = np.array(self.values, dtype=float)
        m = len(self.labels)
        if ops.shape[:1] != (m,) or ops.ndim != 3 or ops.shape[1] != ops.shape[2] or values.shape != (m,):
            raise ValueError(f"{m} labels, operators of shape {ops.shape}, values of shape {values.shape}")
        for arr in (ops, values):
            arr.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def residuals(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("iab,ba->i", self.operators, rho).real - self.values


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


def _embed(op_a: np.ndarray, dim_b: int) -> np.ndarray:
    return np.kron(op_a, np.eye(dim_b, dtype=complex))


def build_constraints(
    stats: SimulatedStatistics, obs: ObservableSet, pp: ProtocolParams, mode: str = "trusted"
) -> ConstraintSet:
    """Constraint set of the key-rate minimization.

    The 16 moment rows constrain obs.fq, obs.fp, obs.sq, obs.sp to the
    simulated stats, one row per signal; the unit-trace row and the 16 real
    functionals pinning Tr_B(rho) to Alice's Gram matrix complete the set.
    ``mode`` names the scenario: "untrusted" needs the ideal detector's
    observables (obs.method == "ideal"), since Eve holds the detector noise,
    and raises ValueError for any other set.
    """
    check_mode(mode)
    if mode == "untrusted" and obs.method != "ideal":
        raise ValueError(f"untrusted noise needs the ideal detector's observables, got method {obs.method!r}")
    dim_b = obs.fq.shape[0]
    if dim_b != pp.cutoff + 1:
        raise ValueError(f"observable dimension {dim_b} does not match cutoff {pp.cutoff}")
    dim = DIM_A * dim_b
    rho_a = alice_gram(pp)

    # The trace comes first: the solver's dual repair shifts row 0.
    rows: list[tuple[np.ndarray, float, str]] = [(np.eye(dim, dtype=complex), 1.0, "trace")]

    for i in range(DIM_A):
        e_ii = np.zeros((DIM_A, DIM_A), dtype=complex)
        e_ii[i, i] = 1.0
        rows.append((_embed(e_ii, dim_b), rho_a[i, i].real, f"ptrace-d{i}"))
    for i in range(DIM_A):
        for j in range(i + 1, DIM_A):
            re_op = np.zeros((DIM_A, DIM_A), dtype=complex)
            re_op[i, j] = re_op[j, i] = 1.0
            rows.append((_embed(re_op, dim_b), 2 * rho_a[i, j].real, f"ptrace-re{i}{j}"))
            im_op = np.zeros((DIM_A, DIM_A), dtype=complex)
            im_op[i, j] = 1.0j
            im_op[j, i] = -1.0j
            rows.append((_embed(im_op, dim_b), 2 * rho_a[i, j].imag, f"ptrace-im{i}{j}"))

    moments = (("FQ", obs.fq, stats.fq), ("FP", obs.fp, stats.fp), ("SQ", obs.sq, stats.sq), ("SP", obs.sp, stats.sp))
    for name, op_b, stat in moments:
        for x in range(DIM_A):
            proj = np.zeros((DIM_A, DIM_A), dtype=complex)
            proj[x, x] = 1.0
            rows.append((np.kron(proj, op_b), pp.PRIORS[x] * stat[x], f"moment-{name}-x{x}"))

    ops, values, labels = zip(*rows)
    return ConstraintSet(np.stack(ops), np.array(values), labels)
