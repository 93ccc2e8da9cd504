"""Assembly of the convex feasible set: moment constraints on A tensor B,
the unit-trace constraint, and the partial-trace pin to Alice's Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ProtocolParams, SimulatedStatistics, untrusted_statistics
from .fock import coherent_overlap, quadrature_operators
from .observables import ObservableSet

__all__ = ["Constraint", "ConstraintSet", "alice_gram", "build_constraints"]

DIM_A = 4


@dataclass(frozen=True)
class Constraint:
    operator: np.ndarray
    value: float
    label: str


@dataclass(frozen=True)
class ConstraintSet:
    """Equality constraints Tr(rho Gamma_i) = c_i plus bookkeeping."""

    constraints: tuple[Constraint, ...]
    rho_a: np.ndarray
    dim_a: int
    dim_b: int

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def operators(self) -> np.ndarray:
        return np.stack([c.operator for c in self.constraints])

    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.constraints])

    def residuals(self, rho: np.ndarray) -> np.ndarray:
        ops = self.operators()
        got = np.einsum("iab,ba->i", ops, rho).real
        return got - self.values()

    def drop_moments(self, keep: int) -> "ConstraintSet":
        """Copy with only the first `keep` moment constraints retained;
        structural constraints (trace, partial trace) always stay."""
        structural = [c for c in self.constraints if not c.label.startswith("moment")]
        moments = [c for c in self.constraints if c.label.startswith("moment")]
        return ConstraintSet(tuple(structural + moments[:keep]), self.rho_a, self.dim_a, self.dim_b)


def alice_gram(pp: ProtocolParams) -> np.ndarray:
    """rho_A[i, j] = sqrt(p_i p_j) <alpha_j | alpha_i> for the QPSK signals."""
    rho = np.empty((DIM_A, DIM_A), dtype=complex)
    for i in range(DIM_A):
        for j in range(DIM_A):
            rho[i, j] = np.sqrt(pp.PRIORS[i] * pp.PRIORS[j]) * coherent_overlap(pp.signal(i), pp.signal(j))
    return rho


def _embed(op_a: np.ndarray, dim_b: int) -> np.ndarray:
    return np.kron(op_a, np.eye(dim_b, dtype=complex))


def build_constraints(
    stats: SimulatedStatistics, obs: ObservableSet, pp: ProtocolParams, mode: str = "trusted"
) -> ConstraintSet:
    """Constraint set of the key-rate minimization.

    Trusted mode constrains the noisy-detector observables F_Q, F_P, S_Q, S_P;
    untrusted mode constrains q, p, n, d of an ideal detector, with the same
    simulated data recast accordingly.  Both add the unit-trace constraint and
    the 16 real functionals pinning Tr_B(rho) to Alice's Gram matrix.
    """
    if mode not in ("trusted", "untrusted"):
        raise ValueError(f"mode must be 'trusted' or 'untrusted', got {mode!r}")
    dim_b = obs.fq.shape[0]
    if dim_b != pp.cutoff + 1:
        raise ValueError(f"observable dimension {dim_b} does not match cutoff {pp.cutoff}")
    dim = DIM_A * dim_b
    rho_a = alice_gram(pp)

    cons: list[Constraint] = [Constraint(np.eye(dim, dtype=complex), 1.0, "trace")]

    for i in range(DIM_A):
        e_ii = np.zeros((DIM_A, DIM_A), dtype=complex)
        e_ii[i, i] = 1.0
        cons.append(Constraint(_embed(e_ii, dim_b), rho_a[i, i].real, f"ptrace-d{i}"))
    for i in range(DIM_A):
        for j in range(i + 1, DIM_A):
            re_op = np.zeros((DIM_A, DIM_A), dtype=complex)
            re_op[i, j] = re_op[j, i] = 1.0
            cons.append(Constraint(_embed(re_op, dim_b), 2 * rho_a[i, j].real, f"ptrace-re{i}{j}"))
            im_op = np.zeros((DIM_A, DIM_A), dtype=complex)
            im_op[i, j] = 1.0j
            im_op[j, i] = -1.0j
            cons.append(Constraint(_embed(im_op, dim_b), 2 * rho_a[i, j].imag, f"ptrace-im{i}{j}"))

    if mode == "trusted":
        named_ops = [
            ("FQ", obs.fq, stats.fq),
            ("FP", obs.fp, stats.fp),
            ("SQ", obs.sq, stats.sq),
            ("SP", obs.sp, stats.sp),
        ]
    else:
        q, p, n_op, d = quadrature_operators(pp.cutoff)
        eff = untrusted_statistics(stats)
        named_ops = [
            ("q", q, eff["q"]),
            ("p", p, eff["p"]),
            ("n", n_op, eff["n"]),
            ("d", d, eff["d"]),
        ]

    for name, op_b, values in named_ops:
        for x in range(DIM_A):
            proj = np.zeros((DIM_A, DIM_A), dtype=complex)
            proj[x, x] = 1.0
            cons.append(
                Constraint(np.kron(proj, op_b), pp.PRIORS[x] * values[x], f"moment-{name}-x{x}")
            )

    return ConstraintSet(tuple(cons), rho_a, DIM_A, dim_b)
