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
one on Bob's mode (the identity or a moment observable).  The operators
depend on the observables alone, so `constraint_rows` builds them once per
artifact key, as their two factors (the solver's `Problem` keeps them), and
`build_constraints` gives each point its values, row for row.  The layout
lives here only: the trace, ``ptrace-d`` per signal, ``ptrace-re`` and
``ptrace-im`` per pair of signals, then each moment per signal.
"""

from __future__ import annotations

import numpy as np

from .channel import ProtocolParams, SimulatedStatistics
from .detector import DetectorModel
from .fock import coherent_overlap
from .observables import ObservableSet

__all__ = ["alice_gram", "build_constraints", "check_mode", "constraint_rows"]

DIM_A = 4
PAIRS = tuple((i, j) for i in range(DIM_A) for j in range(i + 1, DIM_A))
MOMENTS = ("FQ", "FP", "SQ", "SP")


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


def _register(i: int, j: int, entry: complex = 1.0) -> np.ndarray:
    # The Hermitian register operator with entry (i, j) and its conjugate at (j, i).
    a = np.zeros((DIM_A, DIM_A), dtype=complex)
    a[j, i] = np.conj(entry)
    a[i, j] = entry
    return a


def constraint_rows(obs: ObservableSet) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The rows of the key-rate minimization as their factors: the A_i as an
    (m, 4, 4) and the B_i as an (m, N+1, N+1) complex array, and one label
    per row.  The trace comes first: the solver's start sets out from 1/(K d)
    on it, and its certificate shifts its multiplier.  The 16 real functionals
    pinning Tr_B(rho) to Alice's Gram matrix follow, then obs.fq, obs.fp,
    obs.sq, obs.sp, one row per signal."""
    eye_b = np.eye(obs.fq.shape[0])
    rows = [("trace", np.eye(DIM_A), eye_b)]
    rows += [(f"ptrace-d{i}", _register(i, i), eye_b) for i in range(DIM_A)]
    for i, j in PAIRS:
        rows += [(f"ptrace-re{i}{j}", _register(i, j), eye_b), (f"ptrace-im{i}{j}", _register(i, j, 1j), eye_b)]
    for name, op_b in zip(MOMENTS, (obs.fq, obs.fp, obs.sq, obs.sp)):
        rows += [(f"moment-{name}-x{x}", _register(x, x), op_b) for x in range(DIM_A)]
    labels, a_parts, b_parts = zip(*rows)
    return np.array(a_parts, dtype=complex), np.array(b_parts, dtype=complex), labels


def build_constraints(
    stats: SimulatedStatistics, obs: ObservableSet, pp: ProtocolParams, mode: str = "trusted"
) -> np.ndarray:
    """The (m,) values of the rows of `constraint_rows(obs)`, in its order:
    1, Alice's Gram matrix, and the simulated stats weighted by the priors.
    ``mode`` names the scenario: "untrusted" needs observables built for the
    ideal detector (DetectorModel.ideal()), since Eve holds the detector
    noise, and raises ValueError for any other set, as it does for
    observables of another cutoff than pp's.
    """
    check_mode(mode)
    if mode == "untrusted" and obs.detector != DetectorModel.ideal():
        raise ValueError(f"untrusted noise needs the ideal detector's observables, got {obs.detector}")
    dim_b = obs.fq.shape[0]
    if dim_b != pp.cutoff + 1:
        raise ValueError(f"observable dimension {dim_b} does not match cutoff {pp.cutoff}")
    rho_a = alice_gram(pp)
    pins = [2 * part for i, j in PAIRS for part in (rho_a[i, j].real, rho_a[i, j].imag)]
    moments = [pp.PRIORS[x] * stat[x] for stat in (stats.fq, stats.fp, stats.sq, stats.sp) for x in range(DIM_A)]
    return np.array([1.0, *rho_a.diagonal().real, *pins, *moments])
