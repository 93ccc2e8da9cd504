"""Frank-Wolfe minimization of the relative-entropy objective with a
certified lower bound.

Each iteration linearizes the objective at the current feasible state and
solves min <sigma, grad> over the constrained PSD set with the dense
interior-point solver; the subproblem's dual vector, repaired to exact dual
feasibility by shifting the trace-constraint coordinate, turns the
linearization into a valid lower bound on the true minimum (weak duality +
convexity).  The best bound over all iterations is reported, so even a run
stopped at the iteration cap is certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import ConstraintSet
from .entropy import line_objective, objective_with_gradient
from .fock import hermitize
from .maps import PostprocessingMaps
from .sdp import SdpError, independent_rows, solve_sdp

__all__ = ["KeyRateResult", "InfeasibleError", "solve", "key_rate"]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GAP_TOL = 1e-6  # bits
MAX_ITERS = 300
LINE_SEARCH_POINTS = 20
IPM_MAX_ITERS = 100
# Stop once the certified bound has improved by less than this (bits) over
# the trailing window; the bound is the reported quantity, so extra
# iterations past its plateau only polish the primal.
BOUND_PLATEAU_TOL = 2.5e-7
BOUND_PLATEAU_WINDOW = 15


class InfeasibleError(RuntimeError):
    def __init__(self, message: str, max_residual: float):
        super().__init__(f"{message} (max constraint residual {max_residual:.3e})")
        self.max_residual = max_residual


@dataclass(frozen=True)
class KeyRateResult:
    primal_value: float
    lower_bound: float
    delta_ec: float
    p_pass: float
    rate: float
    iterations: int
    constraint_residual: float
    gap: float
    status: str
    certified: bool
    rho: np.ndarray | None = field(default=None, repr=False, compare=False)
    primal_history: tuple[float, ...] = field(default=(), repr=False, compare=False)


def _golden(phi, lo: float, hi: float, points: int) -> tuple[float, float]:
    t1 = hi - GOLDEN * (hi - lo)
    t2 = lo + GOLDEN * (hi - lo)
    f1, f2 = phi(t1), phi(t2)
    for _ in range(points - 2):
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - GOLDEN * (hi - lo)
            f1 = phi(t1)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + GOLDEN * (hi - lo)
            f2 = phi(t2)
    return (f1, t1) if f1 <= f2 else (f2, t2)


def _line_search(phi, f0: float) -> tuple[float, float]:
    # Exact minimization of the convex phi over t in (0, 1].  If the minimum
    # sits below the golden-section resolution (strongly curved objective),
    # a geometric backtracking pass locates a bracket and a second golden
    # pass refines inside it.
    best_f, best_t = _golden(phi, 0.0, 1.0, LINE_SEARCH_POINTS)
    f_end = phi(1.0)
    if f_end < best_f:
        best_f, best_t = f_end, 1.0
    if best_f >= f0:
        t = 1e-3
        while t > 1e-13:
            ft = phi(t)
            if ft < best_f:
                best_f, best_t = ft, t
            if ft < f0:
                break
            t *= 0.1
        if best_f < f0:
            gf, gt = _golden(phi, 0.0, min(1.0, 10 * best_t), 12)
            if gf < best_f:
                best_f, best_t = gf, gt
    return best_t, best_f


def _affine_project(rho: np.ndarray, ops: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Minimum-Frobenius-norm correction onto the affine subspace A(rho) = b.
    m = ops.shape[0]
    norms = np.array([np.linalg.norm(a, "fro") for a in ops])
    scaled = ops / norms[:, None, None]
    flat = scaled.reshape(m, -1)
    gram = (flat.conj() @ flat.T).real
    resid = (np.einsum("iab,ba->i", ops, rho).real - b) / norms
    w = np.linalg.solve(gram + 1e-14 * np.eye(m), resid)
    return rho - np.tensordot(w, scaled, axes=1)


def _feasible_start(rho: np.ndarray, ops: np.ndarray, b: np.ndarray, rounds: int = 400) -> np.ndarray:
    # Alternate affine projection with PSD clamping; the interior-point
    # output is close to feasible, so modest linear convergence suffices.
    # Degenerate sets (pure-state corners) converge slowly, hence the budget.
    for _ in range(rounds):
        rho = _affine_project(rho, ops, b)
        w, u = np.linalg.eigh(hermitize(rho))
        if w.min() >= -1e-12:
            return hermitize(rho)
        rho = (u * np.maximum(w, 0.0)) @ u.conj().T
    return hermitize(rho)


def _repaired_dual_bound(grad: np.ndarray, ops: np.ndarray, b: np.ndarray, y: np.ndarray, trace_pos: int) -> float:
    # Shift the trace coordinate until sum_i y_i Gamma_i <= grad holds exactly;
    # any dual-feasible y gives a valid bound b.y on min <sigma, grad>.
    s_mat = grad - np.tensordot(y, ops, axes=1)
    lam_min = float(np.linalg.eigvalsh(hermitize(s_mat)).min())
    margin = 1e-12 * (1.0 + float(np.max(np.abs(grad))))
    y = y.copy()
    if lam_min < margin:
        y[trace_pos] += lam_min - margin
    return float(b @ y)


def solve(cs: ConstraintSet, maps: PostprocessingMaps, ec_floor: float | None = None) -> KeyRateResult:
    """Minimize the pinched relative entropy over the constrained state set.

    Returns the primal value at the last iterate and a certified lower bound
    (both in bits).  `ec_floor` enables an early exit: once the primal drops
    below it the final key rate is provably zero, since the primal only
    decreases and always dominates the minimum.
    """
    kept = independent_rows(cs.operators)
    ops = cs.operators[kept]
    b = cs.values[kept]
    if 0 not in kept:  # trace row is first and never a combination of nothing
        raise RuntimeError("trace constraint unexpectedly dropped")
    trace_pos = kept.index(0)

    # Feasibility pre-solve with a deterministic generic objective; its
    # solution, polished by projection, is the starting state.
    dim = cs.dim
    c0 = np.diag(np.linspace(0.0, 1.0, dim)).astype(complex)
    try:
        pre = solve_sdp(c0, ops, b, max_iters=200)
    except SdpError as exc:
        raise InfeasibleError(f"feasibility pre-solve failed: {exc}", np.inf) from exc
    rho = _feasible_start(hermitize(pre.x), ops, b)
    full_res = float(np.max(np.abs(cs.residuals(rho))))
    if full_res > 5e-8 or np.linalg.eigvalsh(rho).min() < -1e-9:
        raise InfeasibleError("no feasible state found", full_res)
    # Subproblems run against the start point's achieved values (identical to
    # b up to truncation slack, and exactly feasible by construction); the
    # certified bound below always uses the stated values, which weak duality
    # permits since dual feasibility does not involve the right-hand side.
    b_sub = np.einsum("iab,ba->i", ops, rho).real

    f, grad = objective_with_gradient(rho, maps)
    history = [f]
    lower_history: list[float] = []
    best_lower = -np.inf
    gap = np.inf
    status = "max_iters"
    certified = True
    iterations = 0

    for iterations in range(1, MAX_ITERS + 1):
        try:
            sub = solve_sdp(grad, ops, b_sub, max_iters=IPM_MAX_ITERS)
        except SdpError:
            sub = None
        # A slightly loose subproblem is still usable: the direction only
        # needs near-feasibility, and the dual repair keeps the bound valid.
        usable = sub is not None and (
            sub.converged or (sub.primal_residual < 1e-6 and sub.dual_residual < 1e-6)
        )
        if not usable:
            status = "subproblem_failure"
            certified = False
            break

        sigma = hermitize(sub.x)
        if sub.primal_residual > 5e-8:
            # Polish the atom so mixing cannot degrade the iterate's
            # feasibility beyond what the subproblem geometry allows; at
            # degenerate corners (empty interior) a small floor remains, and
            # the certified bound stays rigorous regardless since dual
            # feasibility does not involve the constraint values.
            sigma = _feasible_start(sigma, ops, b_sub, rounds=60)
            res_sigma = float(np.max(np.abs(np.einsum("iab,ba->i", ops, sigma).real - b_sub)))
            atom_tol = max(5e-8, min(1.5 * sub.primal_residual, 2e-6))
            if res_sigma > atom_tol or np.linalg.eigvalsh(sigma).min() < -1e-9:
                status = "subproblem_failure"
                certified = False
                break
        gap = float(np.einsum("ab,ba->", rho - sigma, grad).real)
        gap = max(gap, 0.0)
        lower_k = f - float(np.einsum("ab,ba->", rho, grad).real) + _repaired_dual_bound(
            grad, ops, b, sub.y, trace_pos
        )
        best_lower = max(best_lower, lower_k)

        lower_history.append(best_lower)

        if ec_floor is not None and f < ec_floor:
            status = "rate_zero"
            break
        if gap < GAP_TOL:
            status = "converged"
            break
        w = BOUND_PLATEAU_WINDOW
        if len(lower_history) > 2 * w and best_lower - lower_history[-w] < BOUND_PLATEAU_TOL:
            status = "converged_bound"
            break

        delta = sigma - rho
        phi = line_objective(rho, delta, maps)
        t_step, f_step = _line_search(phi, f)
        if f_step >= f - 1e-14:
            status = "converged_approx" if gap < 1e3 * GAP_TOL else "stalled"
            certified = certified and status == "converged_approx"
            break
        rho = hermitize(rho + t_step * delta)
        f, grad = objective_with_gradient(rho, maps)
        history.append(f)

    residual = float(np.max(np.abs(cs.residuals(rho))))
    lower = best_lower if best_lower > -np.inf else np.nan
    return KeyRateResult(
        primal_value=f,
        lower_bound=lower,
        delta_ec=0.0,
        p_pass=1.0,
        rate=max(0.0, lower) if np.isfinite(lower) else 0.0,
        iterations=iterations,
        constraint_residual=residual,
        gap=gap,
        status=status,
        certified=certified and np.isfinite(lower),
        rho=rho,
        primal_history=tuple(history),
    )


def key_rate(cs: ConstraintSet, maps: PostprocessingMaps, ec: tuple[float, float]) -> KeyRateResult:
    """Certified key rate max(0, lower_bound - p_pass * delta_EC)."""
    delta_ec, p_pass = ec
    res = solve(cs, maps, ec_floor=p_pass * delta_ec)
    rate = max(0.0, res.lower_bound - p_pass * delta_ec) if np.isfinite(res.lower_bound) else 0.0
    return replace(res, delta_ec=delta_ec, p_pass=p_pass, rate=rate)
