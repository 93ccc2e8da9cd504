"""Frank-Wolfe minimization of the relative-entropy objective with a
certified lower bound, on the symmetry-reduced state.

The state is the stack of real blocks of `maps`.  Once per solve every
constraint row Gamma_i = A_i (x) B_i is reduced to its blocks (those of its
group average T(Gamma_i)) entrywise from its two factors, without forming
the row on A (x) B, and `_reduced_rows` makes every row check, once.  Every
T(Gamma_i) must lie in the span of the rows and every relation among the
reduced rows must hold for the values: then the twirl of any feasible state
is feasible, the objective is convex and invariant, and the minimum over
invariant states is the minimum over all states.  Of the independent rows
kept, the first must reduce to exactly the identity blocks, the trace, which
the start and the dual repair both rest on.  Otherwise ValueError.

Each iteration linearizes the objective at `entropy.perturbed(rho)`, where f
and its gradient are taken (Winick, Lutkenhaus, Coles, Quantum 2, 77 (2018)),
and solves min <sigma, grad> over the constrained PSD set with the dense
interior-point solver; the subproblem's dual vector, repaired to exact dual
feasibility by shifting the coordinate of row 0, the trace, turns the
linearization into a valid lower bound on the true minimum (weak duality +
convexity), whether or not the states meet the rows.  The subproblems, the
bound and the closing correction all read the stated values of the kept rows.
The step toward the subproblem's state comes from one golden-section search
over logit t = ln(t / (1 - t)), as steps span many decades near 0 and 1.
The best bound over all iterations is reported, so even a run stopped at the
iteration cap, or by a subproblem that fails its usability check
("subproblem_failure"), is certified.  The start is a feasibility solve,
one interior-point solve whose objective is the trace row.  One correction
moves a state onto the rows, in its own metric, and it serves twice: it
turns that solve's point into the start, and the last iterate into the
returned state (or the start is returned where it fails), so the primal
value is taken at a state that meets the rows exactly and stays above the
bound.  Atoms are used as the subproblem returns them.  If no PSD state near
the feasibility solve's point meets the kept rows (the closure check covers
the rest), the solve raises InfeasibleError.  The returned state is lifted
back to A (x) B, and its residual is taken against the original rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import ConstraintSet
from .entropy import line_objective, objective_with_gradient, perturbed
from .fock import hermitize
from .maps import PostprocessingMaps
from .sdp import independent_rows, solve_sdp

__all__ = ["KeyRateResult", "InfeasibleError", "solve", "key_rate"]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GAP_TOL = 1e-6  # bits
MAX_ITERS = 300
LINE_SEARCH_POINTS = 21
# Stop once the certified bound has improved by less than this (bits) over
# the trailing window; the bound is the reported quantity, so extra
# iterations past its plateau only polish the primal.
BOUND_PLATEAU_TOL = 2.5e-7
BOUND_PLATEAU_WINDOW = 15
# Per unit-norm row: the norm of a group average that counts as vanishing,
# and the mismatch of a value that closure accepts.
CLOSURE_TOL = 1e-9
# Eigenvalues of the rows' normalized Gram matrix below this fraction of the
# largest belong to exact dependencies (the trace is the sum of the ptrace-d
# rows); closure bounds a unit row's squared norm outside their span by it too.
RANK_CUT = 1e-12


class InfeasibleError(RuntimeError):
    """No PSD state near the feasibility solve's point meets the kept rows,
    so the solve has no start point.  A feasible state may exist all the
    same, e.g. at some inputs with xi = 0 and trusted noise, where the set
    is thin.  `max_residual` is the largest kept-row residual of the
    feasibility solve's point."""

    def __init__(self, message: str, max_residual: float):
        super().__init__(f"{message} (max constraint residual {max_residual:.3e})")
        self.max_residual = max_residual


@dataclass(frozen=True)
class KeyRateResult:
    """One solve, in bits.  `rate` follows from `lower_bound`, the best
    certified bound of the run.  `rho` is the last iterate on A (x) B after
    the closing correction onto the rows, or the start where that correction
    fails; `primal_value` is its objective.
    `status`: "converged" (gap below GAP_TOL), "converged_bound" (bound
    plateau), "converged_approx" or the uncertified "stalled" (no descent at
    a small or a large gap), "rate_zero" (primal below the error-correction
    cost), "subproblem_failure" or "max_iters"."""

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


def _line_search(phi) -> tuple[float, float]:
    # Exact minimization of the convex phi over t in (0, 1).  A convex phi is
    # unimodal in u = logit t as well, so one golden section over u in [-30, 30]
    # finds the minimizer to about 0.3% of t near 0 and of 1 - t near 1.
    def logistic(u): return 1.0 / (1.0 + math.exp(-u))
    lo, hi = -30.0, 30.0
    u1, u2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = phi(logistic(u1)), phi(logistic(u2))
    for _ in range(LINE_SEARCH_POINTS - 2):
        if f1 <= f2:
            hi, u2, f2 = u2, u1, f1
            u1 = hi - GOLDEN * (hi - lo)
            f1 = phi(logistic(u1))
        else:
            lo, u1, f1 = u1, u2, f2
            u2 = lo + GOLDEN * (hi - lo)
            f2 = phi(logistic(u2))
    return (logistic(u1), f1) if f1 <= f2 else (logistic(u2), f2)


def _reduced_rows(cs: ConstraintSet, maps: PostprocessingMaps) -> tuple[np.ndarray, np.ndarray]:
    """(ops, b): the real blocks of an independent subset of the rows, and
    their values.  ValueError unless the rows and values are closed under the
    group of the maps and the first kept row is the trace.  The blocks and the
    Gram matrix come from the factors A_i and B_i, not from A (x) B."""
    m = len(cs.labels)
    red = maps.reduce_products(cs.a_parts, cs.b_parts)
    gram = cs.gram()  # <Gamma_i, Gamma_j>
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0.0] = 1.0
    red_flat = red.reshape(m, -1)
    # Rows whose group average vanishes constrain no invariant state.
    red_flat[np.linalg.norm(red_flat, axis=1) <= CLOSURE_TOL * scale] = 0.0
    unit = np.outer(scale, scale)
    gram, gram_red = gram / unit, (red_flat @ red_flat.T) / unit

    # T(Gamma_i) in the span of the rows: its component outside the span,
    # |T Gamma_i|^2 - h_i G^+ h_i with h_ij = <Gamma_j, T Gamma_i>
    # = <T Gamma_j, T Gamma_i>, vanishes.
    w, v = np.linalg.eigh(gram)
    v = v[:, w > RANK_CUT * w[-1]] / np.sqrt(w[w > RANK_CUT * w[-1]])
    outside = np.diag(gram_red) - np.sum((v.T @ gram_red) ** 2, axis=0)
    if np.max(outside) > RANK_CUT:
        i = int(np.argmax(outside))
        raise ValueError(f"constraint rows are not closed under the symmetry group (row {cs.labels[i]!r})")

    kept = independent_rows(red)
    # Every reduced row is a combination of the kept ones; its value must be
    # the same combination of theirs.
    values = cs.values / scale
    coef = np.linalg.solve(gram_red[np.ix_(kept, kept)], gram_red[kept])
    mismatch = np.abs(values - values[kept] @ coef)
    if np.max(mismatch) > CLOSURE_TOL:
        i = int(np.argmax(mismatch))
        raise ValueError(f"constraint values are not invariant under the symmetry group (row {cs.labels[i]!r})")
    if not np.array_equal(red[kept[0]], np.broadcast_to(np.eye(red.shape[-1]), red.shape[1:])):
        raise ValueError("row 0 must be the trace, whose blocks are the identity")
    return red[kept], cs.values[kept]


def _residual(ops: np.ndarray, rho: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(ops.reshape(len(b), -1) @ rho.ravel() - b)))


def _scaled_correction(sigma: np.ndarray, ops: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """sigma corrected onto A(sigma) = b in its own metric, PSD, or None.
    The step sigma A*(z) sigma = sigma^1/2 (sigma^1/2 A*(z) sigma^1/2) sigma^1/2
    moves each eigendirection in proportion to its eigenvalue, so a
    correction small against the state keeps it PSD; a plain projection
    leaves the cone near a face, and alternating projection crawls back
    only slowly.  A second step removes what rounding leaves of the first,
    whose linear system is ill-conditioned near a face."""
    m = len(b)
    flat = ops.reshape(m, -1)
    for _ in range(2):
        scaled = sigma @ ops @ sigma
        try:
            z = np.linalg.solve(scaled.reshape(m, -1) @ flat.T, b - flat @ sigma.ravel())
        except np.linalg.LinAlgError:
            return None
        sigma = hermitize(sigma + np.tensordot(z, scaled, axes=1))
    if _residual(ops, sigma, b) > 1e-13 or np.linalg.eigvalsh(sigma).min() < -1e-12:
        return None
    return sigma


def _repaired_dual(grad: np.ndarray, ops: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Shift y[0], the trace row's coordinate, until sum_i y_i Gamma_i <= grad
    # holds exactly; any dual-feasible y gives a valid bound b.y on
    # min <sigma, grad>.
    s_mat = grad - np.tensordot(y, ops, axes=1)
    lam_min = float(np.linalg.eigvalsh(hermitize(s_mat)).min())
    margin = 1e-12 * (1.0 + float(np.max(np.abs(grad))))
    y = y.copy()
    if lam_min < margin:
        y[0] += lam_min - margin
    return y


def solve(cs: ConstraintSet, maps: PostprocessingMaps, ec_floor: float | None = None) -> KeyRateResult:
    """Minimize the pinched relative entropy over the constrained state set.

    Returns the primal value at the returned state and a certified lower bound
    (both in bits).  `ec_floor` enables an early exit: once the primal drops
    below it the final key rate is taken to be zero, since the primal only
    decreases and dominates the minimum.  That test reads f at an iterate
    that meets the rows only to the interior-point tolerance; the reported
    rate still comes from the certified bound alone.  Raises ValueError if
    the rows or values are not closed under the group or row 0 is not the
    trace, and InfeasibleError if the feasibility solve gives no start.
    """
    ops, b = _reduced_rows(cs, maps)

    # Tr rho is 1 on the feasible set, so this objective chooses nothing:
    # the solve finds a point that meets the rows to the IPM tolerance, and
    # the scaled correction makes it exact and PSD.
    pre = solve_sdp(ops[0], ops, b)
    rho = _scaled_correction(pre.x, ops, b)
    if rho is None:
        raise InfeasibleError("no feasible state found", _residual(ops, pre.x, b))

    f, grad = objective_with_gradient(rho, maps)
    start = rho, f
    history = [f]
    lower_history: list[float] = []
    best_lower = -np.inf
    gap = np.inf
    status = "max_iters"
    iterations = 0

    for iterations in range(1, MAX_ITERS + 1):
        sub = solve_sdp(grad, ops, b)
        # Any finite dual vector, once repaired, certifies a bound, since dual
        # feasibility does not involve the constraint values; so the bound is
        # taken before the checks below, which only judge the direction.
        if np.isfinite(sub.y).all():
            lower_k = f - float(np.vdot(perturbed(rho), grad)) + float(b @ _repaired_dual(grad, ops, sub.y))
            best_lower = max(best_lower, lower_k)
        # A slightly loose subproblem is still usable: the direction only
        # needs near-feasibility, and the dual repair keeps the bound valid.
        if not (sub.converged or (sub.primal_residual < 1e-6 and sub.dual_residual < 1e-6)):
            status = "subproblem_failure"
            break

        gap = float(np.vdot(rho - sub.x, grad))
        gap = max(gap, 0.0)
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

        delta = sub.x - rho
        phi = line_objective(rho, delta, maps)
        t_step, f_step = _line_search(phi)
        if f_step >= f - 1e-14:
            status = "converged_approx" if gap < 1e3 * GAP_TOL else "stalled"
            break
        rho = rho + t_step * delta
        f, grad = objective_with_gradient(rho, maps)
        history.append(f)

    # The iterate meets the rows only to its atoms' interior-point
    # tolerance, and a residual r can take f below the minimum by |y| r.
    # The scaled correction makes it exact and keeps it PSD; where it fails,
    # the start gives a looser primal at a state that meets the rows.
    exact = _scaled_correction(rho, ops, b)
    rho, f = start if exact is None else (exact, objective_with_gradient(exact, maps)[0])
    rho = maps.lift(rho)
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
        certified=status != "stalled" and np.isfinite(lower),
        rho=rho,
        primal_history=tuple(history),
    )


def key_rate(cs: ConstraintSet, maps: PostprocessingMaps, ec: tuple[float, float]) -> KeyRateResult:
    """Certified key rate max(0, lower_bound - p_pass * delta_EC)."""
    delta_ec, p_pass = ec
    res = solve(cs, maps, ec_floor=p_pass * delta_ec)
    rate = max(0.0, res.lower_bound - p_pass * delta_ec) if np.isfinite(res.lower_bound) else 0.0
    return replace(res, delta_ec=delta_ec, p_pass=p_pass, rate=rate)
