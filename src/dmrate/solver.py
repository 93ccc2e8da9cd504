"""Frank-Wolfe minimization of the relative-entropy objective with a
certified lower bound, on the symmetry-reduced state.

The state is the stack of real blocks of `maps`.  Only the values change
from point to point, so a `Problem`, built once per artifact key, reduces
every constraint row Gamma_i = A_i (x) B_i to its blocks (those of its
group average T(Gamma_i)) entrywise from its two factors, without forming
the row on A (x) B, and makes every row check, once: every T(Gamma_i) must
lie in the span of the rows, and the first independent row kept must reduce
to exactly the identity blocks, the trace, which the start and the dual
repair both rest on.  `solve` checks that every relation among the reduced
rows holds for the values.  Then the twirl of any feasible state is
feasible, the objective is convex and invariant, and the minimum over
invariant states is the minimum over all states.  Otherwise ValueError.

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
back to A (x) B, and its residual is taken against every row of the
problem, from the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import DIM_A
from .entropy import line_objective, objective_with_gradient, perturbed
from .fock import hermitize
from .maps import PostprocessingMaps
from .sdp import independent_rows, solve_sdp

__all__ = ["KeyRateResult", "InfeasibleError", "Problem", "solve"]

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
    """One solve, in bits.  `rate` is max(0, lower_bound - p_pass delta_ec),
    or 0 without a bound, with `lower_bound` the best certified bound of the
    run and (`delta_ec`, `p_pass`) the solve's `ec` pair: (0, 1) by default,
    `channel.ec_cost` of the key map's P(x, z) in `evaluate_point`.  `rho`
    is the last iterate on A (x) B after the closing correction onto the
    rows, or the start where that correction fails; `primal_value` is its
    objective.  `status`: "converged" (gap below GAP_TOL), "converged_bound"
    (bound plateau), "converged_approx" or the uncertified "stalled" (no
    descent at a small or a large gap), "rate_zero" (primal below p_pass
    delta_ec), "subproblem_failure" or "max_iters".  `constraint_residual`
    is the largest |Tr(rho Gamma_i) - c_i| over every row of the problem."""

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


@dataclass(frozen=True, eq=False)
class Problem:
    """The operators of one artifact key: ``maps``, and the rows
    Gamma_i = A_i (x) B_i as their factors, ``a_parts`` (m, 4, 4) and
    ``b_parts`` (m, N+1, N+1), one label each (`constraints.constraint_rows`).
    Every row check runs here, once: ValueError unless the factors are finite
    and fit the maps, the rows are closed under the maps' group and the first
    kept row is the trace.  ``kept`` indexes independent reduced rows, ``ops``
    holds their blocks, ``scale`` the rows' norms and ``coef`` each unit
    reduced row as a combination of the kept ones.  The factors are copied;
    every array is read-only, since cached problems are shared by every point.
    A problem compares and hashes by identity."""

    maps: PostprocessingMaps = field(repr=False)
    a_parts: np.ndarray = field(repr=False)
    b_parts: np.ndarray = field(repr=False)
    labels: tuple[str, ...]
    kept: np.ndarray = field(init=False)
    ops: np.ndarray = field(init=False, repr=False)
    scale: np.ndarray = field(init=False, repr=False)
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b = np.array(self.a_parts, dtype=complex), np.array(self.b_parts, dtype=complex)
        m, n_b = len(self.labels), self.maps.dim_ab // DIM_A
        if a.shape != (m, DIM_A, DIM_A) or b.shape != (m, n_b, n_b):
            raise ValueError(f"factors of shapes {a.shape} and {b.shape} do not fit {m} rows on Bob dimension {n_b}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("constraint factors must be finite")
        for name, arr in (("a_parts", a), ("b_parts", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        red = self.maps.reduce_products(a, b)
        gram = self.gram()
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
            raise ValueError(f"constraint rows are not closed under the symmetry group (row {self.labels[i]!r})")
        # Looked up per call, so a rebinding of dmrate.solver.independent_rows reaches here.
        kept = np.array(independent_rows(red))
        if not np.array_equal(red[kept[0]], np.broadcast_to(np.eye(red.shape[-1]), red.shape[1:])):
            raise ValueError("row 0 must be the trace, whose blocks are the identity")
        coef = np.linalg.solve(gram_red[np.ix_(kept, kept)], gram_red[kept])
        for name, arr in (("kept", kept), ("ops", red[kept]), ("scale", scale), ("coef", coef)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def gram(self) -> np.ndarray:
        """The real Gram matrix <Gamma_i, Gamma_j> = Re(<A_i, A_j><B_i, B_j>)
        of the rows from the factors alone, by einsum without path
        optimization, which hands no complex product to BLAS."""
        a, b = self.a_parts.conj(), self.b_parts.conj()
        return (np.einsum("ixy,jxy->ij", a, self.a_parts) * np.einsum("inm,jnm->ij", b, self.b_parts)).real

    def residuals(self, rho: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Tr(rho Gamma_i) - values_i for an operator rho on A (x) B, entrywise."""
        n_b = self.b_parts.shape[1]
        blocks = rho.reshape(DIM_A, n_b, DIM_A, n_b)
        return np.einsum("iyx,imn,xnym->i", self.a_parts, self.b_parts, blocks).real - values


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


def _residual(ops: np.ndarray, rho: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(ops.reshape(len(b), -1) @ rho.ravel() - b)))


def _scaled_correction(sigma: np.ndarray, ops: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """sigma corrected onto A(sigma) = b in its own metric, PSD, or None.
    The step sigma A*(z) sigma = sigma^1/2 (sigma^1/2 A*(z) sigma^1/2) sigma^1/2
    moves each eigendirection in proportion to its eigenvalue, so a
    correction small against the state keeps it PSD; a plain projection
    leaves the cone near a face, and alternating projection crawls back
    only slowly.  A second step removes what rounding leaves of the first,
    whose linear system is ill-conditioned near a face; on a thin set up to
    two more follow while the residual is above 1e-13."""
    m = len(b)
    flat = ops.reshape(m, -1)
    for step in range(4):
        if step >= 2 and _residual(ops, sigma, b) <= 1e-13:
            break
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


def solve(values: np.ndarray, problem: Problem, ec: tuple[float, float] = (0.0, 1.0)) -> KeyRateResult:
    """Minimize the pinched relative entropy over the states that meet the
    rows of `problem` at `values`, one per row, and charge the
    error-correction pair `ec` = (delta_EC, p_pass).

    Returns the primal value at the returned state, a certified lower bound
    and rate = max(0, lower_bound - p_pass delta_EC), all in bits; the
    default (0, 1) leaves the bound clipped at 0.  Once the primal f drops
    below p_pass delta_EC the solve exits early ("rate_zero"), since f only
    decreases and dominates the minimum.  That test reads f at an iterate
    that meets the rows only to the interior-point tolerance; the reported
    rate still comes from the certified bound alone.  Raises ValueError
    unless delta_EC >= 0 and p_pass > 0, both finite (p_pass is not capped
    at 1, which quadrature overshoots by ulps), or unless `values` is a
    finite (m,) array that keeps the relations among the problem's reduced
    rows, and InfeasibleError if the feasibility solve gives no start.
    """
    delta_ec, p_pass = ec
    if not (0.0 <= delta_ec < math.inf and 0.0 < p_pass < math.inf):
        raise ValueError(f"error-correction cost needs delta_EC >= 0 and p_pass > 0, both finite, got {ec}")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(problem.labels),) or not np.isfinite(values).all():
        raise ValueError(f"constraint values must be finite, one per row ({len(problem.labels)}), got {values}")
    # Every reduced row is a combination of the kept ones; its value must be
    # the same combination of theirs.
    unit = values / problem.scale
    mismatch = np.abs(unit - unit[problem.kept] @ problem.coef)
    if np.max(mismatch) > CLOSURE_TOL:
        i = int(np.argmax(mismatch))
        raise ValueError(f"constraint values are not invariant under the symmetry group (row {problem.labels[i]!r})")
    maps, ops, b = problem.maps, problem.ops, values[problem.kept]
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

        if f < p_pass * delta_ec:
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
    residual = float(np.max(np.abs(problem.residuals(rho, values))))
    lower = best_lower if best_lower > -np.inf else np.nan
    return KeyRateResult(
        primal_value=f,
        lower_bound=lower,
        delta_ec=delta_ec,
        p_pass=p_pass,
        rate=max(0.0, lower - p_pass * delta_ec) if np.isfinite(lower) else 0.0,
        iterations=iterations,
        constraint_residual=residual,
        gap=gap,
        status=status,
        certified=status != "stalled" and np.isfinite(lower),
        rho=rho,
        primal_history=tuple(history),
    )

