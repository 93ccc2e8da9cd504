"""Alternating minimization of the relative-entropy objective over Gibbs
states on the constraint rows, with a certified lower bound, on the
symmetry-reduced state.

The state is the stack of real blocks of `maps`.  Only the values change
from point to point, so a `Problem`, built once per artifact key, reduces
every constraint row Gamma_i = A_i (x) B_i to its blocks (those of its
group average T(Gamma_i)) entrywise from its two factors, without forming
the row on A (x) B, and makes every row check, once: every T(Gamma_i) must
lie in the span of the rows, and the first independent row kept must reduce
to exactly the identity blocks, the trace, which the start and the
certificate's shift both rest on.  `solve` checks that every relation among
the reduced rows holds for the values.  Then the twirl of any feasible state
is feasible, the objective is convex and invariant, and the minimum over
invariant states is the minimum over all states.  Otherwise ValueError.

The solve works in the coordinates sigma = W rho W^T of `entropy`, where the
kept rows read A'_i = W^-T A_i W^-1 and -Tr P ln P = min_Q [-Tr P ln Q +
Tr Q - Tr P] (Gibbs' inequality, equality at Q = P) makes f(sigma) the
minimum over Q of a function jointly convex in (sigma, Q).  Minimizing it in
each by turns lowers f at every step (Csiszar and Tusnady, Statistics &
Decisions, Suppl. 1, 205 (1984); in the quantum Blahut-Arimoto form of
Ramakrishnan, Iten, Scholz and Berta, IEEE Trans. Inf. Theory 67, 946
(2021)).  The Q-step takes Q = P(sigma), which leaves the exponent
L = sum_r w_r F'_r^T (ln P_r + 1) F'_r - 1 = ln sigma - grad f(sigma); the
sigma-step, `_gibbs`, puts exp(L + sum_i y_i A'_i) on the kept rows,
warm-started at the last y.  The start is the maximum-entropy state rho_0 on
the rows (else InfeasibleError), mapped to sigma_0 with its log from a
graded factorization of W rho_0^1/2, and y = 0.

Every iterate is a Gibbs state whose log is known exactly, its exponent.  So
the slack S = grad f(sigma) - sum_i y_i A'_i is known, and tends to 0 at the
fixed point.  Shifting y_0, the trace row's coordinate, by lambda_min of
C^-1 S C^-T, C = chol(A'_0) = W^-T (so C^-1 S C^-T = W^T S W, the slack in
rho coordinates), less a rounding margin, makes y' dual feasible for the
linearization at sigma, and convexity and weak duality make
f(sigma) - <sigma, grad f(sigma)> + b.y' a lower bound on the minimum,
whether or not sigma meets the rows, provided some state does.  The first
two terms, c = <sigma, sum_r w_r F'_r^T F'_r - 1>, vanish in exact
arithmetic and are computed, not dropped.  No bound can pass
log2 4 = 2 bits, which f obeys for every state: one that does beyond its
margin shows that no state meets the rows, and raises InfeasibleError.  A
certificate is taken every CERTIFY_EVERY outer iterations and at every exit;
the best one is reported.  The returned state is the last iterate, on the
rows to `_gibbs`'s tolerance; lifted back to A (x) B, its residual is taken
against every row of the problem, from the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import DIM_A
from .entropy import graded_eig, objective_with_gradient
from .fock import hermitize
from .maps import PostprocessingMaps

__all__ = ["KeyRateResult", "InfeasibleError", "Problem", "solve", "independent_rows", "solve_sdp", "line_objective"]

LN2 = math.log(2.0)
MAX_ITERS = 1000  # outer iterations of every solve
CERTIFY_EVERY = 5  # outer iterations between certificates
BOUND_GAP = 1e-9  # bits: f - bound at which a solve has converged
CEILING = 2.0  # bits: log2 of the four key values, above f at every state
# The iterate's log-eigenvalues are clipped here: exp(-300) is far above
# underflow, and the clipped state is still a Gibbs state with a known log.
LOG_FLOOR = -300.0
# Per unit-norm row: the norm of a group average that counts as vanishing,
# and the mismatch of a value that closure accepts.
CLOSURE_TOL = 1e-9
# Eigenvalues of the rows' normalized Gram matrix below this fraction of the
# largest belong to exact dependencies (the trace is the sum of the ptrace-d
# rows); closure bounds a unit row's squared norm outside their span by it too.
RANK_CUT = 1e-12
# A row is independent when its distance from the span of the rows before
# it is more than this fraction of its norm.
RANK_TOL = 1e-9
NEWTON_STEPS = 200  # trial points of every `_gibbs` solve, halved steps included


class InfeasibleError(RuntimeError):
    """No state was found on the kept rows: `_gibbs` missed a row's
    tolerance, or a certified bound passed the 2-bit ceiling.  One may exist
    all the same where the set has no interior, as at some inputs with
    xi = 0 and trusted noise.  `max_residual` is the largest kept-row
    residual of the last state tried."""

    def __init__(self, message: str, max_residual: float):
        super().__init__(f"{message} (max constraint residual {max_residual:.3e})")
        self.max_residual = max_residual


@dataclass(frozen=True)
class KeyRateResult:
    """One solve, in bits.  `rate` is max(0, lower_bound - p_pass delta_ec),
    with `lower_bound` the best certified bound of the run and (`delta_ec`,
    `p_pass`) the solve's `ec` pair: (0, 1) by default, `channel.ec_cost` of
    the key map's P(x, z) in `evaluate_point`.  `rho`, on A (x) B, is the
    last iterate, `primal_value` its objective, `constraint_residual` its
    largest |Tr(rho Gamma_i) - c_i| over every row of the problem, and
    `primal_history` the objective at the start and after each of the
    `iterations` outer iterations.  `gap` is primal_value - lower_bound.
    `status` is "converged" (gap below BOUND_GAP), "rate_zero" (primal below
    p_pass delta_ec at an iterate, the start included) or "max_iters" (the
    MAX_ITERS cap).  Every exit is certified: `certified` means the bound is
    finite."""

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


def independent_rows(ops: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent subset of the real
    constraint operators (the first axis of ``ops``), chosen greedily in
    order (earlier rows win ties).  One unpivoted Householder QR of the unit
    rows, each extended by a coordinate of its own of size s = sqrt(eps *
    RANK_TOL): |R_ii| is row i's distance from the span of the rows before it
    there, at least that in the rows' own space, and at most s (1 + |c|^2)^1/2
    for a zero row or a combination c of the unit rows before it.  Unextended,
    a dependent row's step pivots on rounding and spends a direction of the
    rows' space, so a later independent row can read as dependent."""
    if np.iscomplexobj(ops):
        raise TypeError("independent_rows takes real operators only")
    m = len(ops)
    ext = np.vstack([np.sqrt(np.finfo(float).eps * RANK_TOL) * np.eye(m), ops.reshape(m, -1).T])
    norms = np.linalg.norm(ext[m:], axis=0)
    ext[m:] /= np.where(norms > 0.0, norms, 1.0)
    r = np.linalg.qr(ext, mode="r")
    return np.flatnonzero(np.abs(np.diag(r)) > RANK_TOL).tolist()


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


def line_objective(exponent: float | np.ndarray, ops: np.ndarray, b: np.ndarray, y: np.ndarray, step):
    """t -> (g(y + t step), w, u): the dual g(y) = b.y - Tr exp(exponent +
    sum_i y_i A_i) of `_gibbs` along ``step`` from y, with the eigenpairs
    (w, u) of the exponent there; g is -inf where exp would overflow."""

    def line(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        z = y + t * step
        w, u = np.linalg.eigh(exponent + np.tensordot(z, ops, axes=1))
        return (float(b @ z - np.sum(np.exp(w))) if w.max() < 700.0 else -np.inf), w, u

    return line


def _gibbs(
    exponent: float | np.ndarray, ops: np.ndarray, b: np.ndarray, y: np.ndarray, tol: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma = exp(exponent + sum_i y_i A_i), blockwise, at the y maximizing
    the concave g(y) = b.y - Tr sigma, whose gradient is the residual
    r = b - A(sigma): the state on the kept rows nearest exp(exponent) in
    relative entropy (Jaynes, Phys. Rev. 106, 620 (1957)).  Returns the
    eigenpairs (w, u) of its exponent and y.  Newton from y, one trial point
    y + t step a pass, halving t where g rises too little (it is -inf where
    exp would overflow), unless rounding hides the rise (r.step < 1e-12).
    InfeasibleError unless every |r_i| reaches its ``tol`` before r.step is
    1e-26."""
    t, step, dec, g = 0.0, 0.0, 0.0, -np.inf
    line = line_objective(exponent, ops, b, y, step)
    for _ in range(NEWTON_STEPS):
        g_t, w, u = line(t)
        if not (g_t >= g + 0.25 * t * dec or (dec < 1e-12 and g_t > -np.inf)):
            t /= 2.0
            continue
        y, g = y + t * step, g_t
        sigma = (u * np.exp(w)[..., None, :]) @ u.swapaxes(-1, -2)
        r = b - np.tensordot(ops, sigma, axes=3)
        if np.all(np.abs(r) <= tol):
            return w, u, y
        # The Hessian <A_i, Dexp[A_j]> from exp's divided differences in the
        # eigenbasis, each e^max(a, b) (1 - e^-|a - b|) / |a - b|, e^a at a = b.
        rot = (u.swapaxes(-1, -2) @ ops @ u).reshape(len(b), -1)
        gap = np.abs(w[..., :, None] - w[..., None, :])
        div = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0)
        div *= np.exp(np.maximum(w[..., :, None], w[..., None, :]))
        try:
            step = np.linalg.solve((rot * div.ravel()) @ rot.T, r)
        except np.linalg.LinAlgError:  # singular, as where the set has no interior
            break
        t, dec = 1.0, float(r @ step)
        if not dec >= 1e-26:
            break
        line = line_objective(exponent, ops, b, y, step)
    raise InfeasibleError("no state meets the kept rows", float(np.max(np.abs(r))))


# The bench (bench/spans.py) traces every sigma-step, the start's included,
# and its line search by the names of the Frank-Wolfe solver's subproblem
# and line objective; `solve` and `_gibbs` look both up per call, so a
# rebinding reaches them.
solve_sdp = _gibbs


def _certificate(
    f: float, grad: np.ndarray, sigma: np.ndarray, y: np.ndarray, w: np.ndarray, ops: np.ndarray, b: np.ndarray
) -> tuple[float, float]:
    """The lower bound c + b.y' on the minimum, in nats, from the iterate
    sigma, its objective f and gradient ``grad`` and the multipliers y of
    the rows A'_i, and the margin taken off it.  With C = W^-T, C^-1 S C^-T
    is W^T grad W - sum_i y_i A_i on the rows ``ops`` of rho coordinates,
    and y'_0 = y_0 + its lambda_min - margin.  The margin, 1e-12 (1 +
    max |W^T grad W|), covers the rounding of that eigenvalue."""
    slack = w.swapaxes(-1, -2) @ grad @ w
    margin = 1e-12 * (1.0 + float(np.max(np.abs(slack))))
    shift = float(np.linalg.eigvalsh(hermitize(slack - np.tensordot(y, ops, axes=1))).min()) - margin
    return f - float(np.vdot(sigma, grad)) + float(b @ y) + float(b[0]) * shift, margin


def _check_ceiling(bound: float, margin: float, residual: float) -> float:
    """``bound`` (bits), unless it passes CEILING by more than ``margin``:
    then no state meets the rows, whose kept-row residual at the iterate is
    ``residual``, and InfeasibleError."""
    if bound > CEILING + margin:
        raise InfeasibleError(f"certified bound {bound:.6f} bits is above the {CEILING:g}-bit ceiling", residual)
    return bound


def solve(values: np.ndarray, problem: Problem, ec: tuple[float, float] = (0.0, 1.0)) -> KeyRateResult:
    """Minimize the pinched relative entropy over the states that meet the
    rows of `problem` at `values`, one per row, and charge the
    error-correction pair `ec` = (delta_EC, p_pass).

    Returns the primal value at the returned state, a certified lower bound
    and rate = max(0, lower_bound - p_pass delta_EC), all in bits; the
    default (0, 1) leaves the bound clipped at 0.  Once the primal f drops
    below p_pass delta_EC the solve exits early ("rate_zero"), since f only
    decreases and dominates the minimum; the reported rate still comes from
    the certified bound alone.  Raises ValueError unless delta_EC >= 0 and
    p_pass > 0, both finite (p_pass is not capped at 1, which a sum of
    masses can pass by ulps), or unless `values` is a finite (m,) array that
    keeps the relations among the problem's reduced rows, and
    InfeasibleError where no state is found on the rows.
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
    maps, b = problem.maps, values[problem.kept]
    w = maps.kraus_factor
    w_inv = np.linalg.inv(w)
    ops = w_inv.swapaxes(-1, -2) @ problem.ops @ w_inv
    pinch = maps.pinch_factors @ w_inv

    # Rounding in Tr(A'_i sigma) grows with |A'_i| |sigma|, and |sigma| <=
    # |W|^2 |rho|: each row's tolerance is 1e-13 max(1, |A'_i| |W|^2 / |A_i|)
    # in spectral norms, exactly 1e-13 where W = 1 (delta_a = 0).
    def norm2(a):
        return np.max(np.linalg.norm(a, ord=2, axis=(-2, -1)), axis=-1)

    tol = 1e-13 * np.maximum(1.0, norm2(ops) * norm2(w) ** 2 / norm2(problem.ops))
    # Row 0 is the trace, so the start's Newton solve sets out from 1/(K d).
    lam, u, _ = solve_sdp(0.0, problem.ops, b, -math.log(w.shape[0] * w.shape[1]) * np.eye(len(b))[0], 1e-13)
    lam, u = graded_eig(w @ (u * np.exp(0.5 * np.maximum(lam, LOG_FLOOR))[..., None, :]))
    y = np.zeros(len(b))
    history: list[float] = []
    best, status = -np.inf, None
    for iterations in range(MAX_ITERS + 1):
        lam = np.maximum(lam, LOG_FLOOR)
        f, grad = objective_with_gradient(lam, u, pinch, maps.pinch_weights)
        history.append(f / LN2)
        if history[-1] < p_pass * delta_ec:
            status = "rate_zero"
        elif iterations == MAX_ITERS:
            status = "max_iters"
        sigma = (u * np.exp(lam)[..., None, :]) @ u.swapaxes(-1, -2)
        if status or iterations % CERTIFY_EVERY == 0:
            bound, margin = _certificate(f, grad, sigma, y, w, problem.ops, b)
            residual = float(np.max(np.abs(np.tensordot(ops, sigma, axes=3) - b)))
            best = max(best, _check_ceiling(bound / LN2, margin / LN2, residual))
            if status is None and history[-1] - best < BOUND_GAP:
                status = "converged"
        if status:
            break
        log_sigma = (u * lam[..., None, :]) @ u.swapaxes(-1, -2)
        lam, u, y = solve_sdp(log_sigma - grad, ops, b, y, tol)

    rho = maps.lift(w_inv @ sigma @ w_inv.swapaxes(-1, -2))
    residual = float(np.max(np.abs(problem.residuals(rho, values))))
    return KeyRateResult(
        primal_value=history[-1],
        lower_bound=best,
        delta_ec=delta_ec,
        p_pass=p_pass,
        rate=max(0.0, best - p_pass * delta_ec),
        iterations=iterations,
        constraint_residual=residual,
        gap=history[-1] - best,
        status=status,
        certified=bool(np.isfinite(best)),
        rho=rho,
        primal_history=tuple(history),
    )
