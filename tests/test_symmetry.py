"""The solver works on the symmetry-reduced state.  These tests hold the
reduction to the full-space definition: the group is applied literally, and
the objective comes from the full-space oracle in tests/support/maps.py.

V = (x -> x+1 on A) (x) e^{i pi n/2}, and Theta = (x -> -x on A) (x) complex
conjugation in the Fock basis.  Identical detector arms (the ideal detector,
and so the untrusted scenario, included) keep V and Theta; distinct arms
keep V^2 and Theta.
"""

import numpy as np
import pytest

from dmrate import solver
from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import DIM_A, build_constraints
from dmrate.detector import DetectorModel
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set, region_operators
from dmrate.pipeline import point_artifacts
from dmrate.solver import LN2, independent_rows, solve
from support.constraints import full_operators, gibbs_state, greedy_rows, rebuilt
from support.maps import full_objective, full_objective_with_gradient, lift, reduce, reduced_objective_with_gradient, roots

DET = DetectorModel.simple(0.719, 0.01)
DISTINCT = DetectorModel(0.70, 0.74, 0.01, 0.02)
CUTOFF = 5
CASES = {
    "identical-d0": (DET, 0.0, "trusted"),
    "identical-d0.5": (DET, 0.5, "trusted"),
    "ideal-untrusted": (DET, 0.5, "untrusted"),
    "distinct": (DISTINCT, 0.5, "trusted"),
    "distinct-d0": (DISTINCT, 0.0, "trusted"),
}


def problem(case, cutoff=CUTOFF, distance=20.0):
    det, delta_a, mode = CASES[case]
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=cutoff)
    obs, prob = point_artifacts(det, pp, mode)
    stats = simulate_statistics(ChannelModel.from_distance(distance, 0.01), det, pp)
    return build_constraints(stats, obs, pp, mode), prob


def group(maps):
    """The group's action on operators of A (x) B, one callable per element."""
    n_b = maps.dim_ab // DIM_A
    turn = np.kron(np.roll(np.eye(DIM_A), 1, axis=0), np.diag(1j ** np.arange(n_b)))
    mirror = np.kron(np.eye(DIM_A)[[(-x) % DIM_A for x in range(DIM_A)]], np.eye(n_b))
    elements = []
    for p in range(0, 4, 1 if maps.quarter_turn else 2):
        v = np.linalg.matrix_power(turn, p)
        elements.append(lambda op, v=v: v @ op @ v.conj().T)
        elements.append(lambda op, v=v: mirror @ (v @ op @ v.conj().T).conj() @ mirror.T)
    return elements


def twirl(op, maps):
    elements = group(maps)
    return sum(g(op) for g in elements) / len(elements)


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T + 0.05 * np.eye(d)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("case", CASES)
class TestEquivalence:
    """On twirled random states, the reduced evaluation is the full one."""

    def test_reduce_and_lift_are_the_twirl(self, case):
        maps = problem(case)[1].maps
        rho = random_state(np.random.default_rng(0), maps.dim_ab)
        stack = reduce(maps, rho)
        assert np.max(np.abs(maps.lift(stack) - twirl(rho, maps))) < 1e-14
        # The entrywise lift is the basis change U M U+.
        assert np.max(np.abs(maps.lift(stack) - lift(maps, stack))) < 1e-14
        # The group leaves every objective value unchanged.
        f = full_objective(rho, roots(maps))
        for g in group(maps):
            assert abs(full_objective(g(rho), roots(maps)) - f) < 1e-12

    @pytest.mark.parametrize("cutoff", range(2, 9))
    def test_rows_match_basis_change(self, case, cutoff):
        # The blocks of every row, taken entrywise from its factors, are those
        # of U+ (A_i (x) B_i) U; the ptrace-im rows (imaginary A_i) and the
        # moment-FP rows (imaginary B_i) included.
        _, prob = problem(case, cutoff)
        maps = prob.maps
        red = maps.reduce_products(prob.a_parts, prob.b_parts)
        assert red.dtype == np.float64
        oracle = np.array([reduce(maps, op) for op in full_operators(prob)])
        assert np.max(np.abs(red - oracle)) < 1e-14

    def test_objective_gradient_and_residuals(self, case):
        values, prob = problem(case)
        maps = prob.maps
        rng = np.random.default_rng(1)
        red = maps.reduce_products(prob.a_parts, prob.b_parts)
        for _ in range(3):
            rho = twirl(random_state(rng, maps.dim_ab), maps)
            stack = reduce(maps, rho)
            f, grad = reduced_objective_with_gradient(stack, maps)
            f_full, grad_full = full_objective_with_gradient(rho, roots(maps))
            assert abs(f - f_full) < 1e-12
            assert np.max(np.abs(maps.lift(grad) - grad_full)) < 1e-12
            residuals = red.reshape(len(prob.labels), -1) @ stack.ravel() - values
            assert np.max(np.abs(residuals - prob.residuals(rho, values))) < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_full_space_certificate(case, monkeypatch):
    # Every certificate, lifted: W^T grad W - sum_i y'_i T(Gamma_i), with T
    # the literal group average of the original rows, is PSD by a full
    # complex eigvalsh, and the bound c + b.y' holds with c from the oracle's
    # f at the iterate; the best one is the reported bound.  c vanishes in
    # exact arithmetic, since the pinching keeps the trace.
    values, prob = problem(case, cutoff=4)
    maps, kept = prob.maps, prob.kept
    certificate = solver._certificate
    certificates = []

    def traced(f, grad, sigma, y, w, ops, b):
        out = certificate(f, grad, sigma, y, w, ops, b)
        certificates.append((f, grad, sigma, y, w, b, out[0]))
        return out

    monkeypatch.setattr(solver, "_certificate", traced)
    res = solve(values, prob)
    assert res.certified and len(certificates) == res.iterations + 1

    ops = full_operators(prob)
    twirled = np.array([twirl(ops[i], maps) for i in kept])
    bounds = []
    for f, grad, sigma, y, w, b, bound in certificates:
        w_inv = np.linalg.inv(w)
        rho = maps.lift(w_inv @ sigma @ w_inv.swapaxes(1, 2))
        c = f - np.vdot(sigma, grad)
        assert abs(c) <= 1e-12
        y = y.copy()
        y[0] += (bound - c - b @ y) / b[0]
        slack = maps.lift(w.swapaxes(1, 2) @ grad @ w) - np.tensordot(y, twirled, axes=1)
        assert np.linalg.eigvalsh(0.5 * (slack + slack.conj().T)).min() >= 0.0
        assert full_objective(rho, roots(maps)) * LN2 == pytest.approx(f, abs=1e-10)
        bounds.append((c + b @ y) / LN2)
    assert max(bounds) == pytest.approx(res.lower_bound, abs=1e-12)


@pytest.mark.parametrize("case", ["identical-d0", "distinct"])
def test_weak_duality_at_non_symmetric_states(case):
    # Gibbs states of random exponents on the full-space rows are feasible
    # and not symmetric; the objective there is never below the certified
    # bound.
    values, prob = problem(case)
    maps, dim = prob.maps, prob.maps.dim_ab
    res = solve(values, prob)
    ops = full_operators(prob)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = gibbs_state(h + h.conj().T, ops, values)
        assert np.max(np.abs(x - twirl(x, maps))) > 1e-3
        assert np.max(np.abs(prob.residuals(x, values))) < 1e-7
        assert full_objective(x, roots(maps)) >= res.lower_bound - 1e-7


@pytest.mark.parametrize("case, rows", [("identical-d0", 7), ("identical-d0.5", 7), ("ideal-untrusted", 7), ("distinct", 12)])
def test_reduced_row_count(case, rows, monkeypatch):
    # The 33 rows (rank 32) have group averages of rank 7 with identical
    # arms and 12 with distinct arms; their singular values drop from
    # above 1 to below 1e-14 there.  Each kept reduced row is at least 0.1
    # of its norm away from the span of the rows before it, and each dropped
    # one at most 1e-12, so no choice rests on the exact value of RANK_TOL.
    _, prob = problem(case)
    seen = []
    monkeypatch.setattr(solver, "independent_rows", lambda red: seen.append(red) or independent_rows(red))
    assert len(rebuilt(prob).ops) == rows
    twirled = np.array([twirl(op, prob.maps) for op in full_operators(prob)]).reshape(len(prob.labels), -1)
    assert np.linalg.matrix_rank(np.hstack([twirled.real, twirled.imag]), tol=1e-9) == rows
    kept, ratios = greedy_rows(seen[0])
    dropped = np.delete(ratios, kept)
    assert ratios[kept].min() >= 0.1 and dropped.max() <= 1e-12


class TestTypedErrors:
    def test_nudged_value(self):
        values, prob = problem("identical-d0")
        values[prob.labels.index("moment-SQ-x1")] += 1e-6
        with pytest.raises(ValueError, match="values are not invariant"):
            solve(values, prob)

    @pytest.mark.parametrize("bump, closed", [(3e-5, False), (1e-6, True)])
    def test_rows_nearly_closed(self, bump, closed):
        # Closure bounds the norm of a unit row's group average outside the
        # row span by 1e-6: |2><2| added to the B factor of one S_Q row at
        # 3e-5 of its norm leaves a component of norm 1.2e-5 outside, and at
        # 1e-6, one of norm 3.9e-7.
        _, prob = problem("identical-d0", cutoff=4)
        b_parts = prob.b_parts.copy()
        i = prob.labels.index("moment-SQ-x1")
        b_parts[i, 2, 2] += bump * np.linalg.norm(b_parts[i])
        if closed:
            rebuilt(prob, b_parts=b_parts)
        else:
            with pytest.raises(ValueError, match="rows are not closed"):
                rebuilt(prob, b_parts=b_parts)

    def test_rows_not_closed(self):
        # The S_P rows alone are dropped: V maps S_Q rows onto them.
        _, prob = problem("identical-d0")
        keep = [i for i, label in enumerate(prob.labels) if not label.startswith("moment-SP")]
        with pytest.raises(ValueError, match="rows are not closed"):
            rebuilt(prob, keep)

    @pytest.mark.parametrize("quarter_turn", [True, False])
    def test_non_covariant_regions(self, quarter_turn):
        # The same bump is refused whether the unbumped regions keep the
        # quarter turn (identical arms) or only the half turn (distinct arms).
        det = DET if quarter_turn else DISTINCT
        regions = list(region_operators(det, 0.5, CUTOFF))
        assert build_postprocessing_maps(tuple(regions)).quarter_turn == quarter_turn
        bump = np.zeros_like(regions[0])
        bump[1, 2] = 1e-6j
        regions[0] = regions[0] + bump + bump.conj().T
        with pytest.raises(ValueError, match="not covariant"):
            build_postprocessing_maps(tuple(regions))

    def test_nan_in_uniform_regions(self):
        # A NaN compares False with COVARIANCE_TOL, so both covariance tests
        # would pass it into the Kraus factor.
        regions = [np.eye(CUTOFF + 1) / 4 for _ in range(4)]
        regions[0][0, 0] = np.nan
        with pytest.raises(ValueError, match="regions must be finite"):
            build_postprocessing_maps(tuple(regions))

    def test_nan_in_detector_regions(self):
        # Here the NaN would reach the eigendecomposition of a pinch factor.
        regions = [np.array(r) for r in region_operators(DET, 0.0, 4)]
        regions[0][1, 1] = np.nan
        with pytest.raises(ValueError, match="regions must be finite"):
            build_postprocessing_maps(tuple(regions))

    def test_all_zero_regions(self):
        # No largest entry to measure covariance against, and no Cholesky factor.
        with pytest.raises(ValueError, match="not all zero"):
            build_postprocessing_maps(tuple(np.zeros((CUTOFF + 1, CUTOFF + 1)) for _ in range(4)))

    @pytest.mark.parametrize("last", [0.0, -1e-15], ids=["singular", "negative"])
    def test_region_sum_not_positive_definite(self, last):
        # The Kraus factor is the Cholesky factor of the region sum; a radius
        # the regions cannot resolve leaves it singular or, after rounding,
        # indefinite.
        region = np.diag([0.25] * CUTOFF + [last])
        with pytest.raises(ValueError, match=f"region sum is not positive definite at cutoff {CUTOFF}"):
            build_postprocessing_maps((region,) * 4)

    @pytest.mark.parametrize("delta_a", [0.0, 0.5])
    @pytest.mark.parametrize(
        "det",
        [DET, DetectorModel.ideal(), DISTINCT, DetectorModel(0.719, 0.719, 0.01, 0.0100001)],
        ids=["identical", "ideal", "distinct", "nearly-identical"],
    )
    def test_group_read_from_regions(self, det, delta_a):
        # The maps take the quarter turn exactly where the detector arms are
        # identical, even where the arms differ only by 1e-7 in noise.
        maps = build_postprocessing_maps(observable_set(det, delta_a, CUTOFF).regions)
        assert maps.quarter_turn == det.simple_case()

    @pytest.mark.parametrize("case", ["identical-d0", "distinct"])
    def test_row_zero_must_be_the_trace(self, case):
        # The start's objective and the dual repair's shift are both row 0,
        # so a problem whose first row is not the trace is refused.
        _, prob = problem(case)
        first = prob.labels.index("ptrace-d0")
        order = [first] + [i for i in range(len(prob.labels)) if i != first]
        with pytest.raises(ValueError, match="row 0 must be the trace"):
            rebuilt(prob, order)
