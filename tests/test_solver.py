import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from dmrate import solver
from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import build_constraints, constraint_rows
from dmrate.detector import DetectorModel
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set
from dmrate.pipeline import cutoff_stability, evaluate_point, point_artifacts
from dmrate.solver import InfeasibleError, KeyRateResult, Problem, independent_rows, solve
from support.constraints import greedy_rows, rebuilt
from support.maps import full_objective, roots

DET = DetectorModel.simple(0.719, 0.01)


def setup_problem(L=10.0, cutoff=6, mode="trusted", alpha=0.75, delta_a=0.0, xi=0.01):
    ch = ChannelModel.from_distance(L, xi)
    pp = ProtocolParams(alpha=alpha, delta_a=delta_a, cutoff=cutoff)
    stats = simulate_statistics(ch, DET, pp)
    det_eff = DET if mode == "trusted" else DetectorModel.ideal()
    obs = observable_set(det_eff, delta_a, cutoff)
    values = build_constraints(stats, obs, pp, mode)
    return values, Problem(build_postprocessing_maps(obs.regions), *constraint_rows(obs))


class TestSolve:
    @pytest.fixture(scope="class")
    def solved(self):
        values, problem = setup_problem()
        return values, problem, solve(values, problem)

    def test_certification_contract(self, solved):
        _, _, res = solved
        assert res.certified
        assert res.lower_bound <= res.primal_value + 1e-8

    def test_feasibility_at_return(self, solved):
        _, _, res = solved
        assert res.constraint_residual <= 1e-7

    def test_physicality(self, solved):
        _, _, res = solved
        assert np.linalg.eigvalsh(res.rho).min() >= -1e-9
        # The trace is row 0 of the constraint set, so it is held to the
        # returned residual, the solver's contract for every row, up to the
        # order in which the two sums add the same diagonal.
        assert abs(np.trace(res.rho).real - 1.0) <= res.constraint_residual + 4 * np.finfo(float).eps

    def test_monotone_primal(self, solved):
        # Alternating minimization lowers f at every outer iteration; the
        # history holds the start and one entry per outer iteration.
        _, _, res = solved
        hist = np.array(res.primal_history)
        assert len(hist) == res.iterations + 1
        assert np.all(np.diff(hist) <= 1e-12)

    def test_first_order_optimality(self, solved):
        # The certificate is first-order optimality made quantitative: the
        # returned state's f is within BOUND_GAP of the certified bound, and
        # the full-space oracle's f at the returned state is the primal.
        _, problem, res = solved
        assert res.status == "converged"
        assert 0.0 <= res.primal_value - res.lower_bound == res.gap <= solver.BOUND_GAP
        assert full_objective(res.rho, roots(problem.maps)) == pytest.approx(res.primal_value, abs=1e-10)


class TestSanityRuns:
    def test_xi_zero_raises_only_with_trusted_noise(self):
        # With no excess noise and trusted detector noise the truncated set
        # is at best thin: at these inputs the Newton solve of the start
        # finds no state on the rows, at 0 km on a singular Hessian.  At
        # 0 km with the ideal detector and xi = 1e-8 no state is found
        # within about the truncation tail either; a dual vector alone there
        # once read 2.0076 bits, above the 2-bit ceiling.  Untrusted noise
        # reads the same data as an ideal detector's, and there a start is
        # found.
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        for det, distance, xi in ((DetectorModel.ideal(), 0.0, 0.0), (DET, 20.0, 0.0), (DetectorModel.ideal(), 0.0, 1e-8)):
            with pytest.raises(InfeasibleError):
                evaluate_point(ChannelModel.from_distance(distance, xi), det, pp, "trusted")
        res = evaluate_point(ChannelModel.from_distance(0.0, 0.0), DET, pp, "untrusted")
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12

    @pytest.mark.parametrize("det", [DET, DetectorModel.ideal()], ids=["trusted", "ideal"])
    def test_thin_set_returns_a_state_on_the_rows(self, det):
        # At xi = 1e-4 the truncated set is thin.  Every iterate is a Gibbs
        # state on the rows, so the primal is taken near the minimum, within
        # BOUND_GAP of the bound, not at the start, whose primal is 1.5e-4 to
        # 1.8e-4 above it.
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        res = evaluate_point(ChannelModel.from_distance(20.0, 1e-4), det, pp, "trusted")
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.primal_value - res.lower_bound <= 1e-5
        assert res.constraint_residual <= 1e-12

    def test_thin_set_at_50_km_is_certified(self):
        # At xi = 1e-4, 50 km, cutoff 8 the set is thin enough that a start
        # corrected from an interior-point solve's point once missed the
        # rows and raised InfeasibleError; the maximum-entropy start meets
        # them, and the point is certified.
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        res = evaluate_point(ChannelModel.from_distance(50.0, 1e-4), DET, pp, "trusted")
        assert res.certified
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12

    def test_trusted_and_untrusted_both_certified(self):
        results = []
        for mode in ("trusted", "untrusted"):
            values, problem = setup_problem(L=10.0, cutoff=6, mode=mode)
            res = solve(values, problem)
            results.append(res)
            assert res.certified
            assert res.lower_bound <= res.primal_value + 1e-8
            assert res.primal_value >= -1e-9

    def test_tightening_constraints_monotone(self):
        # Keep the trace and partial-trace rows and only the 8 first-moment
        # rows; dropping a set the symmetry group maps to itself keeps the
        # rows closed under it.
        values, problem = setup_problem(L=5.0, cutoff=5)
        moments = [i for i, label in enumerate(problem.labels) if label.startswith("moment")]
        keep = [i for i in range(len(problem.labels)) if i not in moments[8:]]
        full = solve(values, problem)
        dropped = solve(values[keep], rebuilt(problem, keep))
        assert dropped.primal_value <= full.primal_value + 1e-5

    def test_infeasible_constraints_detected(self):
        # Every moment value scaled up by the same factor stays invariant
        # under the group, but asks for more photons than the cutoff holds.
        values, problem = setup_problem(cutoff=5)
        values[17:] *= 99.0
        with pytest.raises(InfeasibleError):
            solve(values, problem)


class TestProblem:
    @pytest.mark.parametrize("rows_cutoff, maps_cutoff", [(6, 8), (8, 6)])
    def test_cutoff_mismatch_names_both_dimensions(self, rows_cutoff, maps_cutoff):
        # Rows and maps of different cutoffs are refused by their dimensions,
        # not by a closure or trace check that happens to fail on them.
        rows = constraint_rows(observable_set(DET, 0.0, rows_cutoff))
        maps = point_artifacts(DET, ProtocolParams(alpha=0.75, cutoff=maps_cutoff), "trusted")[1].maps
        n_rows, n_maps = rows_cutoff + 1, maps_cutoff + 1
        message = rf"\(33, {n_rows}, {n_rows}\) do not fit 33 rows on Bob dimension {n_maps}$"
        with pytest.raises(ValueError, match=message):
            Problem(maps, *rows)

    @pytest.mark.parametrize("det", [DET, DetectorModel(0.70, 0.74, 0.01, 0.02)], ids=["identical", "distinct"])
    def test_sigma_coordinates(self, det):
        # The problem builds the solve's coordinates sigma = W rho W^T once,
        # read-only: W^-1, the kept rows A'_i = W^-T A_i W^-1, the pinch
        # factors F' = F W^-1 and each row's tolerance 1e-13 max(1,
        # |A'_i| |W|^2 / |A_i|) in spectral norms, here taken block by block.
        pp = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=5)
        obs = observable_set(det, pp.delta_a, pp.cutoff)
        problem = Problem(build_postprocessing_maps(obs.regions), *constraint_rows(obs))
        w = problem.maps.kraus_factor
        w_inv = np.stack([np.linalg.solve(block, np.eye(len(block))) for block in w])
        assert problem.maps.quarter_turn == (det == DET) and np.max(np.abs(w - np.eye(w.shape[-1]))) > 0.1

        def norm2(stack):
            return max(np.linalg.svd(block, compute_uv=False)[0] for block in stack)

        sigma_ops = np.einsum("jba,ijbc,jcd->ijad", w_inv, problem.ops, w_inv)
        tol = [1e-13 * max(1.0, norm2(s) * norm2(w) ** 2 / norm2(a)) for s, a in zip(sigma_ops, problem.ops)]
        for got, want in ((problem.w_inv, w_inv), (problem.sigma_ops, sigma_ops),
                          (problem.sigma_pinch, np.einsum("rjab,jbc->rjac", problem.maps.pinch_factors, w_inv)),
                          (problem.row_tol, tol)):
            assert not got.flags.writeable
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
        assert np.max(problem.row_tol) > 1e-13

    def test_many_value_vectors_on_one_problem(self, monkeypatch):
        # Every per-key array is built with the problem: once it is built,
        # solves at two distances on it take no inverse, and each equals the
        # solve on a problem built afresh, field for field.
        shared = setup_problem(cutoff=5, delta_a=0.5)[1]
        points = [setup_problem(L=L, cutoff=5, delta_a=0.5) for L in (10.0, 40.0)]

        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called after the problem was built")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        for values, fresh in points:
            res, ref = solve(values, shared), solve(values, fresh)
            assert res.certified and res.lower_bound <= res.primal_value + 1e-10
            for f in fields(KeyRateResult):
                assert np.array_equal(getattr(res, f.name), getattr(ref, f.name)), f.name


class TestKeyRate:
    def test_rate_floor(self):
        values, problem = setup_problem(cutoff=5)
        res = solve(values, problem, (5.0, 1.0))
        assert res.rate == 0.0
        assert res.status == "rate_zero"

    @pytest.mark.parametrize("cutoff", [6, 10])
    @pytest.mark.parametrize("delta_a", [0.0, 0.5])
    def test_rate_zero_on_the_start_is_certified(self, cutoff, delta_a):
        # At 20 km the untrusted primal starts below p_pass delta_EC, so the
        # solve exits on the start.  Its certificate takes the start's own
        # multipliers, not y = 0, which read -21 to -34 bits here.
        ch = ChannelModel.from_distance(20.0, 0.01)
        res = evaluate_point(ch, DET, ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=cutoff), "untrusted")
        assert res.status == "rate_zero" and res.iterations == 0 and res.rate == 0.0
        assert 0.0 < res.lower_bound <= res.primal_value

    def test_zero_ec_cost_gives_lower_bound(self):
        values, problem = setup_problem(cutoff=5)
        res = solve(values, problem, (0.0, 1.0))
        assert res.rate == pytest.approx(res.lower_bound)

    def test_default_ec_is_zero_cost(self):
        # solve(values, problem) is the same solve as an explicit zero cost,
        # field for field, the state and the primal history included.
        values, problem = setup_problem(cutoff=4)
        default, explicit = solve(values, problem), solve(values, problem, (0.0, 1.0))
        for f in fields(KeyRateResult):
            assert np.array_equal(getattr(default, f.name), getattr(explicit, f.name)), f.name

    @pytest.mark.parametrize(
        "ec",
        [(-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (0.5, 0.0), (0.5, -0.2), (0.5, np.nan), (0.5, np.inf)],
        ids=["negative-cost", "nan-cost", "inf-cost", "zero-pass", "negative-pass", "nan-pass", "inf-pass"],
    )
    def test_uncertifiable_ec_rejected(self, ec):
        # A negative cost would lift the rate above the bound, and a NaN one
        # would read as rate 0; neither may come back certified.
        values, problem = setup_problem(cutoff=4)
        with pytest.raises(ValueError, match="error-correction cost"):
            solve(values, problem, ec)

    def test_p_pass_not_capped_at_one(self):
        # A sum of sector masses can round to a few ulps above 1.
        values, problem = setup_problem(cutoff=4)
        res = solve(values, problem, (0.0, 1.0000000000000027))
        assert res.p_pass == 1.0000000000000027
        assert res.rate == max(0.0, res.lower_bound)

    def test_fields_recorded(self):
        values, problem = setup_problem(cutoff=5)
        res = solve(values, problem, (1.5, 0.8))
        assert res.delta_ec == 1.5
        assert res.p_pass == 0.8
        assert isinstance(res, KeyRateResult)
        if res.status != "rate_zero":
            assert res.rate == pytest.approx(max(0.0, res.lower_bound - 0.8 * 1.5))


class TestPipeline:
    def test_evaluate_point_smoke(self):
        ch = ChannelModel.from_distance(15.0, 0.01)
        pp = ProtocolParams(alpha=0.7, cutoff=6)
        res = evaluate_point(ch, DET, pp, "trusted")
        assert res.certified
        assert res.rate >= 0.0
        assert res.p_pass == pytest.approx(1.0, abs=1e-8)

    def test_postselection_point(self):
        ch = ChannelModel.from_distance(15.0, 0.01)
        pp = ProtocolParams(alpha=0.7, delta_a=0.5, cutoff=6)
        res = evaluate_point(ch, DET, pp, "trusted")
        assert res.certified
        assert 0.5 < res.p_pass < 1.0
        # One rate formula, in solve, for the pair evaluate_point passes.
        assert res.rate == max(0.0, res.lower_bound - res.p_pass * res.delta_ec)

    def test_cutoff_stability_helper(self):
        ch = ChannelModel.from_distance(10.0, 0.01)
        pp = ProtocolParams(alpha=0.7, cutoff=6)
        base, bumped, shift = cutoff_stability(ch, DET, pp, "trusted")
        assert base.certified and bumped.certified
        assert shift < 5e-3


class TestFeasibleStart:
    # A thin feasible set: X >= 0 on 2 x 2 with trace 1 and X_11 = x11, so
    # |X_12| <= sqrt(x11 (1 - x11)): none but diag(1, 0) at x11 = 1, and
    # none at all past it.
    OPS = np.array([np.eye(2)[None], np.diag([1.0, 0.0])[None]])
    START = np.array([-np.log(2.0), 0.0])

    @staticmethod
    def state(w, u):
        return (u * np.exp(w)[..., None, :]) @ u.swapaxes(-1, -2)

    def test_gibbs_on_thin_set(self):
        # The state meets the rows, is positive definite, and is the
        # exponential of a combination of the rows, whose eigenpairs and
        # multipliers come back with it.
        b = np.array([1.0, 0.99])
        w, u, y = solver._gibbs(0.0, self.OPS, b, self.START, 1e-13)
        sigma = self.state(w, u)
        assert np.max(np.abs(np.einsum("ikab,kab->i", self.OPS, sigma) - b)) <= 1e-13
        assert np.linalg.eigvalsh(sigma).min() > 0.0
        assert np.allclose(np.tensordot(y, self.OPS, axes=1), (u * w[..., None, :]) @ u.swapaxes(-1, -2), atol=1e-12)

    def test_gibbs_raises_where_no_state_meets_the_rows(self):
        # Just past x11 = 1 every state misses the rows by 5e-10 or more,
        # and the Hessian turns singular as the Gibbs state's small
        # eigenvalue underflows: the solve raises instead of returning a
        # state off the rows.  At x11 = 1, where the set has no interior,
        # Gibbs states approach its one state to within the tolerance.
        with pytest.raises(InfeasibleError) as err:
            solver._gibbs(0.0, self.OPS, np.array([1.0, 1.0 + 1e-9]), self.START, 1e-13)
        assert err.value.max_residual >= 5e-10
        sigma = self.state(*solver._gibbs(0.0, self.OPS, np.array([1.0, 1.0]), self.START, 1e-13)[:2])
        assert np.max(np.abs(sigma - np.diag([1.0, 0.0]))) <= 1e-13

    def test_gibbs_rejects_an_overflowed_point(self):
        # exp(800) overflows at y itself: no state is tried, and the solve
        # raises with an infinite residual before any warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError) as err:
                solver.solve_sdp(800.0 * np.eye(3)[None], np.eye(3)[None, None], np.array([1.0]), np.zeros(1), 1e-13)
        assert err.value.max_residual == np.inf

    def test_gibbs_tolerance_per_row(self):
        # Each row is held to its own tolerance: the trace row's 1e-13 alone
        # is not met by a row scaled up by 1e6, whose tolerance scales too.
        ops = self.OPS * np.array([1.0, 1e6])[:, None, None, None]
        b = np.array([1.0, 0.3e6])
        w, u, _ = solver._gibbs(0.0, ops, b, self.START, np.array([1e-13, 1e-7]))
        r = np.abs(np.einsum("ikab,kab->i", ops, self.state(w, u)) - b)
        assert r[0] <= 1e-13 and r[1] <= 1e-7

    @pytest.mark.parametrize("mode", ["trusted", "untrusted"])
    def test_start_meets_the_stated_values(self, monkeypatch, mode):
        # The first `_gibbs` call of a solve (through `solver.solve_sdp`, as
        # every call of a solve) makes the start on the kept rows
        # to 1e-13; every later one is a sigma-step on the rows A'_i =
        # W^-T A_i W^-1, each to its scaled tolerance, never below 1e-13 and
        # exactly that where W = 1 (delta_a = 0).  The primal values are
        # taken at these states.
        gibbs = solver._gibbs
        calls = []

        def traced_gibbs(exponent, ops, b, y, tol):
            w, u, y = gibbs(exponent, ops, b, y, tol)
            calls.append((ops, self.state(w, u), b, np.broadcast_to(tol, b.shape)))
            return w, u, y

        monkeypatch.setattr(solver, "solve_sdp", traced_gibbs)
        for delta_a in (0.0, 0.5):
            values, problem = setup_problem(cutoff=5, mode=mode, delta_a=delta_a)
            calls.clear()
            res = solve(values, problem)
            assert len(calls) == res.iterations + 1
            assert np.array_equal(calls[0][0], problem.ops) and np.all(calls[0][3] == 1e-13)
            for ops, sigma, b, tol in calls:
                assert np.all(np.abs(ops.reshape(len(b), -1) @ sigma.ravel() - b) <= tol)
                assert np.all(tol >= 1e-13) and (delta_a > 0.0 or np.all(tol == 1e-13))

    @pytest.mark.parametrize(
        "det", [DET, DetectorModel(0.70, 0.74, 0.01, 0.02)], ids=["quarter-turn", "half-turn"]
    )
    def test_start_is_the_maximum_entropy_state(self, monkeypatch, det):
        # The start is exp(sum_i y_i Gamma_i) from y = (-ln(K d), 0, ...),
        # whose trace row reduces to exactly the identity blocks: it meets
        # the kept rows, and no state on them, the returned one included,
        # has more entropy.  The first primal value is f there, as the
        # full-space oracle takes it.
        pp = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=5)
        obs, problem = point_artifacts(det, pp, "trusted")
        stats = simulate_statistics(ChannelModel.from_distance(20.0, 0.01), det, pp)
        values = build_constraints(stats, obs, pp, "trusted")
        ops, b = problem.ops, values[problem.kept]
        identity = np.broadcast_to(np.eye(ops.shape[-1]), ops.shape[1:])
        assert problem.maps.quarter_turn == (det == DET)
        assert problem.labels[0] == "trace" and problem.kept[0] == 0 and values[0] == 1.0
        assert np.array_equal(ops[0], identity)

        gibbs = solver._gibbs
        starts = []

        def traced_gibbs(*args):
            out = gibbs(*args)
            starts.append(self.state(*out[:2]))
            return out

        monkeypatch.setattr(solver, "solve_sdp", traced_gibbs)
        res = solve(values, problem)
        start = starts[0]
        assert np.max(np.abs(ops.reshape(len(b), -1) @ start.ravel() - b)) <= 1e-13

        def entropy(w):
            w = w[w > 0]
            return -float(np.sum(w * np.log(w)))

        assert entropy(np.linalg.eigvalsh(start).ravel()) >= entropy(np.linalg.eigvalsh(res.rho))
        f_start = full_objective(problem.maps.lift(start), roots(problem.maps))
        assert res.primal_history[0] == pytest.approx(f_start, abs=1e-10)


class TestCeiling:
    def test_bound_above_two_bits_raises(self):
        # f <= log2 4 = 2 bits at every state, so no lower bound may pass it
        # by more than its margin; one that does shows that no state meets
        # the rows.
        assert solver._check_ceiling(1.9, 1e-10, 0.0) == 1.9
        assert solver._check_ceiling(2.0 + 5e-11, 1e-10, 0.0) == 2.0 + 5e-11
        with pytest.raises(InfeasibleError, match="above the 2-bit ceiling") as err:
            solver._check_ceiling(2.0076, 1e-10, 1.1e-8)
        assert err.value.max_residual == 1.1e-8


class TestHardInputs:
    @pytest.mark.parametrize(
        "mode, delta_a", [("trusted", 3.0), ("trusted", 4.0), ("untrusted", 2.0), ("untrusted", 3.0)]
    )
    def test_large_radius_is_certified(self, mode, delta_a):
        # 20 km, cutoff 10: a start at L = 0, the maximum-entropy sigma,
        # underflowed at delta_a >= 3 (trusted) and >= 4, and an absolute
        # 1e-13 on the rows A'_i, whose norms grow like 1 / lambda_min(W^T W),
        # stalled at untrusted delta_a 2-3.  Each now returns a certified
        # bound.
        values, problem = setup_problem(L=20.0, cutoff=10, mode=mode, delta_a=delta_a)
        res = solve(values, problem)
        assert res.certified and res.status in {"converged", "max_iters"}
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.lower_bound <= solver.CEILING
        assert res.constraint_residual <= 1e-7


class TestProperties:
    # derandomize alone would seed the draw from a hash of this test's source,
    # so any edit here would reshuffle the examples; @seed fixes them, and
    # derandomize keeps the example database out.  The pinned input, a thin
    # set at 0 km with xi = 0.001, once failed the property.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @seed(0)
    @example(alpha=0.6379, distance=0.0, xi=0.001, delta_a=0.0, mode="trusted", eta_d=1.0, nu_el=0.0)
    @example(alpha=0.6379, distance=0.0, xi=0.001, delta_a=0.0, mode="untrusted", eta_d=1.0, nu_el=0.0)
    @given(
        alpha=st.floats(0.5, 1.0),
        distance=st.floats(0.0, 100.0),
        xi=st.floats(1e-3, 0.05),
        delta_a=st.sampled_from([0.0, 0.5]),
        mode=st.sampled_from(["trusted", "untrusted"]),
        eta_d=st.floats(0.6, 1.0),
        nu_el=st.floats(0.0, 0.05),
    )
    def test_certified_or_empty(self, alpha, distance, xi, delta_a, mode, eta_d, nu_el):
        # A point with excess noise is certified, its bound stays below the
        # primal value, and the returned state meets the rows; or the
        # truncated set is empty, as it is at cutoff 4 for alpha near 1 at
        # short distance with little excess noise.  Any y gives
        # b.y = <sum_i y_i Gamma_i, rho> <= lambda_max(sum_i y_i Gamma_i) on
        # the feasible set, so a y with b.y above it proves the set empty;
        # b.y - ln Tr exp(sum_i y_i Gamma_i) > 0, found by ascent from 0,
        # is one.
        ch = ChannelModel.from_distance(distance, xi)
        pp = ProtocolParams(alpha=alpha, delta_a=delta_a, cutoff=4)
        det = DetectorModel.simple(eta_d, nu_el)
        try:
            res = evaluate_point(ch, det, pp, mode)
        except InfeasibleError:
            obs, problem = point_artifacts(det, pp, mode)
            values = build_constraints(simulate_statistics(ch, det, pp), obs, pp, mode)
            ops, b = problem.ops, values[problem.kept]

            def gap(y):
                w = np.linalg.eigvalsh(np.tensordot(y, ops, axes=1))
                return float(b @ y - w.max() - np.log(np.sum(np.exp(w - w.max()))))

            y = minimize(lambda y: -gap(y), np.zeros(len(b)), method="BFGS").x
            assert b @ y - np.linalg.eigvalsh(np.tensordot(y, ops, axes=1)).max() > 1e-9
            return
        assert res.certified
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12
        assert res.rate >= 0.0


def random_symmetric(rng, *shape):
    m = rng.normal(size=shape)
    return 0.5 * (m + m.swapaxes(-1, -2))


@st.composite
def row_stacks(draw):
    # Rows of small integers, exact integer combinations of the rows before,
    # copies scaled by powers of two, and zero rows, interleaved, with more
    # rows than entries allowed.  Every row is exactly dependent on the rows
    # before it or at least 6e-6 of its norm away from their span.
    n = draw(st.integers(1, 6))
    rows: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "combination", "copy", "zero"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            rows.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float))
        elif kind == "combination":
            coef = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append(np.array(coef, dtype=float) @ np.array(rows))
        elif kind == "copy":
            scale = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-20, 20))
            rows.append(scale * rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(np.zeros(n))
    return np.array(rows)


class TestIndependentRows:
    # A plain QR of e1, 2 e1 (or 0), e2, e3 spends a direction on the second
    # row and keeps only the first.
    @example(ops=np.array([[1.0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example(ops=np.array([[1.0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops=row_stacks())
    def test_matches_gram_schmidt(self, ops):
        assert independent_rows(ops) == greedy_rows(ops)[0]

    def test_detects_redundancy(self):
        eye = np.eye(3)
        e00 = np.zeros((3, 3))
        e00[0, 0] = 1.0
        rest = eye - e00
        ops = np.stack([eye, e00, rest])[:, None]
        kept = independent_rows(ops)
        assert kept == [0, 1]

    def test_keeps_all_independent(self):
        rng = np.random.default_rng(3)
        ops = random_symmetric(rng, 5, 2, 4, 4)
        assert independent_rows(ops) == list(range(5))

    def test_prefers_early_rows(self):
        a = np.diag([1.0, 0.0])
        ops = np.stack([a, 2 * a])[:, None]
        assert independent_rows(ops) == [0]

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError):
            independent_rows(np.eye(2)[None, None].astype(complex))


class TestRegressionGuards:
    def test_build_constraints_memory_peak(self):
        # The rows are kept as their factors: a (33, 4, 4) and a (33, 11, 11)
        # complex stack, 0.07 MiB, and their copies; a point adds its (33,)
        # values.  The full-space (33, 44, 44) complex stack alone would take
        # 1 MiB.
        pp = ProtocolParams(alpha=0.75, cutoff=10)
        stats = simulate_statistics(ChannelModel.from_distance(50.0, 0.01), DET, pp)
        obs = observable_set(DET, 0.0, 10)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            constraint_rows(obs)
            build_constraints(stats, obs, pp, "trusted")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 0.25 * 2**20

    def test_solve_memory_peak(self):
        # The solve holds a few small stacks of real blocks and takes the
        # blocks of every row entrywise from its factors; a stack of the
        # (33, 44, 44) complex full-space rows alone would take 1 MiB.
        values, problem = setup_problem(L=50.0, cutoff=10)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            res = solve(values, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.certified
        assert peak - start <= 1.5 * 2**20

    @pytest.mark.parametrize(
        "distance, alpha",
        [(100.2749285855943, 0.7511386328078098), (0.0893559088572436, 0.7462015728821475)],
        ids=["seed8-point2", "seed6-point0"],
    )
    def test_pinned_bench_point(self, distance, alpha):
        # Two curve-trusted-n10 points, cutoff 10, that once failed.  Seed 8
        # point 2: an atom there missed a feasibility tolerance.  Seed 6
        # point 0: a final iterate 2e-9 off its rows undercut the certified
        # bound by 2.3e-7 bits, since the dual weighs a residual by up to
        # ~50; every iterate is now a Gibbs state on the rows, so the returned
        # state meets them to rounding.
        ch = ChannelModel.from_distance(distance, 0.01)
        pp = ProtocolParams(alpha=alpha, cutoff=10)
        res = evaluate_point(ch, DET, pp, "trusted")
        assert res.certified
        assert res.status in {"converged", "rate_zero"}
        assert res.constraint_residual <= 1e-12
        assert res.lower_bound <= res.primal_value + 1e-10
