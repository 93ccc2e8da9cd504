import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dmrate import solver
from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import build_constraints, constraint_rows
from dmrate.detector import DetectorModel
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set
from dmrate.pipeline import cutoff_stability, evaluate_point, point_artifacts
from dmrate.sdp import independent_rows, solve_sdp
from dmrate.solver import InfeasibleError, KeyRateResult, Problem, solve
from support.constraints import full_operators, rebuilt
from support.maps import full_objective_with_gradient, roots
from support.sdp import embed, solve_hermitian_sdp

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
        _, _, res = solved
        hist = np.array(res.primal_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_first_order_optimality(self, solved):
        # At the returned iterate, feasible directions cannot decrease the
        # linearized objective by more than the residual gap; the feasible
        # states come from full-space solves, so they are not symmetric.
        values, problem, res = solved
        _, grad = full_objective_with_gradient(res.rho, roots(problem.maps))
        ops = full_operators(problem)
        kept = independent_rows(embed(ops))
        dim = problem.maps.dim_ab
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c_rand = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            c_rand = c_rand + c_rand.conj().T
            feas = solve_hermitian_sdp(c_rand, ops[kept], values[kept])
            slack = float(np.einsum("ab,ba->", feas.x - res.rho, grad).real)
            assert slack >= -max(10 * res.gap, 1e-5)


class TestFailedChecks:
    # A subproblem check that fails ends the run, but the subproblem's dual
    # vector, once repaired, still certifies a bound.  The closing
    # correction is spoiled as well (every call after the first, which
    # makes the start), so the start is returned in place of the iterate.
    @pytest.mark.parametrize("loosen", [{"status": "stalled", "primal_residual": 1e-3}], ids=["subproblem"])
    def test_bound_survives_failed_check(self, monkeypatch, loosen):
        values, problem = setup_problem(cutoff=5)
        solve_sdp_exact = solver.solve_sdp
        scaled_correction = solver._scaled_correction
        calls = []

        def loose_solve_sdp(*args, **kwargs):
            return replace(solve_sdp_exact(*args, **kwargs), **loosen)

        def start_only(sigma, ops, b):
            calls.append(sigma)
            return scaled_correction(sigma, ops, b) if len(calls) == 1 else None

        monkeypatch.setattr(solver, "solve_sdp", loose_solve_sdp)
        monkeypatch.setattr(solver, "_scaled_correction", start_only)
        res = solve(values, problem)
        assert res.status == "subproblem_failure"
        assert res.iterations == 1
        assert np.isfinite(res.lower_bound)
        assert res.certified
        assert res.constraint_residual <= 1e-12
        assert res.lower_bound <= res.primal_value


class TestSanityRuns:
    def test_xi_zero_raises_only_with_trusted_noise(self):
        # With no excess noise and trusted detector noise the truncated set
        # is at best thin: at these inputs no PSD state near the feasibility
        # solve's point meets the rows.  Untrusted noise reads the same data
        # as an ideal detector's, and there a start is found.
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        for det, distance in ((DetectorModel.ideal(), 0.0), (DET, 20.0)):
            with pytest.raises(InfeasibleError):
                evaluate_point(ChannelModel.from_distance(distance, 0.0), det, pp, "trusted")
        res = evaluate_point(ChannelModel.from_distance(0.0, 0.0), DET, pp, "untrusted")
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12

    @pytest.mark.parametrize("det", [DET, DetectorModel.ideal()], ids=["trusted", "ideal"])
    def test_thin_set_returns_a_state_on_the_rows(self, det):
        # At xi = 1e-4 the truncated set is thin, and the closing correction
        # of the last iterate fails at 20 km; the start, returned in its
        # place, meets the rows and keeps the primal above the bound.
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        res = evaluate_point(ChannelModel.from_distance(20.0, 1e-4), det, pp, "trusted")
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12

    def test_thin_set_start_takes_a_third_correction_step(self):
        # At xi = 1e-4, 50 km, cutoff 8 the feasibility solve stalls 4.5e-7
        # off the rows, and two correction steps leave 1.9e-13, above the
        # 1e-13 the start must meet; a third leaves 2.2e-16, and the point
        # is certified.  With two steps it raised InfeasibleError.
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


class TestKeyRate:
    def test_rate_floor(self):
        values, problem = setup_problem(cutoff=5)
        res = solve(values, problem, (5.0, 1.0))
        assert res.rate == 0.0
        assert res.status == "rate_zero"

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
        # At delta_a = 0 the sector quadrature's p_pass overshoots 1 by ulps.
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


    def test_no_descent_stalls_uncertified(self, monkeypatch):
        # A line objective that never descends ends the run at its first
        # step, with a gap far above GAP_TOL: "stalled", the one exit that
        # withdraws the certificate.  The state returned still meets the rows.
        values, problem = setup_problem(cutoff=5)
        monkeypatch.setattr(solver, "line_objective", lambda rho, delta, maps: lambda t: np.inf)
        res = solve(values, problem)
        assert res.status == "stalled"
        assert res.iterations == 1
        assert not res.certified
        assert res.constraint_residual <= 1e-12
        assert res.lower_bound <= res.primal_value


class TestFeasibleStart:
    def test_scaled_correction_on_thin_set(self):
        # A thin feasible set: X >= 0 on 2 x 2 with X_11 = 0.99 and trace 1,
        # so |X_12| <= 0.0995.  From X_12 = 0.1, outside the cone, the
        # correction fails; from a PSD point 1e-4 off the rows it meets them.
        ops = np.array([np.eye(2)[None], np.diag([1.0, 0.0])[None]])
        b = np.array([1.0, 0.99])
        outside = np.array([[[0.99, 0.1], [0.1, 0.01]]])
        assert solver._scaled_correction(outside, ops, b) is None
        near = np.array([[[0.99 + 1e-4, 0.05], [0.05, 0.01]]])
        assert np.linalg.eigvalsh(near).min() > 0.0
        start = solver._scaled_correction(near, ops, b)
        assert start is not None
        assert solver._residual(ops, start, b) <= 1e-13
        assert np.linalg.eigvalsh(start).min() >= 0.0

    def test_scaled_correction_from_zero(self):
        # A zero sigma makes the scaled Gram matrix zero, so its linear
        # solve is singular: the correction reports None instead of raising.
        ops = np.array([np.eye(2)[None], np.diag([1.0, 0.0])[None]])
        b = np.array([1.0, 0.99])
        assert solver._scaled_correction(np.zeros((1, 2, 2)), ops, b) is None

    @pytest.mark.parametrize("mode", ["trusted", "untrusted"])
    def test_start_meets_the_stated_values(self, monkeypatch, mode):
        # The subproblems read the stated values of the kept rows, which is
        # sound because the start point meets them to rounding.  The first
        # scaled correction of a solve makes the start, the last closes it.
        values, problem = setup_problem(cutoff=5, mode=mode)
        scaled_correction = solver._scaled_correction
        calls = []

        def traced_correction(sigma, ops, b):
            exact = scaled_correction(sigma, ops, b)
            calls.append((ops, exact, b))
            return exact

        monkeypatch.setattr(solver, "_scaled_correction", traced_correction)
        solve(values, problem)
        ops, start, b = calls[0]
        assert start is not None
        assert solver._residual(ops, start, b) <= 1e-13

    @pytest.mark.parametrize(
        "det", [DET, DetectorModel(0.70, 0.74, 0.01, 0.02)], ids=["quarter-turn", "half-turn"]
    )
    def test_start_solve_takes_the_trace_row(self, monkeypatch, det):
        # Tr rho, row 0, is 1 on the feasible set, so the first interior-point
        # solve of `solve`, whose objective is that row, only finds a point
        # that meets the rows.  The row reduces to exactly the identity blocks.
        pp = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=5)
        obs, problem = point_artifacts(det, pp, "trusted")
        stats = simulate_statistics(ChannelModel.from_distance(20.0, 0.01), det, pp)
        values = build_constraints(stats, obs, pp, "trusted")
        ops = problem.ops
        identity = np.broadcast_to(np.eye(ops.shape[-1]), ops.shape[1:])
        assert problem.maps.quarter_turn == (det == DET)
        assert problem.labels[0] == "trace" and problem.kept[0] == 0 and values[0] == 1.0
        assert np.array_equal(ops[0], identity)

        solve_sdp_exact = solver.solve_sdp
        objectives = []

        def recorded(c_mat, ops, b):
            objectives.append(c_mat)
            return solve_sdp_exact(c_mat, ops, b)

        monkeypatch.setattr(solver, "solve_sdp", recorded)
        solve(values, problem)
        assert np.array_equal(objectives[0], identity)


class TestProperties:
    # derandomize alone would seed the draw from a hash of this test's source,
    # so any edit here would reshuffle the examples; @seed fixes them, and
    # derandomize keeps the example database out.  The pinned thin-set input
    # needs the start's third correction step.
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
        # short distance with little excess noise.  Any y with
        # sum_i y_i Gamma_i <= 1 gives b.y <= Tr rho = 1 on the feasible set,
        # so the feasibility solve's repaired dual with b.y > 1 proves it empty.
        ch = ChannelModel.from_distance(distance, xi)
        pp = ProtocolParams(alpha=alpha, delta_a=delta_a, cutoff=4)
        det = DetectorModel.simple(eta_d, nu_el)
        try:
            res = evaluate_point(ch, det, pp, mode)
        except InfeasibleError:
            obs, problem = point_artifacts(det, pp, mode)
            values = build_constraints(simulate_statistics(ch, det, pp), obs, pp, mode)
            ops, b = problem.ops, values[problem.kept]
            y = solver._repaired_dual(ops[0], ops, solve_sdp(ops[0], ops, b).y)
            assert b @ y > 1.0 + 1e-9
            return
        assert res.certified
        assert res.lower_bound <= res.primal_value + 1e-10
        assert res.constraint_residual <= 1e-12
        assert res.rate >= 0.0


class TestLineSearch:
    @staticmethod
    def counted(phi):
        calls = []

        def wrapped(t):
            calls.append(t)
            return phi(t)

        return wrapped, calls

    @pytest.mark.parametrize("t_min", [1e-9, 1e-4, 0.3, 1 - 4e-4, 1 - 1e-6])
    def test_interior_minimum_at_every_scale(self, t_min):
        # Frank-Wolfe steps range over many decades near 0 and near 1; the
        # search resolves t, or 1 - t, to a fixed fraction of itself, with a
        # fixed number of calls.
        phi, calls = self.counted(lambda t: (t - t_min) ** 2)
        t, f = solver._line_search(phi)
        assert abs(t - t_min) <= 0.01 * min(t_min, 1 - t_min)
        assert f == (t - t_min) ** 2
        assert len(calls) == solver.LINE_SEARCH_POINTS

    def test_full_step(self):
        phi, calls = self.counted(lambda t: (t - 2.0) ** 2)
        t, f = solver._line_search(phi)
        assert t >= 1 - 1e-12
        assert f == (t - 2.0) ** 2
        assert len(calls) == solver.LINE_SEARCH_POINTS

    def test_no_descent(self):
        # An increasing phi has no step that lowers it, and the search must
        # not report one: the solver then stops with "converged_approx" or
        # "stalled".
        phi, calls = self.counted(lambda t: 1.0 + t)
        t, f = solver._line_search(phi)
        assert 0.0 < t <= 1.0
        assert f >= 1.0 - 1e-14  # phi(0)
        assert len(calls) == solver.LINE_SEARCH_POINTS


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
        # ~50; the closing correction makes the returned state exact.
        ch = ChannelModel.from_distance(distance, 0.01)
        pp = ProtocolParams(alpha=alpha, cutoff=10)
        res = evaluate_point(ch, DET, pp, "trusted")
        assert res.certified
        assert res.status in {"converged", "converged_bound", "converged_approx", "rate_zero"}
        assert res.constraint_residual <= 1e-12
        assert res.lower_bound <= res.primal_value + 1e-10
