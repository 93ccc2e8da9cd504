import numpy as np
import pytest

from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import ConstraintSet, build_constraints
from dmrate.detector import DetectorModel
from dmrate.entropy import objective_with_gradient
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set
from dmrate.pipeline import cutoff_stability, evaluate_point
from dmrate.sdp import independent_rows, solve_sdp
from dmrate.solver import InfeasibleError, KeyRateResult, key_rate, solve

DET = DetectorModel.simple(0.719, 0.01)


def setup_problem(L=10.0, cutoff=6, mode="trusted", alpha=0.75, delta_a=0.0, xi=0.01):
    ch = ChannelModel.from_distance(L, xi)
    pp = ProtocolParams(alpha=alpha, delta_a=delta_a, cutoff=cutoff)
    stats = simulate_statistics(ch, DET, pp)
    det_eff = DET if mode == "trusted" else DetectorModel.ideal()
    obs = observable_set(det_eff, delta_a, cutoff)
    cs = build_constraints(stats, obs, pp, mode)
    maps = build_postprocessing_maps(obs.regions)
    return cs, maps


class TestSolve:
    @pytest.fixture(scope="class")
    def solved(self):
        cs, maps = setup_problem()
        return cs, maps, solve(cs, maps)

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
        # returned residual, the solver's contract for every row.
        assert abs(np.trace(res.rho).real - 1.0) <= res.constraint_residual

    def test_monotone_primal(self, solved):
        _, _, res = solved
        hist = np.array(res.primal_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_first_order_optimality(self, solved):
        # At the returned iterate, feasible directions cannot decrease the
        # linearized objective by more than the residual gap.
        cs, maps, res = solved
        _, grad = objective_with_gradient(res.rho, maps)
        ops = cs.operators
        kept = independent_rows(ops)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c_rand = rng.normal(size=(cs.dim, cs.dim)) + 1j * rng.normal(size=(cs.dim, cs.dim))
            c_rand = c_rand + c_rand.conj().T
            feas = solve_sdp(c_rand, ops[kept], cs.values[kept])
            slack = float(np.einsum("ab,ba->", feas.x - res.rho, grad).real)
            assert slack >= -max(10 * res.gap, 1e-5)


class TestSanityRuns:
    def test_lossless_noiseless_positive_rate(self):
        ch = ChannelModel(eta_t=1.0, xi=0.0)
        pp = ProtocolParams(alpha=0.75, beta=0.95, cutoff=8)
        res = evaluate_point(ch, DetectorModel.ideal(), pp, "trusted")
        assert res.certified
        assert res.primal_value <= 2.0
        assert res.rate > 0.1

    def test_trusted_and_untrusted_both_certified(self):
        results = []
        for mode in ("trusted", "untrusted"):
            cs, maps = setup_problem(L=10.0, cutoff=6, mode=mode)
            res = solve(cs, maps)
            results.append(res)
            assert res.certified
            assert res.lower_bound <= res.primal_value + 1e-8
            assert res.primal_value >= -1e-9

    def test_tightening_constraints_monotone(self):
        # Keep the trace and partial-trace rows and only the first 12 moments.
        cs, maps = setup_problem(L=5.0, cutoff=5)
        moments = [i for i, label in enumerate(cs.labels) if label.startswith("moment")]
        keep = [i for i in range(len(cs.labels)) if i not in moments[12:]]
        fewer = ConstraintSet(cs.operators[keep], cs.values[keep], tuple(cs.labels[i] for i in keep))
        full = solve(cs, maps)
        dropped = solve(fewer, maps)
        assert dropped.primal_value <= full.primal_value + 1e-5

    def test_infeasible_constraints_detected(self):
        cs, maps = setup_problem(cutoff=5)
        values = cs.values.copy()
        values[-1] = 99.0
        with pytest.raises(InfeasibleError):
            solve(ConstraintSet(cs.operators, values, cs.labels), maps)


class TestKeyRate:
    def test_rate_floor(self):
        cs, maps = setup_problem(cutoff=5)
        res = key_rate(cs, maps, (5.0, 1.0))
        assert res.rate == 0.0
        assert res.status == "rate_zero"

    def test_zero_ec_cost_gives_lower_bound(self):
        cs, maps = setup_problem(cutoff=5)
        res = key_rate(cs, maps, (0.0, 1.0))
        assert res.rate == pytest.approx(res.lower_bound)

    def test_fields_recorded(self):
        cs, maps = setup_problem(cutoff=5)
        res = key_rate(cs, maps, (1.5, 0.8))
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

    def test_cutoff_stability_helper(self):
        ch = ChannelModel.from_distance(10.0, 0.01)
        pp = ProtocolParams(alpha=0.7, cutoff=6)
        base, bumped, shift = cutoff_stability(ch, DET, pp, "trusted")
        assert base.certified and bumped.certified
        assert shift < 5e-3
