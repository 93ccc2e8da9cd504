import numpy as np
import pytest

from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics
from dmrate.constraints import DIM_A, alice_gram, build_constraints, constraint_rows
from dmrate.detector import DetectorModel
from dmrate.fock import quadrature_operators
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set
from dmrate.pipeline import point_artifacts
from dmrate.solver import Problem, solve
from support.channel import simulated_conditional_state
from support.constraints import full_operators

DET = DetectorModel.simple(0.719, 0.01)
IDEAL = DetectorModel.ideal()
CH = ChannelModel.from_distance(10.0, 0.01)


def make_problem(mode="trusted", cutoff=6, alpha=0.75):
    # Untrusted noise reads the data through the ideal detector's observables.
    pp = ProtocolParams(alpha=alpha, cutoff=cutoff)
    stats = simulate_statistics(CH, DET, pp)
    obs, problem = point_artifacts(DET, pp, mode)
    return build_constraints(stats, obs, pp, mode), problem, pp, stats


def recast_moment_set(values, problem: Problem, stats, pp: ProtocolParams) -> tuple[np.ndarray, Problem]:
    """The untrusted set written the other way round: the non-moment rows of
    the problem, plus q, p, n and d of an ideal detector per signal, with
    the data recast to fq, fp, (s_Q + s_P)/2 - 1 and s_Q - s_P."""
    q, p, n_op, d = quadrature_operators(pp.cutoff)
    recast = (
        ("q", q, stats.fq),
        ("p", p, stats.fp),
        ("n", n_op, [(sq + sp) / 2 - 1 for sq, sp in zip(stats.sq, stats.sp)]),
        ("d", d, [sq - sp for sq, sp in zip(stats.sq, stats.sp)]),
    )
    keep = [i for i, label in enumerate(problem.labels) if not label.startswith("moment")]
    a_parts, b_parts = list(problem.a_parts[keep]), list(problem.b_parts[keep])
    values, labels = list(values[keep]), [problem.labels[i] for i in keep]
    for name, op_b, stat in recast:
        for x in range(DIM_A):
            proj = np.zeros((DIM_A, DIM_A))
            proj[x, x] = 1.0
            a_parts.append(proj)
            b_parts.append(op_b)
            values.append(pp.PRIORS[x] * stat[x])
            labels.append(f"moment-{name}-x{x}")
    return np.array(values), Problem(problem.maps, np.stack(a_parts), np.stack(b_parts), tuple(labels))


def augmented_rank(*sets: tuple[np.ndarray, Problem]) -> int:
    # Rank of the stacked real rows [vec Re Gamma_i, vec Im Gamma_i, c_i]:
    # two sets span the same affine constraints exactly when each rank
    # equals the rank of both stacked together.
    vecs = [full_operators(problem).reshape(len(problem.labels), -1) for _, problem in sets]
    rows = np.vstack([np.column_stack([v.real, v.imag, values]) for v, (values, _) in zip(vecs, sets)])
    return int(np.linalg.matrix_rank(rows, tol=1e-9 * np.linalg.norm(rows, 2)))


class TestAliceGram:
    def test_diagonal(self):
        rho_a = alice_gram(ProtocolParams(alpha=0.66))
        assert np.allclose(np.diag(rho_a), 0.25)

    def test_off_diagonal_value(self):
        alpha = 0.75
        rho_a = alice_gram(ProtocolParams(alpha=alpha))
        # <alpha_1|alpha_0> = e^{-alpha^2 (1+i)} for the pi/2-rotated pair.
        assert rho_a[0, 1] == pytest.approx(0.25 * np.exp(-(alpha**2) * (1 + 1j)), rel=1e-12)

    def test_psd_unit_trace(self):
        rho_a = alice_gram(ProtocolParams(alpha=0.9))
        assert np.trace(rho_a).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho_a).min() > 0
        assert np.max(np.abs(rho_a - rho_a.conj().T)) < 1e-15

    def test_real_entries_exact(self):
        # <alpha_j|alpha_i> = e^{-alpha^2 (1 - i^(i-j))} is real where i - j
        # is even, and exactly so from exact signals (rho_A[0, 2] once had an
        # imaginary part of -5.6e-18).
        rho_a = alice_gram(ProtocolParams(alpha=0.75))
        even = (np.arange(DIM_A)[:, None] - np.arange(DIM_A)[None, :]) % 2 == 0
        assert np.all(rho_a.imag[even] == 0.0)
        assert rho_a[0, 2] == rho_a[2, 0] == rho_a[1, 3] == rho_a[3, 1] == pytest.approx(0.25 * np.exp(-2 * 0.75**2))


class TestBuildConstraints:
    def test_counts_and_labels(self):
        _, problem, _, _ = make_problem()
        labels = problem.labels
        assert labels[0] == "trace"
        assert sum(1 for s in labels if s.startswith("ptrace")) == 16
        assert sum(1 for s in labels if s.startswith("moment")) == 16
        assert len(labels) == 33

    def test_trusted_vs_untrusted_operator_sets(self):
        # Both scenarios share the rows and the data; the untrusted moment
        # operators are the ideal detector's observables, the trusted ones
        # the noisy detector's.
        values_t, problem_t, _, _ = make_problem("trusted")
        values_u, problem_u, _, _ = make_problem("untrusted")
        assert problem_t.labels == problem_u.labels
        np.testing.assert_array_equal(values_t, values_u)
        for problem, det in ((problem_t, DET), (problem_u, IDEAL)):
            obs = observable_set(det, 0.0, 6)
            rows = dict(zip(problem.labels, full_operators(problem)))
            for name, op_b in (("FQ", obs.fq), ("FP", obs.fp), ("SQ", obs.sq), ("SP", obs.sp)):
                for x in range(DIM_A):
                    proj = np.zeros((DIM_A, DIM_A))
                    proj[x, x] = 1.0
                    np.testing.assert_array_equal(rows[f"moment-{name}-x{x}"], np.kron(proj, op_b))

    def test_untrusted_needs_ideal_observables(self):
        # A noisy detector's observables under untrusted noise would give Eve
        # less than she holds: a silent wrong number, so it is an error.
        pp = ProtocolParams(alpha=0.75, cutoff=6)
        stats = simulate_statistics(CH, DET, pp)
        with pytest.raises(ValueError, match="ideal detector"):
            build_constraints(stats, observable_set(DET, 0.0, 6), pp, "untrusted")

    def test_all_operators_hermitian(self):
        _, problem, _, _ = make_problem()
        for op in full_operators(problem):
            assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_moment_values(self):
        values, problem, pp, stats = make_problem()
        vals = dict(zip(problem.labels, values))
        assert vals["moment-FQ-x0"] == pytest.approx(0.25 * stats.fq[0])
        assert vals["moment-SP-x3"] == pytest.approx(0.25 * stats.sp[3])

    def test_dimension_mismatch_rejected(self):
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        stats = simulate_statistics(CH, DET, pp)
        obs = observable_set(DET, 0.0, 6)
        with pytest.raises(ValueError):
            build_constraints(stats, obs, pp, "trusted")

    def test_bad_mode_rejected(self):
        _, _, pp, stats = make_problem()
        obs = observable_set(DET, 0.0, 6)
        with pytest.raises(ValueError):
            build_constraints(stats, obs, pp, "both")

    def test_moment_residuals_of_simulated_state(self):
        # The block-diagonal mixture of conditional states reproduces the
        # moment values (not the Gram pins) up to truncation error.
        cutoff = 20
        values, problem, pp, _ = make_problem(cutoff=cutoff)
        rho = np.zeros((problem.maps.dim_ab, problem.maps.dim_ab), dtype=complex)
        for x in range(4):
            sigma = simulated_conditional_state(CH, x, pp, cutoff)
            rho[
                x * (cutoff + 1) : (x + 1) * (cutoff + 1), x * (cutoff + 1) : (x + 1) * (cutoff + 1)
            ] = 0.25 * sigma
        res = problem.residuals(rho, values)
        for label, r in zip(problem.labels, res):
            if label.startswith("moment") or label == "trace":
                assert abs(r) < 1e-6, label

    def test_arrays_read_only(self):
        # The problem is cached and shared by every point of its key; a
        # point's values are its own.
        values, problem, _, _ = make_problem()
        assert problem.a_parts.shape == (33, DIM_A, DIM_A) and problem.b_parts.shape == (33, 7, 7)
        assert values.shape == (33,) and values.dtype == np.float64 and problem.maps.dim_ab == DIM_A * 7
        for arr in (problem.a_parts, problem.b_parts, problem.kept, problem.ops, problem.scale, problem.coef):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_factors_copied(self):
        # Always copied, read-only input included: no problem shares memory
        # with its caller's arrays.
        _, problem, _, _ = make_problem(cutoff=3)
        again = Problem(problem.maps, problem.a_parts, problem.b_parts, problem.labels)
        assert not np.shares_memory(again.a_parts, problem.a_parts)
        assert not np.shares_memory(again.b_parts, problem.b_parts)

    def test_shape_mismatch_rejected(self):
        values, problem, _, _ = make_problem()
        maps, a_parts, b_parts, labels = problem.maps, problem.a_parts, problem.b_parts, problem.labels
        for wrong in (values[:-1], np.append(values, 0.0), values[None]):
            with pytest.raises(ValueError, match="one per row"):
                solve(wrong, problem)
        with pytest.raises(ValueError):
            Problem(maps, a_parts[:-1], b_parts, labels)
        with pytest.raises(ValueError):
            Problem(maps, a_parts[:, :-1], b_parts, labels)
        with pytest.raises(ValueError):
            Problem(maps, a_parts, b_parts[:-1], labels)
        with pytest.raises(ValueError):
            Problem(maps, a_parts, b_parts[:, :-1], labels)


@pytest.mark.parametrize("where", ["value", "operator"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(where, bad):
    # Caught where they enter: a value by the solve, before the
    # interior-point method can fail on it deep inside, an operator entry,
    # in either factor, by the problem.
    values, problem, _, _ = make_problem(cutoff=3)
    if where == "value":
        values = values.copy()
        values[20] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(values, problem)
        return
    a_parts, b_parts = problem.a_parts.copy(), problem.b_parts.copy()
    a_parts[20, 1, 1] = bad
    b_parts[20, 1, 1] = bad
    for a, b in [(a_parts, problem.b_parts), (problem.a_parts, b_parts)]:
        with pytest.raises(ValueError, match="finite"):
            Problem(problem.maps, a, b, problem.labels)


MODES = {
    "trusted": (DET, 0.0, "trusted"),
    "untrusted": (DET, 0.5, "untrusted"),
    "distinct": (DetectorModel(0.70, 0.74, 0.01, 0.02), 0.5, "trusted"),
}


@pytest.mark.parametrize("case", MODES)
def test_factors_match_explicit_rows(case):
    # The Gram matrix and the residuals taken from the factors are those of
    # the rows kron(A_i, B_i) themselves, on a state that is neither
    # symmetric nor Hermitian.
    det, delta_a, mode = MODES[case]
    pp = ProtocolParams(alpha=0.75, delta_a=delta_a, cutoff=4)
    obs, problem = point_artifacts(det, pp, mode)
    values = build_constraints(simulate_statistics(CH, det, pp), obs, pp, mode)
    flat = full_operators(problem).reshape(len(problem.labels), -1)
    assert np.max(np.abs(problem.gram() - (flat.conj() @ flat.T).real)) < 1e-12
    rng = np.random.default_rng(0)
    dim = problem.maps.dim_ab
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    explicit = np.einsum("iab,ba->i", full_operators(problem), rho).real - values
    assert np.max(np.abs(problem.residuals(rho, values) - explicit)) < 1e-12


class TestUntrustedIsIdealDetector:
    """The untrusted constraints (ideal-detector F_Q, F_P, S_Q, S_P) describe
    the same feasible set as q, p, n, d with the recast data, since each
    ``ptrace-d*`` row pins Tr[(|x><x| (x) 1) rho] = p_x."""

    CH = ChannelModel.from_distance(5.0, 0.01)
    PP = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=5)

    def sets(self):
        stats = simulate_statistics(self.CH, DET, self.PP)
        obs = observable_set(IDEAL, self.PP.delta_a, self.PP.cutoff)
        problem = Problem(build_postprocessing_maps(obs.regions), *constraint_rows(obs))
        values = build_constraints(stats, obs, self.PP, "untrusted")
        return (values, problem), recast_moment_set(values, problem, stats, self.PP)

    def test_same_row_span(self):
        point, recast = self.sets()
        rank = augmented_rank(point)
        assert augmented_rank(recast) == rank
        assert augmented_rank(point, recast) == rank

    def test_certificates_agree_across_sets(self):
        # Weak duality across the two descriptions: each certified bound is
        # at most the other set's primal value.
        point, recast = self.sets()
        res, res_recast = solve(*point), solve(*recast)
        assert res.certified and res_recast.certified
        assert res.lower_bound <= res_recast.primal_value + 1e-10
        assert res_recast.lower_bound <= res.primal_value + 1e-10
