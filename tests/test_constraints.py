import numpy as np
import pytest

from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics, simulated_conditional_state
from dmrate.constraints import DIM_A, ConstraintSet, alice_gram, build_constraints
from dmrate.detector import DetectorModel
from dmrate.fock import quadrature_operators
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import observable_set
from dmrate.solver import solve

DET = DetectorModel.simple(0.719, 0.01)
IDEAL = DetectorModel.ideal()
CH = ChannelModel.from_distance(10.0, 0.01)


def make_cs(mode="trusted", cutoff=6, alpha=0.75):
    # Untrusted noise reads the data through the ideal detector's observables.
    pp = ProtocolParams(alpha=alpha, cutoff=cutoff)
    stats = simulate_statistics(CH, DET, pp)
    obs = observable_set(DET if mode == "trusted" else IDEAL, 0.0, cutoff)
    return build_constraints(stats, obs, pp, mode), pp, stats


def recast_moment_set(cs: ConstraintSet, stats, pp: ProtocolParams) -> ConstraintSet:
    """The untrusted set written the other way round: the non-moment rows of
    cs, plus q, p, n and d of an ideal detector per signal, with the data
    recast to fq, fp, (s_Q + s_P)/2 - 1 and s_Q - s_P."""
    q, p, n_op, d = quadrature_operators(pp.cutoff)
    recast = (
        ("q", q, stats.fq),
        ("p", p, stats.fp),
        ("n", n_op, [(sq + sp) / 2 - 1 for sq, sp in zip(stats.sq, stats.sp)]),
        ("d", d, [sq - sp for sq, sp in zip(stats.sq, stats.sp)]),
    )
    keep = [i for i, label in enumerate(cs.labels) if not label.startswith("moment")]
    ops, values, labels = list(cs.operators[keep]), list(cs.values[keep]), [cs.labels[i] for i in keep]
    for name, op_b, stat in recast:
        for x in range(DIM_A):
            proj = np.zeros((DIM_A, DIM_A))
            proj[x, x] = 1.0
            ops.append(np.kron(proj, op_b))
            values.append(pp.PRIORS[x] * stat[x])
            labels.append(f"moment-{name}-x{x}")
    return ConstraintSet(np.stack(ops), np.array(values), tuple(labels))


def augmented_rank(*sets: ConstraintSet) -> int:
    # Rank of the stacked real rows [vec Re Gamma_i, vec Im Gamma_i, c_i]:
    # two sets span the same affine constraints exactly when each rank
    # equals the rank of both stacked together.
    vecs = [cs.operators.reshape(len(cs.labels), -1) for cs in sets]
    rows = np.vstack([np.column_stack([v.real, v.imag, cs.values]) for v, cs in zip(vecs, sets)])
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


class TestBuildConstraints:
    def test_counts_and_labels(self):
        cs, _, _ = make_cs()
        labels = cs.labels
        assert labels[0] == "trace"
        assert sum(1 for s in labels if s.startswith("ptrace")) == 16
        assert sum(1 for s in labels if s.startswith("moment")) == 16
        assert len(labels) == 33

    def test_trusted_vs_untrusted_operator_sets(self):
        # Both scenarios share the rows and the data; the untrusted moment
        # operators are the ideal detector's observables, the trusted ones
        # the noisy detector's.
        cs_t, _, _ = make_cs("trusted")
        cs_u, _, _ = make_cs("untrusted")
        assert cs_t.labels == cs_u.labels
        np.testing.assert_array_equal(cs_t.values, cs_u.values)
        for cs, det in ((cs_t, DET), (cs_u, IDEAL)):
            obs = observable_set(det, 0.0, 6)
            rows = dict(zip(cs.labels, cs.operators))
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
        cs, _, _ = make_cs()
        for op in cs.operators:
            assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_moment_values(self):
        cs, pp, stats = make_cs()
        vals = dict(zip(cs.labels, cs.values))
        assert vals["moment-FQ-x0"] == pytest.approx(0.25 * stats.fq[0])
        assert vals["moment-SP-x3"] == pytest.approx(0.25 * stats.sp[3])

    def test_dimension_mismatch_rejected(self):
        pp = ProtocolParams(alpha=0.75, cutoff=8)
        stats = simulate_statistics(CH, DET, pp)
        obs = observable_set(DET, 0.0, 6)
        with pytest.raises(ValueError):
            build_constraints(stats, obs, pp, "trusted")

    def test_bad_mode_rejected(self):
        cs, pp, stats = make_cs()
        obs = observable_set(DET, 0.0, 6)
        with pytest.raises(ValueError):
            build_constraints(stats, obs, pp, "both")

    def test_moment_residuals_of_simulated_state(self):
        # The block-diagonal mixture of conditional states reproduces the
        # moment values (not the Gram pins) up to truncation error.
        cutoff = 20
        cs, pp, _ = make_cs(cutoff=cutoff)
        rho = np.zeros((cs.dim, cs.dim), dtype=complex)
        for x in range(4):
            sigma = simulated_conditional_state(CH, x, pp, cutoff)
            rho[
                x * (cutoff + 1) : (x + 1) * (cutoff + 1), x * (cutoff + 1) : (x + 1) * (cutoff + 1)
            ] = 0.25 * sigma
        res = cs.residuals(rho)
        for label, r in zip(cs.labels, res):
            if label.startswith("moment") or label == "trace":
                assert abs(r) < 1e-6, label

    def test_arrays_read_only(self):
        cs, _, _ = make_cs()
        assert cs.operators.shape == (33, cs.dim, cs.dim) and cs.values.shape == (33,)
        with pytest.raises(ValueError):
            cs.operators[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            cs.values[0] = 2.0

    def test_shape_mismatch_rejected(self):
        cs, _, _ = make_cs()
        with pytest.raises(ValueError):
            ConstraintSet(cs.operators, cs.values[:-1], cs.labels)
        with pytest.raises(ValueError):
            ConstraintSet(cs.operators[:, :-1], cs.values, cs.labels)


class TestUntrustedIsIdealDetector:
    """The untrusted constraints (ideal-detector F_Q, F_P, S_Q, S_P) describe
    the same feasible set as q, p, n, d with the recast data, since each
    ``ptrace-d*`` row pins Tr[(|x><x| (x) 1) rho] = p_x."""

    CH = ChannelModel.from_distance(5.0, 0.01)
    PP = ProtocolParams(alpha=0.75, delta_a=0.5, cutoff=5)

    def sets(self):
        stats = simulate_statistics(self.CH, DET, self.PP)
        obs = observable_set(IDEAL, self.PP.delta_a, self.PP.cutoff)
        cs = build_constraints(stats, obs, self.PP, "untrusted")
        return cs, recast_moment_set(cs, stats, self.PP), obs

    def test_same_row_span(self):
        cs, recast, _ = self.sets()
        rank = augmented_rank(cs)
        assert augmented_rank(recast) == rank
        assert augmented_rank(cs, recast) == rank

    def test_certificates_agree_across_sets(self):
        # Weak duality across the two descriptions: each certified bound is
        # at most the other set's primal value.
        cs, recast, obs = self.sets()
        maps = build_postprocessing_maps(obs.regions)
        res, res_recast = solve(cs, maps), solve(recast, maps)
        assert res.certified and res_recast.certified
        assert res.lower_bound <= res_recast.primal_value + 1e-10
        assert res_recast.lower_bound <= res.primal_value + 1e-10
