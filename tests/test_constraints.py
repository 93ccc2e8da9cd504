import numpy as np
import pytest

from dmrate.channel import ChannelModel, ProtocolParams, simulate_statistics, simulated_conditional_state
from dmrate.constraints import ConstraintSet, alice_gram, build_constraints
from dmrate.detector import DetectorModel
from dmrate.observables import observable_set

DET = DetectorModel.simple(0.719, 0.01)
CH = ChannelModel.from_distance(10.0, 0.01)


def make_cs(mode="trusted", cutoff=6, alpha=0.75):
    pp = ProtocolParams(alpha=alpha, cutoff=cutoff)
    stats = simulate_statistics(CH, DET, pp)
    obs = observable_set(DET, 0.0, cutoff)
    return build_constraints(stats, obs, pp, mode), pp, stats


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
        cs_t, _, _ = make_cs("trusted")
        cs_u, _, _ = make_cs("untrusted")
        t_names = {label.split("-")[1] for label in cs_t.labels if label.startswith("moment")}
        u_names = {label.split("-")[1] for label in cs_u.labels if label.startswith("moment")}
        assert t_names == {"FQ", "FP", "SQ", "SP"}
        assert u_names == {"q", "p", "n", "d"}

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
