import numpy as np
import pytest
from scipy import integrate

from dmrate import channel
from dmrate.channel import (
    ChannelModel,
    ProtocolParams,
    SimulatedStatistics,
    discretization_distribution,
    ec_cost,
    simulate_statistics,
)
from dmrate.detector import DetectorModel
from dmrate.fock import quadrature_operators
from dmrate.observables import moment_observables
from support.channel import angular_distribution, pdf_outcome, simulated_conditional_state
from support.fock import displaced_thermal_matrix

DET = DetectorModel.simple(0.719, 0.01)
DISTINCT = DetectorModel(0.70, 0.74, 0.01, 0.02)


class TestChannelModel:
    def test_distance_conversion(self):
        ch = ChannelModel.from_distance(10.0, 0.01)
        assert ch.eta_t == pytest.approx(10 ** (-0.2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(eta_t=0.0, xi=0.01)
        with pytest.raises(ValueError):
            ChannelModel(eta_t=0.5, xi=-0.01)
        with pytest.raises(ValueError):
            ChannelModel.from_distance(-5.0, 0.01)


class TestProtocolParams:
    def test_signal_constellation(self):
        # alpha i^x exactly: exp(i x pi/2) made signal 1 4.6e-17 + 0.75j.
        pp = ProtocolParams(alpha=0.75)
        assert [pp.signal(x) for x in range(8)] == [0.75, 0.75j, -0.75, -0.75j] * 2
        assert sum(pp.PRIORS) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(alpha=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(alpha=0.5, beta=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(alpha=0.5, delta_a=-1.0)


VALID = {
    ChannelModel: {"eta_t": 0.5, "xi": 0.01},
    DetectorModel: {"eta1": 0.7, "eta2": 0.7, "nu1": 0.01, "nu2": 0.01},
    ProtocolParams: {"alpha": 0.75, "cutoff": 3},
}


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (ChannelModel, "xi", np.nan),
        (ChannelModel, "xi", np.inf),
        (ChannelModel, "distance_km", np.nan),
        (ChannelModel, "distance_km", -5.0),
        (DetectorModel, "nu1", np.nan),
        (DetectorModel, "nu2", np.inf),
        (ProtocolParams, "alpha", np.nan),
        (ProtocolParams, "alpha", np.inf),
        (ProtocolParams, "delta_a", np.nan),
        (ProtocolParams, "delta_a", np.inf),
        (ProtocolParams, "cutoff", 3.5),
        (ProtocolParams, "cutoff", 1),
    ],
)
def test_inputs_checked_at_construction(cls, field, value):
    # Non-finite floats and a fractional cutoff fail where they enter, not
    # deep inside the quadrature or the solve.
    with pytest.raises(ValueError, match=field):
        cls(**{**VALID[cls], field: value})


UNIFORM = np.full((4, 4), 1 / 16)
# A uniform joint with a negative P(0, 1), its mass moved to P(0, 0), and
# one with an infinite entry.
NEGATIVE = UNIFORM.copy()
NEGATIVE[0, 1], NEGATIVE[0, 0] = -0.02, UNIFORM[0, 0] + 0.02
INFINITE = UNIFORM.copy()
INFINITE[1, 2] = np.inf


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SimulatedStatistics((1.0,) * 4, (0.0,) * 4, (0.5,) * 4, (1.0,) * 4), "second moments"),
        (
            lambda: discretization_distribution(
                ChannelModel(0.5, 0.01), DetectorModel(0.719, 0.6, 0.01, 0.05), ProtocolParams(alpha=0.75)
            ),
            "identical detector arms",
        ),
        # The region operators' radius rule, applied before any work.
        (
            lambda: discretization_distribution(ChannelModel(0.5, 0.01), DET, ProtocolParams(alpha=0.75, delta_a=6.0)),
            "delta_a = 6.0 leaves the vacuum at most",
        ),
        (lambda: ec_cost(UNIFORM, 0.0), "reconciliation efficiency"),
        (lambda: ec_cost(UNIFORM, 1.5), "reconciliation efficiency"),
        (lambda: ec_cost(NEGATIVE, 0.95), "cannot price the joint"),
        (lambda: ec_cost(INFINITE, 0.95), "cannot price the joint"),
    ],
    ids=[
        "moments",
        "distinct-arms-discretization",
        "unresolvable-radius-discretization",
        "beta-0",
        "beta-1.5",
        "negative-joint",
        "infinite-joint",
    ],
)
def test_inputs_outside_the_model_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestSimulatedStatistics:
    def test_noiseless_limit(self):
        ch = ChannelModel(eta_t=1.0, xi=0.0)
        stats = simulate_statistics(ch, DetectorModel.ideal(), ProtocolParams(alpha=0.75))
        assert stats.sq[0] == pytest.approx(2 * 0.75**2 + 1)
        assert stats.fq[0] == pytest.approx(np.sqrt(2) * 0.75)

    def test_first_moment_value(self):
        ch = ChannelModel.from_distance(10.0, 0.01)
        stats = simulate_statistics(ch, DET, ProtocolParams(alpha=0.75))
        assert stats.fq[0] == pytest.approx(np.sqrt(2 * 0.719 * 10**-0.2) * 0.75)

    def test_constellation_symmetry(self):
        ch = ChannelModel.from_distance(25.0, 0.02)
        pp = ProtocolParams(alpha=0.8)
        stats = simulate_statistics(ch, DET, pp)
        target = 2 * 0.719 * ch.eta_t * 0.8**2
        for x in range(4):
            assert stats.fq[x] ** 2 + stats.fp[x] ** 2 == pytest.approx(target)
        # Exact signals make the moments that vanish exactly 0 (F_Q of
        # signal 3 once read -1.0e-16 at 20 km) and the rest exactly opposite.
        assert stats.fq[1] == stats.fq[3] == stats.fp[0] == stats.fp[2] == 0.0
        assert stats.fq[0] == -stats.fq[2] and stats.fp[1] == -stats.fp[3]

    def test_consistency_bridge(self):
        # Truncated-operator traces against the analytic statistics at N=20,
        # for identical and for distinct arms.
        ch = ChannelModel.from_distance(10.0, 0.01)
        pp = ProtocolParams(alpha=0.75, cutoff=20)
        for det in (DET, DISTINCT):
            stats = simulate_statistics(ch, det, pp)
            fq, fp, sq, sp = moment_observables(det, *quadrature_operators(20), np.eye(21))
            for x in range(4):
                sigma = simulated_conditional_state(ch, x, pp, 20)
                assert np.trace(sigma @ fq).real == pytest.approx(stats.fq[x], abs=1e-6)
                assert np.trace(sigma @ fp).real == pytest.approx(stats.fp[x], abs=1e-6)
                assert np.trace(sigma @ sq).real == pytest.approx(stats.sq[x], abs=1e-6)
                assert np.trace(sigma @ sp).real == pytest.approx(stats.sp[x], abs=1e-6)

    @pytest.mark.parametrize("xi", [0.0, 1e-4, 0.01, 1.0])
    def test_conditional_state_against_laguerre_form(self, xi):
        # pi G_beta from the POVM kernel against the Laguerre closed form of
        # the displaced thermal state; xi = 0 is the coherent projector.
        for distance_km in (0.0, 20.0, 100.0):
            ch = ChannelModel.from_distance(distance_km, xi)
            for alpha in (0.35, 0.75, 1.5):
                pp = ProtocolParams(alpha=alpha)
                for N in (2, 6, 12, 20):
                    for x in range(4):
                        got = simulated_conditional_state(ch, x, pp, N)
                        ref = displaced_thermal_matrix(np.sqrt(ch.eta_t) * pp.signal(x), ch.eta_t * xi / 2, N)
                        assert np.max(np.abs(got - ref)) < 1e-12

    def test_general_detector_path(self):
        det = DetectorModel(0.7, 0.7 - 1e-9, 0.02, 0.02)
        ch = ChannelModel(eta_t=0.9, xi=0.01)
        pp = ProtocolParams(alpha=0.5, cutoff=8)
        got = simulate_statistics(ch, det, pp)
        ref = simulate_statistics(ch, DetectorModel.simple(0.7, 0.02), pp)
        for x in range(4):
            assert got.fq[x] == pytest.approx(ref.fq[x], abs=1e-8)
            assert got.sq[x] == pytest.approx(ref.sq[x], abs=1e-8)

    def test_distinct_arms_match_per_arm_closed_form(self):
        # Independent physics check of the numeric observables: each
        # homodyne arm sees its own efficiency and electronic noise, so
        # F_Q/S_Q follow the identical-arm closed form with (eta1, nu1) and
        # F_P/S_P with (eta2, nu2).
        det = DISTINCT
        ch = ChannelModel.from_distance(5.0, 0.01)
        pp = ProtocolParams(alpha=0.75, cutoff=10)
        stats = simulate_statistics(ch, det, pp)
        for x in range(4):
            a = pp.signal(x)
            for eta, nu, f, s, amp in (
                (det.eta1, det.nu1, stats.fq, stats.sq, a.real),
                (det.eta2, det.nu2, stats.fp, stats.sp, a.imag),
            ):
                t = eta * ch.eta_t
                assert f[x] == pytest.approx(np.sqrt(2 * t) * amp, abs=1e-12)
                assert s[x] == pytest.approx(2 * t * amp**2 + 1 + 0.5 * t * ch.xi + nu, abs=1e-12)

    @pytest.mark.parametrize(
        "det", [DET, DISTINCT, DetectorModel(0.74, 0.70, 0.02, 0.01)], ids=["identical", "distinct", "swapped"]
    )
    def test_independent_of_cutoff(self, det):
        # The data are expectations on the untruncated conditional states, so
        # the protocol cutoff does not enter them.
        ch = ChannelModel.from_distance(5.0, 0.01)
        low, high = (simulate_statistics(ch, det, ProtocolParams(alpha=1.0, cutoff=N)) for N in (6, 12))
        assert low == high


class TestPdfOutcome:
    CH = ChannelModel.from_distance(20.0, 0.01)
    PP = ProtocolParams(alpha=0.75)

    def test_peak_value(self):
        s = 1 + 0.5 * 0.719 * self.CH.eta_t * 0.01 + 0.01
        c = np.sqrt(0.719 * self.CH.eta_t) * 0.75
        assert pdf_outcome(c, 0, self.CH, DET, self.PP) == pytest.approx(1 / (np.pi * s))

    def test_normalized(self):
        val, _ = integrate.dblquad(
            lambda p, q: pdf_outcome(q + 1j * p, 1, self.CH, DET, self.PP),
            -8, 8, -8, 8, epsabs=1e-10,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_husimi_limit(self):
        # Ideal detector, xi = 0: the Q function of the attenuated coherent state.
        ch = ChannelModel(eta_t=0.6, xi=0.0)
        det = DetectorModel.ideal()
        pp = ProtocolParams(alpha=0.9)
        y = 0.3 - 0.1j
        expect = np.exp(-abs(y - np.sqrt(0.6) * 0.9) ** 2) / np.pi
        assert pdf_outcome(y, 0, ch, det, pp) == pytest.approx(expect, rel=1e-12)


class TestDiscretization:
    CH = ChannelModel.from_distance(20.0, 0.01)

    def test_no_postselection_partition(self):
        joint = discretization_distribution(self.CH, DET, ProtocolParams(alpha=0.75))
        assert (4 * joint).sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rotational_symmetry(self):
        cond = 4 * discretization_distribution(self.CH, DET, ProtocolParams(alpha=0.7, delta_a=0.4))
        for x in range(4):
            for z in range(4):
                assert cond[x, z] == pytest.approx(cond[(x + 1) % 4, (z + 1) % 4], abs=1e-10)

    def test_strong_signal_limit(self):
        ch = ChannelModel(eta_t=1.0, xi=0.0)
        joint = discretization_distribution(ch, DetectorModel.ideal(), ProtocolParams(alpha=6.0))
        assert np.all(np.diag(4 * joint) > 1 - 1e-6)

    def test_p_pass_monotone_in_radius(self):
        vals = []
        for da in (0.0, 0.3, 0.6, 0.9, 1.2):
            vals.append(discretization_distribution(self.CH, DET, ProtocolParams(alpha=0.75, delta_a=da)).sum())
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_against_raw_2d_quadrature(self):
        # The sector masses against adaptive 2-D quadrature of the outcome
        # density, over postselection radii and the sharply peaked strong
        # signal of test_strong_signal_limit; r_max leaves < 1e-20 mass out.
        cases = [(self.CH, DET, ProtocolParams(alpha=0.75, delta_a=da), 10.0) for da in (0.0, 0.5, 1.5)]
        cases.append((ChannelModel(eta_t=1.0, xi=0.0), DetectorModel.ideal(), ProtocolParams(alpha=6.0), 13.0))
        for ch, det, pp, r_max in cases:
            cond = 4 * discretization_distribution(ch, det, pp)
            for (x, z) in [(0, 0), (0, 1), (2, 0)]:
                ref, _ = integrate.dblquad(
                    lambda r, th: pdf_outcome(r * np.exp(1j * th), x, ch, det, pp) * r,
                    (2 * z - 1) * np.pi / 4,
                    (2 * z + 1) * np.pi / 4,
                    pp.delta_a,
                    r_max,
                    epsabs=1e-11,
                )
                assert cond[x, z] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("det", [DET, DetectorModel.ideal()], ids=["trusted", "ideal"])
    def test_against_angular_rule(self, det):
        # The closed form against the angular Gauss-Legendre rule it
        # replaced, over amplitudes, distances and radii up to 5.
        for alpha in (0.05, 0.35, 0.75, 1.5, 3.0, 5.0):
            for distance_km in (0.0, 20.0, 50.0, 100.0):
                ch = ChannelModel.from_distance(distance_km, 0.01)
                for delta_a in (0.0, 0.2, 0.5, 1.0, 2.0, 3.5, 5.0):
                    pp = ProtocolParams(alpha=alpha, delta_a=delta_a)
                    got, want = discretization_distribution(ch, det, pp), angular_distribution(ch, det, pp)
                    assert np.max(np.abs(got - want)) <= 1e-14, (alpha, distance_km, delta_a)

    @pytest.mark.parametrize(
        "distance_km, delta_a, alpha",
        [(20.0, 0.4, 0.7), (0.0, 0.0, 0.35), (0.0, 0.0, 0.75), (0.0, 0.0, 1.5), (50.0, 1.2, 0.9), (5.0, 5.0, 2.0)],
    )
    def test_exactly_circulant_and_mirror_symmetric(self, distance_km, delta_a, alpha):
        # P(x, z) depends on z - x mod 4 alone, and is even in it: the
        # quarter turn and the reflection of the constellation, exactly.
        joint = discretization_distribution(
            ChannelModel.from_distance(distance_km, 0.01), DET, ProtocolParams(alpha=alpha, delta_a=delta_a)
        )
        r = np.arange(4)
        assert np.array_equal(joint, joint[np.ix_((r + 1) % 4, (r + 1) % 4)])
        assert np.array_equal(joint, joint[np.ix_(-r % 4, -r % 4)])

    @pytest.mark.parametrize("alpha", [100.0, 200.0, 400.0])
    def test_strong_signal_passes_everything(self, alpha):
        # Without postselection every round passes, however sharp the peak.
        joint = discretization_distribution(ChannelModel.from_distance(0.0, 0.01), DET, ProtocolParams(alpha=alpha))
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_signal(self):
        # alpha^2 underflows to 0: the outcome is centred noise, so every
        # sector keeps a quarter of the mass e^{-delta_a^2/s} outside the disk.
        s = 1 + 0.5 * DET.eta_d * self.CH.eta_t * self.CH.xi + DET.nu_el
        joint = discretization_distribution(self.CH, DET, ProtocolParams(alpha=1e-170, delta_a=1.0))
        np.testing.assert_allclose(joint, np.exp(-1.0 / s) / 16, rtol=1e-14, atol=0)

    def test_negative_sector_mass_raises(self, monkeypatch):
        # A mass below -1e-10 is a fault, not rounding to clip.
        mass = np.full((4, 4), 0.25)
        mass[1, 2] = -1e-6
        monkeypatch.setattr(channel, "_sector_mass", lambda c, s, delta_a: mass)
        with pytest.raises(RuntimeError, match=r"negative sector mass -1e-06 at \(x=1, z=2\)"):
            discretization_distribution(self.CH, DET, ProtocolParams(alpha=0.75))


def entropies(joint):
    """(H_Z, I_XZ) in bits from the package's delta_EC = H_Z - beta I_XZ,
    which is affine in beta: H_Z = 2 delta(1/2) - delta(1) and
    I_XZ = 2 (delta(1/2) - delta(1))."""
    d_one, d_half = ec_cost(joint, 1.0)[0], ec_cost(joint, 0.5)[0]
    return 2 * d_half - d_one, 2 * (d_half - d_one)


class TestEcCost:
    def test_perfect_correlation(self):
        joint = np.eye(4) / 4
        delta, p_pass = ec_cost(joint, 1.0)
        h_z, mi = entropies(joint)
        assert h_z == pytest.approx(2.0)
        assert mi == pytest.approx(2.0)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert p_pass == 1.0

    def test_independent_uniform(self):
        joint = np.full((4, 4), 1 / 16)
        delta, _ = ec_cost(joint, 0.95)
        _, mi = entropies(joint)
        assert mi == pytest.approx(0.0, abs=1e-12)
        assert delta == pytest.approx(2.0)

    def test_mutual_information_bounds(self):
        joint = discretization_distribution(
            ChannelModel.from_distance(30.0, 0.02), DET, ProtocolParams(alpha=0.8, delta_a=0.5)
        )
        h_z, mi = entropies(joint)
        assert 0.0 <= mi <= min(2.0, h_z) + 1e-12

    def test_against_brute_force_oracle(self):
        # Independent oracle: entropies from the raw 2-D quadrature masses.
        ch = ChannelModel.from_distance(20.0, 0.01)
        pp = ProtocolParams(alpha=0.75, delta_a=0.3)
        cond = np.zeros((4, 4))
        for x in range(4):
            for z in range(4):
                cond[x, z], _ = integrate.dblquad(
                    lambda r, th: pdf_outcome(r * np.exp(1j * th), x, ch, DET, pp) * r,
                    (2 * z - 1) * np.pi / 4,
                    (2 * z + 1) * np.pi / 4,
                    pp.delta_a,
                    10.0,
                    epsabs=1e-11,
                )
        joint = cond / 4
        p_pass = joint.sum()
        joint /= p_pass

        def ent(p):
            p = p[p > 0]
            return -np.sum(p * np.log2(p))

        h_z = ent(joint.sum(axis=0))
        mi = ent(joint.sum(axis=1)) + h_z - ent(joint.ravel())
        ref_delta = h_z - 0.95 * mi
        delta, got_pass = ec_cost(discretization_distribution(ch, DET, pp), 0.95)
        assert delta == pytest.approx(ref_delta, abs=1e-6)
        assert got_pass == pytest.approx(p_pass, abs=1e-8)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="p_pass = 0.0"):
            ec_cost(np.zeros((4, 4)), 0.95)

    def test_nan_rejected(self):
        # A NaN sum compares False with 0, so it is refused with the zero sum.
        joint = np.full((4, 4), 1 / 16)
        joint[2, 1] = np.nan
        with pytest.raises(ValueError, match="p_pass = nan"):
            ec_cost(joint, 0.95)


class TestEffectiveNoise:
    @pytest.mark.parametrize("distance_km", [0.0, 5.0, 20.0, 50.0])
    def test_ideal_detector_on_effective_channel(self, distance_km):
        # An untrusted detector is an ideal one behind the channel with
        # transmittance eta_d eta_t and excess noise xi + 2 nu_el/(eta_d eta_t):
        # both give outcome noise 1 + eta_d eta_t xi/2 + nu_el.
        ch = ChannelModel.from_distance(distance_km, 0.01)
        eta = DET.eta_d * ch.eta_t
        eff = ChannelModel(eta_t=eta, xi=ch.xi + 2 * DET.nu_el / eta)
        ideal = DetectorModel.ideal()
        pp = ProtocolParams(alpha=0.75, delta_a=0.5)
        got, want = simulate_statistics(eff, ideal, pp), simulate_statistics(ch, DET, pp)
        for field in ("fq", "fp", "sq", "sp"):
            assert np.max(np.abs(np.subtract(getattr(got, field), getattr(want, field)))) <= 1e-12
        got_cond = 4 * discretization_distribution(eff, ideal, pp)
        want_cond = 4 * discretization_distribution(ch, DET, pp)
        assert np.max(np.abs(got_cond - want_cond)) <= 1e-12
