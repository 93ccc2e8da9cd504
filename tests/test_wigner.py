import numpy as np
import pytest

from dmrate.fock import coherent_overlap
from support.fock import displaced_thermal_matrix
from support.wigner import (
    WignerGaussian,
    overlap_integral,
    overlap_integral_complex,
    plane_integral,
    povm_wigner_gaussian,
    transition_wigner,
    wigner_state,
)


class TestEvaluators:
    def test_vacuum_at_origin(self):
        assert wigner_state("vacuum")(0) == pytest.approx(2 / np.pi)

    def test_thermal_at_origin(self):
        nbar = 0.8
        assert wigner_state("thermal", nbar=nbar)(0) == pytest.approx((2 / np.pi) / (1 + 2 * nbar))

    def test_dts_peak_location(self):
        w = wigner_state("dts", alpha=1.2 - 0.4j, nbar=0.3)
        assert w(1.2 - 0.4j) == pytest.approx((2 / np.pi) / 1.6)
        assert w(0) < w(1.2 - 0.4j)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            wigner_state("thermal", nbar=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            wigner_state("cat")

    def test_all_kinds_unit_trace(self):
        cases = [
            wigner_state("vacuum"),
            wigner_state("thermal", nbar=0.6),
            wigner_state("dts", alpha=0.9 + 0.5j, nbar=0.4),
            wigner_state("sts", nbar=0.2, squeeze=0.3),
            wigner_state("dsts", alpha=0.7j, nbar=0.5, squeeze=-0.4),
        ]
        for w in cases:
            assert plane_integral(w) == pytest.approx(1.0, abs=1e-8)

    def test_squeezing_orientation(self):
        # Positive squeeze narrows the Re axis in this convention.
        w = wigner_state("sts", nbar=0.0, squeeze=0.5)
        assert w(0.5) < w(0.5j)


class TestOverlap:
    def test_vacuum_with_itself(self):
        w = wigner_state("vacuum")
        assert overlap_integral(w, w) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_with_thermal(self):
        nbar = 0.7
        got = overlap_integral(wigner_state("vacuum"), wigner_state("thermal", nbar=nbar))
        assert got == pytest.approx(1 / (1 + nbar), abs=1e-9)

    def test_two_coherent_states(self):
        a, b = 0.8 + 0.3j, -0.2 + 0.6j
        got = overlap_integral(wigner_state("dts", alpha=a), wigner_state("dts", alpha=b))
        assert got == pytest.approx(abs(coherent_overlap(a, b)) ** 2, abs=1e-9)

    def test_matches_fock_basis_traces(self):
        # Truncated-basis Tr(FG) against quadrature, mean photon <= 3 at N=20.
        N = 20
        cases = [
            (wigner_state("thermal", nbar=0.5), displaced_thermal_matrix(0.0, 0.5, N)),
            (wigner_state("dts", alpha=1.3 - 0.4j, nbar=0.3), displaced_thermal_matrix(1.3 - 0.4j, 0.3, N)),
        ]
        for (wf, F) in cases:
            for (wg, G) in cases:
                got = overlap_integral(wf, wg)
                ref = float(np.trace(F @ G).real)
                assert got == pytest.approx(ref, abs=1e-6)


class TestTransitionWigner:
    def test_diagonal_is_fock_state(self):
        w = transition_wigner(0, 0)
        assert w(0) == pytest.approx(2 / np.pi)
        # One photon: negative at the origin.
        assert transition_wigner(1, 1)(0).real == pytest.approx(-2 / np.pi)

    def test_trace_pairing_with_displaced_thermal(self):
        # pi * int W_{|n><m|} W_rho = <m|rho|n>
        alpha, nbar, N = 0.7 + 0.4j, 0.35, 18
        rho = displaced_thermal_matrix(alpha, nbar, N)
        wrho = wigner_state("dts", alpha=alpha, nbar=nbar)
        for (n, m) in [(0, 0), (0, 1), (2, 1), (3, 3), (1, 4)]:
            got = overlap_integral_complex(transition_wigner(n, m), wrho)
            assert got == pytest.approx(rho[m, n], abs=1e-8)

    def test_conjugation_symmetry(self):
        g = 0.4 - 0.2j
        assert transition_wigner(2, 5)(g) == pytest.approx(np.conj(transition_wigner(5, 2)(g)))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            transition_wigner(-1, 0)


class TestPovmWigner:
    def test_reduces_to_ideal_heterodyne(self):
        # eta -> 1, nu -> 0 gives (1/pi) |y><y|, whose Wigner transform is
        # (1/pi) * 2/pi * exp(-2|gamma-y|^2).
        y = 0.4 + 0.9j
        w = povm_wigner_gaussian(y, 1.0, 0.0, 1.0, 0.0)
        assert w(y) == pytest.approx(2 / np.pi**2)
        assert w.center == pytest.approx(y)

    def test_povm_normalization(self):
        # integral Tr(rho G_y) d^2 y = 1 for rho = vacuum.
        eta, nu = 0.7, 0.05
        wvac = wigner_state("vacuum")

        def density(y):
            return overlap_integral(wvac, povm_wigner_gaussian(y, eta, nu, eta, nu), tol=1e-11)

        # The outcome density for vacuum is an isotropic Gaussian; integrate radially.
        from scipy.integrate import quad

        val, _ = quad(lambda r: 2 * np.pi * r * density(r), 0, 12, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_asymmetric_detector_anisotropy(self):
        w = povm_wigner_gaussian(0.5, 0.9, 0.0, 0.5, 0.2)
        assert w.var_q != pytest.approx(w.var_p)
        assert w.center.real == pytest.approx(0.5 / np.sqrt(0.9))


class TestWignerGaussianType:
    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            WignerGaussian(0j, -1.0, 1.0, 1.0)

    def test_documented_normalization(self):
        w = WignerGaussian(0.3 + 0.1j, 0.7, 0.4, 1.3)
        assert plane_integral(w) == pytest.approx(1.3 * np.pi * np.sqrt(0.7 * 0.4), abs=1e-8)
