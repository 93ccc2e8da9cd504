import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dmrate.detector import DetectorModel, povm_element
from dmrate.fock import displaced_thermal_matrix, laguerre, quadrature_operators
from dmrate.observables import (
    _disk_head,
    moment_observables,
    observable_set,
    region_complement,
    region_operators,
)

SIMPLE = DetectorModel.simple(0.719, 0.01)
NOISY = DetectorModel.simple(0.60, 0.30)
IDEAL = DetectorModel.ideal()
DISK_RADII = (0.1, 0.6, 1.5, 3.0)


def region_mass_by_quadrature(rho, det, j, delta_a, N, tol=1e-9):
    """Oracle: integrate the outcome density Tr(rho G_y) over sector j."""

    def density(r, th):
        g = povm_element(r * np.exp(1j * th), det, N)
        return float(np.trace(rho @ g).real) * r

    lo, hi = (2 * j - 1) * np.pi / 4, (2 * j + 1) * np.pi / 4
    val, _ = integrate.dblquad(density, lo, hi, delta_a, 9.0, epsabs=tol)
    return val


class TestRegionOperators:
    def test_diagonals_quarter_without_postselection(self):
        for det in (SIMPLE, IDEAL):
            regions = region_operators(det, 0.0, 8)
            for R in regions:
                assert np.all(np.diag(R).real == 0.25)

    def test_resolution_of_identity(self):
        for det in (SIMPLE, IDEAL):
            regions = region_operators(det, 0.0, 12)
            total = sum(regions)
            assert np.max(np.abs(total - np.eye(13))) < 1e-12

    def test_positive_semidefinite(self):
        for delta_a in (0.0, 0.5, 1.0):
            for det in (SIMPLE, IDEAL):
                for R in region_operators(det, delta_a, 20):
                    w = np.linalg.eigvalsh(R)
                    assert w.min() >= -1e-10

    def test_completeness_with_disk(self):
        # Regions plus disk resolve the identity by construction, so the disk
        # values are also checked: a thermal state's outcome density is a
        # Gaussian of width 1 + eta_d nbar + nu_el, whose mass inside the
        # disk is 1 - exp(-delta_a^2 / width).
        for delta_a in DISK_RADII:
            for det in (SIMPLE, NOISY, DetectorModel.simple(0.95, 0.001), IDEAL):
                regions = region_operators(det, delta_a, 20)
                disk = region_complement(det, delta_a, 20)
                total = sum(regions) + disk
                assert np.max(np.abs(total - np.eye(21))) < 1e-12
                for nbar in (0.0, 0.3):
                    rho = displaced_thermal_matrix(0.0, nbar, 20)
                    mass = np.trace(rho @ disk).real
                    width = 1.0 + det.eta_d * nbar + det.nu_el
                    assert mass == pytest.approx(-np.expm1(-delta_a**2 / width), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        eta=st.floats(0.3, 1.0),
        nu=st.floats(0.0, 0.5),
        delta_a=st.floats(0.0, 3.0),
        N=st.integers(2, 20),
    )
    def test_completeness_with_disk_property(self, eta, nu, delta_a, N):
        det = DetectorModel.simple(eta, nu)
        disk = region_complement(det, delta_a, N)
        total = sum(region_operators(det, delta_a, N)) + disk
        assert np.max(np.abs(total - np.eye(N + 1))) < 1e-12
        assert np.all(np.diag(disk).real >= 0.0) and np.all(np.diag(disk).real <= 1.0 + 1e-12)

    def test_thermal_mass_against_quadrature_ideal(self):
        N, delta_a = 12, 0.6
        rho = displaced_thermal_matrix(0.0, 0.4, N)
        regions = region_operators(IDEAL, delta_a, N)
        for j in range(4):
            got = float(np.trace(rho @ regions[j]).real)
            ref = region_mass_by_quadrature(rho, IDEAL, j, delta_a, N)
            assert got == pytest.approx(ref, abs=1e-6)

    def test_thermal_mass_against_quadrature_noisy(self):
        N, delta_a = 10, 0.45
        rho = displaced_thermal_matrix(0.0, 0.3, N)
        regions = region_operators(SIMPLE, delta_a, N)
        got = float(np.trace(rho @ regions[1]).real)
        ref = region_mass_by_quadrature(rho, SIMPLE, 1, delta_a, N)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_rotation_covariance(self):
        # R_{j+1} entries equal R_j entries conjugated by the sector rotation
        # e^{i pi/2 n}, a direct consequence of the angular integrals.
        N = 9
        regions = region_operators(SIMPLE, 0.3, N)
        phase = np.diag(np.exp(1j * np.pi / 2 * np.arange(N + 1)))
        rotated = phase @ regions[0] @ phase.conj().T
        assert np.max(np.abs(rotated - regions[1])) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            region_operators(SIMPLE, -0.1, 5)
        with pytest.raises(ValueError):
            region_operators(SIMPLE, 0.0, 0)


class TestDiskIntegral:
    @pytest.mark.parametrize("det", [SIMPLE, NOISY], ids=["simple", "noisy"])
    def test_closed_form_against_quadrature(self, det):
        # integral_0^delta exp(-r^2/A) L_m^(k)(-r^2/B) r^(k+1) dr for every
        # (m, k) with m + k <= 20, against adaptive quadrature.
        eta, nbar = det.eta_d, det.nbar_d
        A, B = eta * (1 + nbar), eta * nbar * (1 + nbar)
        for delta_a in DISK_RADII:
            for m in range(21):
                for k in range(21 - m):
                    ref, _ = integrate.quad(
                        lambda r: np.exp(-r * r / A) * laguerre(m, k, -r * r / B) * r ** (k + 1),
                        0.0,
                        delta_a,
                        epsabs=0.0,
                        epsrel=1e-13,
                        limit=200,
                    )
                    assert _disk_head(m, k, A, B, delta_a) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestMomentObservables:
    def test_ideal_reductions(self):
        q, p, n_op, d = quadrature_operators(10)
        eye = np.eye(11)
        obs = moment_observables(IDEAL, 10)
        assert np.max(np.abs(obs.fq - q)) < 1e-10
        assert np.max(np.abs(obs.fp - p)) < 1e-10
        assert np.max(np.abs(obs.sq - (n_op + d / 2 + eye))) < 1e-10
        assert np.max(np.abs(obs.sp - (n_op - d / 2 + eye))) < 1e-10

    def test_continuity_toward_ideal(self):
        q, p, *_ = quadrature_operators(8)
        obs = moment_observables(DetectorModel.simple(1 - 1e-7, 1e-9), 8)
        assert np.max(np.abs(obs.fq - q)) < 1e-5
        assert np.max(np.abs(obs.fp - p)) < 1e-5

    def test_vacuum_second_moment(self):
        obs = moment_observables(SIMPLE, 6)
        assert obs.sq[0, 0].real == pytest.approx(1.01, abs=1e-12)
        assert obs.sp[0, 0].real == pytest.approx(1.01, abs=1e-12)

    def test_diagonal_closed_form(self):
        # <m|S_Q|m> = eta_d (m + 1 + nbar_d)
        obs = moment_observables(SIMPLE, 9)
        eta, nbar = SIMPLE.eta_d, SIMPLE.nbar_d
        for m in range(10):
            assert obs.sq[m, m].real == pytest.approx(eta * (m + 1 + nbar), rel=1e-12)

    def test_entries_against_quadrature(self):
        det, N = DetectorModel.simple(0.62, 0.04), 6
        obs = moment_observables(det, N)

        def weighted(fn, m, n):
            def integrand(r, th):
                y = r * np.exp(1j * th)
                g = povm_element(y, det, N)
                return (fn(y) * g[m, n]).real * r

            val, _ = integrate.dblquad(integrand, 0, 2 * np.pi, 0, 9.0, epsabs=1e-10)
            return val

        assert obs.fq[2, 3].real == pytest.approx(weighted(lambda y: np.sqrt(2) * y.real, 2, 3), abs=1e-8)
        assert obs.sq[1, 1].real == pytest.approx(weighted(lambda y: 2 * y.real**2, 1, 1), abs=1e-8)
        assert obs.sq[1, 3].real == pytest.approx(weighted(lambda y: 2 * y.real**2, 1, 3), abs=1e-8)
        assert obs.sp[0, 2].real == pytest.approx(weighted(lambda y: 2 * y.imag**2, 0, 2), abs=1e-8)

    def test_minimum_cutoff(self):
        with pytest.raises(ValueError):
            moment_observables(SIMPLE, 1)


class TestGeneralNumericPath:
    GENERAL = DetectorModel(0.72, 0.6, 0.01, 0.03)

    def test_cutoff_12_numeric(self):
        # At cutoff 12 the refined grid converges, the regions at
        # delta_a = 0 still resolve the identity, the moments are
        # Hermitian, and the second moments (integrals of G_y against
        # nonnegative weights) are positive semidefinite.
        N = 12
        obs = observable_set(self.GENERAL, 0.0, N)
        assert obs.method == "numeric"
        total = sum(obs.regions)
        assert np.max(np.abs(total - np.eye(N + 1))) < 1e-8
        for M in (obs.fq, obs.fp, obs.sq, obs.sp):
            assert M.shape == (N + 1, N + 1)
            assert np.max(np.abs(M - M.conj().T)) == 0.0
        for M in (obs.sq, obs.sp):
            assert np.linalg.eigvalsh(M).min() > -1e-8

    def test_numeric_regions_resolve_identity(self):
        regions = region_operators(self.GENERAL, 0.0, 3)
        total = sum(regions)
        assert np.max(np.abs(total - np.eye(4))) < 1e-6

    def test_numeric_vacuum_moments(self):
        obs = moment_observables(self.GENERAL, 2)
        assert obs.method == "numeric"
        assert obs.sq[0, 0].real == pytest.approx(1 + self.GENERAL.nu1, abs=1e-6)
        assert obs.sp[0, 0].real == pytest.approx(1 + self.GENERAL.nu2, abs=1e-6)
        assert abs(obs.fq[0, 0]) < 1e-8


class TestObservableSet:
    def test_assembly(self):
        obs = observable_set(SIMPLE, 0.4, 7)
        assert obs.regions is not None and len(obs.regions) == 4
        assert obs.method == "closed-form"
        assert obs.fq.shape == (8, 8)
