import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dmrate import observables
from dmrate.detector import DetectorModel, povm_weighted_sum
from dmrate.fock import quadrature_operators
from dmrate.maps import _covariance_deviation
from dmrate.observables import (
    _general_regions,
    moment_observables,
    observable_set,
    region_operators,
)
from support.detector import povm_element
from support.fock import displaced_thermal_matrix, laguerre
from support.observables import region_complement

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

    @pytest.mark.parametrize("delta_a", [4.0, 5.0, 5.2])
    def test_vacuum_outside_mass_to_relative_accuracy(self, delta_a):
        # The vacuum's mass outside the disk is e^{-x}, x = delta_a^2/(1 +
        # nu_el), from 1e-7 down to 1e-12 here; taken as one quarter minus
        # the mass inside, it would cancel to a relative error of up to 1e-4.
        R0 = region_operators(SIMPLE, delta_a, 6)[0]
        assert 4 * R0[0, 0].real == pytest.approx(math.exp(-(delta_a**2) / (1 + SIMPLE.nu_el)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("det", [SIMPLE, IDEAL], ids=["trusted", "ideal"])
    @pytest.mark.parametrize("delta_a", [0.0, 0.5, 3.0])
    def test_exactly_covariant(self, det, delta_a):
        # Each entry is one real magnitude times i^{jk} from an exact table,
        # so the quarter turn and the reflection map the regions onto each
        # other without rounding, and the phases cancel exactly in their sum
        # (k != 0 mod 4), as does sinc(k/4) (k = 0 mod 4, k != 0).
        regions = region_operators(det, delta_a, 12)
        assert _covariance_deviation(regions, 1) == 0.0
        total = sum(regions)
        assert np.all(total == np.diag(np.diag(total)))
        if delta_a == 0.0:
            assert np.all(total == np.eye(13))

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
        regions = region_operators(det, delta_a, N)
        total = sum(regions) + disk
        assert np.max(np.abs(total - np.eye(N + 1))) < 1e-12
        assert np.all(np.diag(disk).real >= 0.0) and np.all(np.diag(disk).real <= 1.0 + 1e-12)
        for R in regions:
            assert np.linalg.eigvalsh(R).min() >= -1e-12

    @pytest.mark.parametrize("det", [SIMPLE, NOISY], ids=["simple", "noisy"])
    @pytest.mark.parametrize("delta_a", [0.0, 0.5, 1.5])
    def test_closed_form_against_polar_quadrature(self, det, delta_a):
        # The distinct-arm path run on identical arms is an independent
        # construction of the same operators.
        got = region_operators(det, delta_a, 12)
        ref = _general_regions(det, delta_a, 12)
        for R, R_ref in zip(got, ref):
            assert np.max(np.abs(R - R_ref)) < 1e-10

    def test_continuous_at_ideal_detector(self):
        # A detector a hair away from ideal takes the same closed form as the
        # ideal detector, with nbar_d = 1e-13 in place of 0.
        near = DetectorModel(1.0, 1.0, 1e-13, 1e-13)
        for delta_a in (0.0, 0.5, 1.5):
            for R, R_ideal in zip(region_operators(near, delta_a, 12), region_operators(IDEAL, delta_a, 12)):
                assert np.max(np.abs(R - R_ideal)) < 1e-12
            disk = region_complement(near, delta_a, 12)
            assert np.max(np.abs(disk - region_complement(IDEAL, delta_a, 12))) < 1e-12

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

    @pytest.mark.parametrize("delta_a", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("det", [SIMPLE, DetectorModel(0.72, 0.6, 0.01, 0.03)], ids=["identical", "distinct"])
    def test_non_finite_radius_rejected(self, det, delta_a):
        # Refused at the boundary, not deep in the lattice sums or the grid.
        with pytest.raises(ValueError, match="postselection radius must be finite and >= 0"):
            region_operators(det, delta_a, 4)


class TestDiskIntegral:
    @pytest.mark.parametrize("det", [SIMPLE, NOISY], ids=["simple", "noisy"])
    def test_closed_form_against_quadrature(self, det):
        # G_y = (1/(pi eta)) times the thermal state of occupation nbar
        # displaced to y/sqrt(eta); in polar coordinates y = r e^{i theta} its
        # (m, n) entry, m <= n, is
        #   (eta^{-(n-m)/2}/(pi eta)) sqrt(m!/n!) nbar^m/(1+nbar)^{n+1}
        #   e^{i(m-n) theta} exp(-r^2/A) L_m^(n-m)(-r^2/B) r^(n-m)
        # with A = eta(1+nbar), B = eta nbar(1+nbar).  The disk diagonal
        # integrates it over the disk r < delta_a; R_0 integrates it over
        # r > delta_a and the sector |theta| < pi/4, whose angular integral
        # 2 sin(k pi/4)/k (k = m - n) vanishes for k = 0 mod 4.  The radial
        # integrals are checked against adaptive quadrature for every
        # m <= n <= 20.
        eta, nbar = det.eta_d, det.nbar_d
        A, B = eta * (1 + nbar), eta * nbar * (1 + nbar)
        N = 20

        def radial(m, n, lo, hi):
            ref, _ = integrate.quad(
                lambda r: np.exp(-r * r / A) * laguerre(m, n - m, -r * r / B) * r ** (n - m + 1),
                lo,
                hi,
                epsabs=0.0,
                epsrel=1e-13,
                limit=200,
            )
            return ref

        for delta_a in DISK_RADII:
            disk = np.diag(region_complement(det, delta_a, N)).real
            R0 = region_operators(det, delta_a, N)[0]
            for m in range(N + 1):
                scale = 2.0 / eta * nbar**m / (1 + nbar) ** (m + 1)
                assert disk[m] / scale == pytest.approx(radial(m, m, 0.0, delta_a), rel=1e-12, abs=0.0)
                for n in range(m + 1, N + 1):
                    k = m - n
                    if k % 4 == 0:
                        continue
                    scale = (
                        eta ** (-(n - m) / 2)
                        / (np.pi * eta)
                        * math.sqrt(math.factorial(m) / math.factorial(n))
                        * nbar**m
                        / (1 + nbar) ** (n + 1)
                        * 2
                        * np.sin(k * np.pi / 4)
                        / k
                    )
                    assert R0[m, n].real / scale == pytest.approx(radial(m, n, delta_a, np.inf), rel=1e-12, abs=0.0)


def polar_moment_quadrature(det, N, n_r=120, n_th=60, r_hi=12.0):
    """Oracle: sqrt(2)Re y, sqrt(2)Im y, 2(Re y)^2 and 2(Im y)^2 integrated
    against G_y on a tensor Gauss-Legendre polar grid over the disk
    |y| <= r_hi, one kernel call per weight."""
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    xt, wt = np.polynomial.legendre.leggauss(n_th)
    r = 0.5 * r_hi * (xr + 1.0)
    th = np.pi * (xt + 1.0)
    y = (r[:, None] * np.exp(1j * th)).ravel()
    base = np.outer(0.5 * r_hi * wr * r, np.pi * wt).ravel()
    weights = (np.sqrt(2.0) * y.real, np.sqrt(2.0) * y.imag, 2.0 * y.real**2, 2.0 * y.imag**2)
    return tuple(povm_weighted_sum(y, base * w, det, N) for w in weights)


def moments(det, N):
    """The per-arm moment form on the truncated operators at cutoff N."""
    return moment_observables(det, *quadrature_operators(N), np.eye(N + 1))


class TestMomentObservables:
    def test_ideal_reductions(self):
        q, p, n_op, d = quadrature_operators(10)
        eye = np.eye(11)
        fq, fp, sq, sp = moments(IDEAL, 10)
        assert np.array_equal(fq, q)
        assert np.array_equal(fp, p)
        assert np.array_equal(sq, n_op + d / 2 + eye)
        assert np.array_equal(sp, n_op - d / 2 + eye)

    def test_continuity_toward_ideal(self):
        q, p, *_ = quadrature_operators(8)
        fq, fp, _, _ = moments(DetectorModel.simple(1 - 1e-7, 1e-9), 8)
        assert np.max(np.abs(fq - q)) < 1e-5
        assert np.max(np.abs(fp - p)) < 1e-5

    def test_vacuum_second_moment(self):
        _, _, sq, sp = moments(SIMPLE, 6)
        assert sq[0, 0].real == pytest.approx(1.01, abs=1e-12)
        assert sp[0, 0].real == pytest.approx(1.01, abs=1e-12)

    def test_diagonal_closed_form(self):
        # <m|S_Q|m> = eta_d (m + 1 + nbar_d)
        _, _, sq, _ = moments(SIMPLE, 9)
        eta, nbar = SIMPLE.eta_d, SIMPLE.nbar_d
        for m in range(10):
            assert sq[m, m].real == pytest.approx(eta * (m + 1 + nbar), rel=1e-12)

    def test_entries_against_quadrature(self):
        # Every entry of the per-arm closed form against an independent
        # integration of the POVM kernel over the outcome plane, for
        # identical arms and both orderings of distinct arms.
        N = 6
        for det in (
            DetectorModel.simple(0.62, 0.04),
            DetectorModel(0.70, 0.74, 0.01, 0.02),
            DetectorModel(0.74, 0.70, 0.02, 0.01),
        ):
            for got, ref in zip(moments(det, N), polar_moment_quadrature(det, N)):
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_minimum_cutoff(self):
        with pytest.raises(ValueError, match="cutoff N must be >= 2"):
            observable_set(SIMPLE, 0.0, 1)


class TestGeneralNumericPath:
    GENERAL = DetectorModel(0.72, 0.6, 0.01, 0.03)

    def test_cutoff_12_numeric(self):
        # At cutoff 12 the refined grid converges, the regions at
        # delta_a = 0 still resolve the identity, the moments are
        # Hermitian, and the second moments (integrals of G_y against
        # nonnegative weights) are positive semidefinite.
        N = 12
        obs = observable_set(self.GENERAL, 0.0, N)
        assert obs.detector is self.GENERAL
        total = sum(obs.regions)
        assert np.max(np.abs(total - np.eye(N + 1))) < 1e-8
        for M in (obs.fq, obs.fp, obs.sq, obs.sp):
            assert M.shape == (N + 1, N + 1)
            assert np.max(np.abs(M - M.conj().T)) == 0.0
        for M in (obs.sq, obs.sp):
            assert np.linalg.eigvalsh(M).min() > -1e-8

    @pytest.mark.parametrize("det", [DetectorModel(0.70, 0.74, 0.01, 0.02), GENERAL], ids=["bench", "general"])
    @pytest.mark.parametrize("delta_a", [0.0, 0.5])
    def test_exactly_covariant_under_half_turn(self, det, delta_a):
        # Sectors 2 and 3 are the half turn of sectors 0 and 1, R_0 is real
        # and R_1 is averaged with its reflection, so the half turn and the
        # reflection hold without rounding.
        regions = region_operators(det, delta_a, 6)
        assert _covariance_deviation(regions, 2) == 0.0
        assert _covariance_deviation(regions, 1) > 1e-6

    def test_numeric_regions_resolve_identity(self):
        regions = region_operators(self.GENERAL, 0.0, 3)
        total = sum(regions)
        assert np.max(np.abs(total - np.eye(4))) < 1e-6

    def test_numeric_vacuum_moments(self):
        # Numeric regions, closed-form moments: the vacuum reads each arm's
        # shot noise plus its electronic noise.
        obs = observable_set(self.GENERAL, 0.0, 2)
        assert obs.detector is self.GENERAL
        assert obs.sq[0, 0] == 1 + self.GENERAL.nu1
        assert obs.sp[0, 0] == 1 + self.GENERAL.nu2
        assert obs.fq[0, 0] == 0.0

    def test_unconverged_grid_raises(self, monkeypatch):
        # No two node counts agree to a zero tolerance.
        monkeypatch.setattr(observables, "POLAR_TOL", 0.0)
        with pytest.raises(RuntimeError, match="polar quadrature did not converge"):
            region_operators(self.GENERAL, 0.0, 2)


class TestObservableSet:
    def test_assembly(self):
        obs = observable_set(SIMPLE, 0.4, 7)
        assert obs.regions is not None and len(obs.regions) == 4
        assert obs.detector is SIMPLE
        assert obs.fq.shape == (8, 8)
