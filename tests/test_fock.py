import math

import numpy as np
import pytest
from scipy import special

from dmrate.fock import (
    check_hermitian,
    coherent_overlap,
    erfc,
    gammaln,
    gauss_legendre,
    hermitian_sqrt,
    quadrature_operators,
    refined,
)
from dmrate.observables import _lattice_gamma
from support.fock import coherent_state_vector, displaced_thermal_matrix, laguerre
from support.maps import hermitian_log


def laguerre_series(k, j, x):
    # Explicit series; all terms share a sign for x <= 0, so no cancellation.
    return sum((-1) ** i * math.comb(k + j, k - i) * x**i / math.factorial(i) for i in range(k + 1))


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 5, 3.7) == 1.0

    def test_degree_one(self):
        # L_1(x) = 1 - x
        assert laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_degree_two_with_parameter(self):
        # L_2^(1)(x) = (x^2 - 6x + 6) / 2
        assert laguerre(2, 1, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_recurrence_matches_series(self):
        for k in range(16):
            for j in range(16):
                for x in np.linspace(-20.0, 0.0, 9):
                    ref = laguerre_series(k, j, float(x))
                    assert laguerre(k, j, float(x)) == pytest.approx(ref, rel=1e-10)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(0, -2, 1.0)


class TestSpecialFunctions:
    """The package's special functions, and the incomplete gamma sums of the
    region operators, against scipy.special, and its Gauss-Legendre rules
    against numpy's."""

    def test_regularized_gamma_against_scipy(self):
        # The incomplete gamma pair of the region operators, at every order
        # s = 1, 3/2, ..., N + 1 they use, and x from 1e-12, where P(21, x) is
        # 2e-272, to 100, where Q(1, x) is 4e-44.
        for N in range(2, 21):
            s = np.arange(2 * N + 1) / 2 + 1
            for x in np.geomspace(1e-12, 100.0, 200):
                p, q = _lattice_gamma(x, N)
                np.testing.assert_allclose(p, special.gammainc(s, x), rtol=1e-13, atol=0, err_msg=f"P, x={x}")
                np.testing.assert_allclose(q, special.gammaincc(s, x), rtol=1e-13, atol=0, err_msg=f"Q, x={x}")

    def test_regularized_gamma_shapes_and_edges(self):
        for N in (1, 2, 7, 20):
            p, q = _lattice_gamma(0.0, N)
            assert p.shape == q.shape == (2 * N + 1,)
            assert (p == 0.0).all() and (q == 1.0).all()
            for x in (0.5, 7.0, 40.0):
                p, q = _lattice_gamma(x, N)
                assert p.shape == q.shape == (2 * N + 1,)
                # P and Q are separate sums, each held to 1e-13 against scipy
                # above, so they add to 1 to that accuracy, not to one ulp.
                np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=1e-13)
                # Q(1, x) = e^{-x}: the first order, on the integer lattice.
                assert q[0] == pytest.approx(np.exp(-x), rel=1e-14)

    def test_erfc_against_scipy(self):
        x = np.linspace(-10.0, 10.0, 2001)
        np.testing.assert_allclose(erfc(x), special.erfc(x), rtol=1e-13, atol=0)
        assert np.ndim(erfc(0.3)) == 0

    def test_gammaln_against_scipy(self):
        x = np.arange(0.5, 60.5, 0.5)
        np.testing.assert_allclose(gammaln(x), special.gammaln(x), rtol=1e-13, atol=0)
        np.testing.assert_allclose(gammaln(np.arange(1, 40)), special.gammaln(np.arange(1, 40)), rtol=1e-13, atol=0)
        assert np.ndim(gammaln(3)) == 0

    # The small rules, and every rule the package uses: the polar patches
    # take 24..120 nodes, the key sectors 32..512.
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 32, 36, 48, 60, 64, 72, 96, 120, 128, 256, 512])
    def test_gauss_legendre_against_numpy(self, n):
        x, w = gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=5e-14)

    def test_gauss_legendre_cached_read_only(self):
        x, w = gauss_legendre(5)
        assert gauss_legendre(5)[0] is x
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 32, 36, 48, 60, 64, 72, 96, 120, 128, 256, 512])
    def test_gauss_legendre_exact_on_polynomials(self, n):
        # An n-point rule integrates every x^j with j <= 2n - 1 exactly:
        # 2 / (j + 1) for even j, 0 for odd j.
        x, w = gauss_legendre(n)
        j = np.arange(2 * n)
        moments = x ** j[:, None] @ w
        exact = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
        np.testing.assert_allclose(moments, exact, rtol=0, atol=5e-15)


class TestRefined:
    def test_returns_first_agreeing_level(self):
        levels = []

        def rule(level):
            levels.append(level)
            return np.array([1.0, 1.0 / level])

        got = refined(rule, (1, 10, 100, 1000, 10000), 1e-2, "toy rule")
        # Changes 0.9, 0.09, 0.009: the fourth level is the first to agree.
        assert levels == [1, 10, 100, 1000]
        assert np.array_equal(got, [1.0, 1e-3])

    def test_no_agreement_raises(self):
        with pytest.raises(RuntimeError, match=r"toy rule did not converge \(last refinement change 1.00e\+00\)"):
            refined(lambda level: np.array([float(level)]), (1, 2, 3), 0.5, "toy rule")


class TestQuadratureOperators:
    def test_q_matrix_element(self):
        q, _, _, _ = quadrature_operators(5)
        assert q[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_number_operator_diagonal(self):
        _, _, n_op, _ = quadrature_operators(9)
        assert np.allclose(np.diag(n_op), np.arange(10))

    def test_truncated_commutator(self):
        N = 8
        q, p, _, _ = quadrature_operators(N)
        comm = q @ p - p @ q
        expect = 1j * np.eye(N + 1)
        diff = comm - expect
        # Truncation corrupts only the last basis row/column.
        assert np.max(np.abs(diff[:N, :N])) < 1e-14
        assert abs(diff[N, N]) > 1.0

    def test_d_operator_structure(self):
        _, _, _, d = quadrature_operators(6)
        assert d[0, 2] == pytest.approx(np.sqrt(2))
        assert np.max(np.abs(d - d.conj().T)) == 0.0

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError):
            quadrature_operators(0)

    @pytest.mark.parametrize("N", [1, 2, 6, 15])
    def test_closed_forms_match_products(self, N):
        # The closed forms against the ladder-operator products they replace.
        a = np.diag(np.sqrt(np.arange(1, N + 1)).astype(complex), k=1)
        ad = a.conj().T
        q, p, n_op, d = quadrature_operators(N)
        expect = ((ad + a) / np.sqrt(2.0), 1j * (ad - a) / np.sqrt(2.0), ad @ a, a @ a + ad @ ad)
        for got, ref in zip((q, p, n_op, d), expect):
            assert np.max(np.abs(got - ref)) < 1e-14
            assert np.array_equal(got, got.conj().T)
        assert q.dtype == n_op.dtype == d.dtype == np.float64
        assert np.array_equal(n_op, np.diag(np.arange(N + 1.0)))


class TestCoherentOverlap:
    def test_normalized(self):
        assert coherent_overlap(0.7 + 0.2j, 0.7 + 0.2j) == pytest.approx(1.0)

    def test_closed_form_value(self):
        got = coherent_overlap(0.75j, 0.75)
        assert got == pytest.approx(np.exp(-0.5625 * (1 - 1j)), rel=1e-14)

    def test_modulus_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = (rng.normal(size=2) @ np.array([1, 1j]) for _ in range(2))
            assert abs(coherent_overlap(a, b)) == pytest.approx(np.exp(-abs(a - b) ** 2 / 2), rel=1e-12)

    def test_vector_reproduces_overlap(self):
        a, b = 0.6 - 0.3j, -0.2 + 0.5j
        va, vb = coherent_state_vector(a, 40), coherent_state_vector(b, 40)
        assert np.dot(vb.conj(), va) == pytest.approx(coherent_overlap(a, b), abs=1e-12)


class TestMatrixFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(4)), np.eye(4))

    def test_sqrt_diagonal(self):
        got = hermitian_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(got, np.diag([2.0, 3.0]))

    def test_log_round_trip(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        M = B @ B.conj().T + 0.5 * np.eye(8)
        w, U = np.linalg.eigh(M)
        expect = (U * np.log(w)) @ U.conj().T
        assert np.max(np.abs(hermitian_log(M) - expect)) < 1e-12

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(6, 6))
        M = B @ B.T
        r = hermitian_sqrt(M)
        assert np.max(np.abs(r @ r - M)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_log(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("rank", [6, 3])
    def test_sqrt_of_real_input_is_real(self, rank):
        # A real symmetric matrix keeps a real root, equal to the one the
        # complex path takes; rank 3 exercises the clamp.
        rng = np.random.default_rng(13)
        B = rng.normal(size=(6, rank))
        M = B @ B.T
        r = hermitian_sqrt(M)
        assert r.dtype == np.float64
        assert np.max(np.abs(r - hermitian_sqrt(M.astype(complex)))) < 1e-14
        assert check_hermitian(M).dtype == np.float64
        assert check_hermitian(np.eye(3, dtype=int)).dtype == np.float64

    def test_sqrt_of_complex_input(self):
        rng = np.random.default_rng(14)
        B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M = B @ B.conj().T
        r = hermitian_sqrt(M)
        assert r.dtype == np.complex128
        assert np.max(np.abs(r - r.conj().T)) == 0.0
        assert np.max(np.abs(r @ r - M)) < 1e-12


class TestFockOperator:
    """Hermitian operators from outside the package enter through
    `check_hermitian`."""

    def test_hermitian_enforced_exactly(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = m + m.conj().T + 1e-12 * rng.normal(size=(5, 5))
        op = check_hermitian(m)
        assert np.max(np.abs(op - op.conj().T)) == 0.0

    def test_blatantly_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            check_hermitian(np.zeros((2, 3)))


class TestDisplacedThermal:
    def test_thermal_diagonal(self):
        nbar = 0.7
        rho = displaced_thermal_matrix(0.0, nbar, 30)
        n = np.arange(31)
        assert np.allclose(np.diag(rho).real, nbar**n / (1 + nbar) ** (n + 1))

    def test_zero_nbar_is_coherent_projector(self):
        alpha = 0.4 + 0.3j
        rho = displaced_thermal_matrix(alpha, 0.0, 25)
        v = coherent_state_vector(alpha, 25)
        assert np.max(np.abs(rho - np.outer(v, v.conj()))) < 1e-13

    def test_trace_and_mean_photon(self):
        alpha, nbar, N = 0.8 - 0.2j, 0.4, 40
        rho = displaced_thermal_matrix(alpha, nbar, N)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        n_op = np.diag(np.arange(N + 1)).astype(complex)
        assert np.trace(rho @ n_op).real == pytest.approx(abs(alpha) ** 2 + nbar, abs=1e-9)

    def test_small_nbar_limit_continuous(self):
        alpha = 0.5 + 0.1j
        a = displaced_thermal_matrix(alpha, 1e-9, 12)
        b = displaced_thermal_matrix(alpha, 0.0, 12)
        assert np.max(np.abs(a - b)) < 1e-7
