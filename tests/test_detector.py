import math

import numpy as np
import pytest

from dmrate.detector import DetectorModel, povm_weighted_sum
from dmrate.fock import displaced_thermal_matrix
from support.detector import povm_element, povm_element_kernel, povm_element_simple
from support.wigner import povm_oracle_entry

SIMPLE = DetectorModel.simple(0.719, 0.01)
GENERAL = DetectorModel(0.719, 0.6, 0.01, 0.05)
GENERAL_SWAPPED = DetectorModel(0.6, 0.719, 0.05, 0.01)
# Distinct arms with lambda_1 == lambda_2 == 1: the degenerate branch.
DEGENERATE = DetectorModel(0.5, 1.0, 0.0, 1.0)


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(0.0, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            DetectorModel(0.5, 1.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            DetectorModel(0.5, 0.5, -0.01, 0.0)

    def test_simple_case_flag(self):
        assert SIMPLE.simple_case()
        assert not GENERAL.simple_case()

    def test_nbar_d(self):
        assert SIMPLE.nbar_d == pytest.approx((1 - 0.719 + 0.01) / 0.719)

    def test_ideal_flag(self):
        assert DetectorModel.ideal().is_ideal()
        assert not SIMPLE.is_ideal()


class TestSimplePovm:
    def test_ideal_limit_entries(self):
        y = 0.5 - 0.7j
        g = povm_element(y, DetectorModel.ideal(), 8)
        for m in range(9):
            for n in range(9):
                expect = np.exp(-abs(y) ** 2) * y**m * np.conj(y) ** n / np.pi
                expect /= np.sqrt(math.factorial(m) * math.factorial(n))
                assert g[m, n] == pytest.approx(expect, abs=1e-12)

    def test_vacuum_diagonal_at_origin(self):
        g = povm_element_simple(0.0, SIMPLE, 5)
        nbar = SIMPLE.nbar_d
        assert g[0, 0] == pytest.approx(1 / (0.719 * np.pi * (1 + nbar)))

    def test_rejects_general_detector(self):
        with pytest.raises(ValueError):
            povm_element_simple(0.1, GENERAL, 5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        g = povm_element_simple(0.45 + 0.3j, SIMPLE, 8)
        for _ in range(6):
            m, n = rng.integers(0, 9, size=2)
            ref = povm_oracle_entry(int(m), int(n), 0.45 + 0.3j, SIMPLE)
            assert g[m, n] == pytest.approx(ref, abs=1e-8)

    def test_hermitian(self):
        g = povm_element_simple(0.3 + 0.8j, SIMPLE, 10)
        assert np.max(np.abs(g - g.conj().T)) == 0.0


class TestGeneralPovm:
    def test_reduces_to_simple(self):
        y = 0.35 - 0.55j
        gs = povm_element_simple(y, SIMPLE, 9)
        gg = povm_element_kernel(y, SIMPLE, 9)
        assert np.max(np.abs(gs - gg)) < 1e-8

    def test_near_degenerate_continuity(self):
        y = 0.2 + 0.4j
        det_eps = DetectorModel(0.719, 0.719, 0.01, 0.01 + 1e-6)
        gg = povm_element_kernel(y, det_eps, 8)
        gs = povm_element_simple(y, SIMPLE, 8)
        assert np.max(np.abs(gg - gs)) < 1e-4

    def test_matches_oracle(self):
        y = 0.4 + 0.25j
        for det in (GENERAL, GENERAL_SWAPPED):
            g = povm_element_kernel(y, det, 7)
            for (m, n) in [(0, 0), (0, 1), (1, 2), (2, 2), (0, 3), (3, 5)]:
                ref = povm_oracle_entry(m, n, y, det)
                assert g[m, n] == pytest.approx(ref, abs=1e-7)

    def test_hermitian(self):
        g = povm_element_kernel(0.3 - 0.2j, GENERAL, 8)
        assert np.max(np.abs(g - g.conj().T)) == 0.0


class TestWeightedSum:
    YS = np.array([0.4 + 0.25j, -0.7 + 0.1j, 0.2 - 0.9j])
    # Entries checked at each y; together they cover diagonal, near and far
    # off-diagonal entries.
    ENTRIES = ([(0, 0), (1, 2)], [(0, 3), (2, 2)], [(3, 5), (1, 4)])

    def test_batched_call_matches_oracle(self):
        # One-hot weights over all the nodes pick out G_{y_i}.
        for det in (GENERAL, GENERAL_SWAPPED):
            for i, (y, w) in enumerate(zip(self.YS, np.eye(len(self.YS)))):
                g = povm_weighted_sum(self.YS, w, det, 6)
                for m, n in self.ENTRIES[i]:
                    assert g[m, n] == pytest.approx(povm_oracle_entry(m, n, y, det), abs=1e-7)

    def test_weighted_sum_of_single_elements(self):
        c = np.array([[0.3, -1.2, 2.0], [1.0, 0.0, 0.5]])
        singles = np.array([povm_element_kernel(y, GENERAL, 8) for y in self.YS])
        for w in c:
            expect = np.einsum("i,imn->mn", w, singles)
            assert np.max(np.abs(povm_weighted_sum(self.YS, w, GENERAL, 8) - expect)) < 1e-13

    def test_degenerate_branch(self):
        assert not DEGENERATE.simple_case()
        lam1, lam2 = DEGENERATE.lambdas()
        assert lam1 == lam2
        g = [povm_weighted_sum(self.YS, w, DEGENERATE, 8) for w in np.eye(len(self.YS))]
        scale = np.sqrt(DEGENERATE.eta1 * DEGENERATE.eta2) * np.pi
        # Equal lambdas leave no squeezing: a displaced thermal state at
        # alpha_het with occupation nbar_het = (sqrt((1+2 lam1)(1+2 lam2)) - 1)/2.
        nbar_het = (np.sqrt((1 + 2 * lam1) * (1 + 2 * lam2)) - 1) / 2
        for i, y in enumerate(self.YS):
            alpha_het = y.real / np.sqrt(DEGENERATE.eta1) + 1j * y.imag / np.sqrt(DEGENERATE.eta2)
            expect = displaced_thermal_matrix(alpha_het, nbar_het, 8) / scale
            assert np.max(np.abs(g[i] - expect)) < 1e-13
        y = self.YS[1]
        assert g[1][1, 2] == pytest.approx(povm_oracle_entry(1, 2, y, DEGENERATE), abs=1e-7)


class TestOracle:
    def test_ideal_origin(self):
        got = povm_oracle_entry(0, 0, 0.0, DetectorModel.ideal())
        assert got.real == pytest.approx(1 / np.pi, abs=1e-9)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_simple_closed_form(self):
        y, det = 0.6 + 0.2j, SIMPLE
        nbar, eta = det.nbar_d, det.eta_d
        expect = np.exp(-abs(y) ** 2 / (eta * (1 + nbar))) / (eta * np.pi * (1 + nbar))
        assert povm_oracle_entry(0, 0, y, det).real == pytest.approx(expect, abs=1e-9)

    def test_conjugate_pairs(self):
        y = 0.3 + 0.5j
        a = povm_oracle_entry(1, 3, y, SIMPLE)
        b = povm_oracle_entry(3, 1, y, SIMPLE)
        assert a == pytest.approx(np.conj(b), abs=1e-10)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            povm_oracle_entry(25, 0, 0.1, SIMPLE)
