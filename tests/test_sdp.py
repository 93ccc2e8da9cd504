import numpy as np
import pytest

from dmrate.sdp import independent_rows, solve_sdp


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def kkt_check(res, c_mat, ops, b, tol=1e-7):
    # Self-contained optimality certificate: primal/dual feasibility plus a
    # small complementarity gap sandwich b.y <= p* <= <C, X>.
    assert res.primal_residual < tol * (1 + np.abs(b).max())
    assert np.linalg.eigvalsh(res.x).min() > -tol
    s = c_mat - np.tensordot(res.y, ops, axes=1)
    assert np.linalg.eigvalsh(s).min() > -tol
    assert res.primal_obj - res.dual_obj > -tol
    assert res.gap < 1e-5 * (1 + abs(res.primal_obj))


class TestDiagonalProblems:
    def test_reduces_to_lp(self):
        # min c.x over x >= 0, sum x = 1 with diagonal matrices: picks min c.
        c = np.diag([3.0, 1.0, 2.0]).astype(complex)
        ops = np.array([np.eye(3, dtype=complex)])
        b = np.array([1.0])
        res = solve_sdp(c, ops, b)
        assert res.converged
        assert res.primal_obj == pytest.approx(1.0, abs=1e-7)
        x_diag = np.diag(res.x).real
        assert x_diag[1] == pytest.approx(1.0, abs=1e-6)

    def test_two_constraints(self):
        # min x11 + 4 x22 + 9 x33, tr = 1, x11 = 0.2
        c = np.diag([1.0, 4.0, 9.0]).astype(complex)
        e11 = np.zeros((3, 3), dtype=complex)
        e11[0, 0] = 1.0
        ops = np.array([np.eye(3, dtype=complex), e11])
        b = np.array([1.0, 0.2])
        res = solve_sdp(c, ops, b)
        assert res.converged
        assert res.primal_obj == pytest.approx(0.2 * 1 + 0.8 * 4, abs=1e-6)


class TestRandomProblems:
    def test_kkt_certificates(self):
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(4, 14))
            m = int(rng.integers(2, 2 * n))
            ops = np.stack([np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(m - 1)])
            # Feasible by construction: take expectation values of a state.
            chol = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x_feas = chol @ chol.conj().T
            x_feas /= np.trace(x_feas).real
            b = np.einsum("iab,ba->i", ops, x_feas).real
            c_mat = random_hermitian(rng, n)
            res = solve_sdp(c_mat, ops, b)
            assert res.converged, f"trial {trial} did not converge"
            kkt_check(res, c_mat, ops, b)

    def test_weak_duality_bound(self):
        rng = np.random.default_rng(7)
        n, m = 10, 6
        ops = np.stack([np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(m - 1)])
        chol = rng.normal(size=(n, n))
        x_feas = chol @ chol.T
        x_feas = x_feas / np.trace(x_feas)
        b = np.einsum("iab,ba->i", ops, x_feas.astype(complex)).real
        c_mat = random_hermitian(rng, n)
        res = solve_sdp(c_mat, ops, b)
        # Any feasible point is bounded below by the dual objective.
        assert float(np.einsum("ab,ba->", c_mat, x_feas.astype(complex)).real) >= res.dual_obj - 1e-7


class TestIndependentRows:
    def test_detects_redundancy(self):
        eye = np.eye(3, dtype=complex)
        e00 = np.zeros((3, 3), dtype=complex)
        e00[0, 0] = 1.0
        rest = eye - e00
        ops = np.stack([eye, e00, rest])
        kept = independent_rows(ops)
        assert kept == [0, 1]

    def test_keeps_all_independent(self):
        rng = np.random.default_rng(3)
        ops = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        assert independent_rows(ops) == list(range(5))

    def test_prefers_early_rows(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        ops = np.stack([a, 2 * a])
        assert independent_rows(ops) == [0]


class TestDegenerate:
    def test_redundant_constraints_need_reduction(self):
        # Duplicated rows make the Schur complement singular; the caller is
        # expected to reduce first.
        eye = np.eye(4, dtype=complex)
        ops = np.stack([eye, eye])
        b = np.array([1.0, 1.0])
        kept = independent_rows(ops)
        res = solve_sdp(np.diag([1.0, 2, 3, 4]).astype(complex), ops[kept], b[kept])
        assert res.converged
        assert res.primal_obj == pytest.approx(1.0, abs=1e-6)
