import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmrate import sdp
from dmrate.sdp import independent_rows, solve_sdp
from support.sdp import greedy_rows


def random_symmetric(rng, *shape):
    m = rng.normal(size=shape)
    return 0.5 * (m + m.swapaxes(-1, -2))


def random_state(rng, n_blocks, n):
    # A positive definite stack of total trace 1.
    chol = rng.normal(size=(n_blocks, n, n))
    x = chol @ chol.swapaxes(1, 2)
    return x / np.trace(x, axis1=1, axis2=2).sum()


def kkt_check(res, c_mat, ops, b, tol=1e-7):
    # Self-contained optimality certificate: primal/dual feasibility plus a
    # small complementarity gap sandwich b.y <= p* <= <C, X>.
    assert res.x.shape == res.s.shape == c_mat.shape
    assert res.primal_residual < tol * (1 + np.abs(b).max())
    assert np.linalg.eigvalsh(res.x).min() > -tol
    s = c_mat - np.tensordot(res.y, ops, axes=1)
    assert np.linalg.eigvalsh(s).min() > -tol
    assert res.primal_obj - res.dual_obj > -tol
    assert res.gap < 1e-5 * (1 + abs(res.primal_obj))


class TestDiagonalProblems:
    def test_reduces_to_lp(self):
        # min c.x over x >= 0, sum x = 1 with diagonal matrices: picks min c.
        c = np.diag([3.0, 1.0, 2.0])[None]
        ops = np.eye(3)[None, None]
        b = np.array([1.0])
        res = solve_sdp(c, ops, b)
        assert res.converged
        assert res.primal_obj == pytest.approx(1.0, abs=1e-7)
        x_diag = np.diag(res.x[0])
        assert x_diag[1] == pytest.approx(1.0, abs=1e-6)

    def test_two_constraints(self):
        # min x11 + 4 x22 + 9 x33, tr = 1, x11 = 0.2
        c = np.diag([1.0, 4.0, 9.0])[None]
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        ops = np.array([np.eye(3), e11])[:, None]
        b = np.array([1.0, 0.2])
        res = solve_sdp(c, ops, b)
        assert res.converged
        assert res.primal_obj == pytest.approx(0.2 * 1 + 0.8 * 4, abs=1e-6)

    def test_blocks_share_the_trace(self):
        # Two blocks, one trace row over both: the weight goes to the
        # smallest diagonal entry of either block.
        c = np.array([np.diag([3.0, 2.0]), np.diag([5.0, 0.5])])
        ops = np.eye(2)[None, None].repeat(2, axis=1)
        res = solve_sdp(c, ops, np.array([1.0]))
        assert res.converged
        assert res.primal_obj == pytest.approx(0.5, abs=1e-7)
        assert res.x[1, 1, 1] == pytest.approx(1.0, abs=1e-6)


def check_random_problems(n_blocks):
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(4, 14))
        m = int(rng.integers(2, 2 * n))
        eye = np.broadcast_to(np.eye(n), (n_blocks, n, n))
        ops = np.concatenate([eye[None], random_symmetric(rng, m - 1, n_blocks, n, n)])
        # Feasible by construction: take expectation values of a state.
        x_feas = random_state(rng, n_blocks, n)
        b = np.einsum("ikab,kba->i", ops, x_feas)
        c_mat = random_symmetric(rng, n_blocks, n, n)
        res = solve_sdp(c_mat, ops, b)
        assert res.converged, f"trial {trial} did not converge"
        kkt_check(res, c_mat, ops, b)


class TestRandomProblems:
    def test_kkt_certificates(self):
        check_random_problems(1)

    def test_kkt_certificates_several_blocks(self):
        # The key-rate solver's shape: K blocks joined by the trace row.
        check_random_problems(3)

    def test_weak_duality_bound(self):
        rng = np.random.default_rng(7)
        n, m = 10, 6
        ops = np.concatenate([np.eye(n)[None, None], random_symmetric(rng, m - 1, 1, n, n)])
        x_feas = random_state(rng, 1, n)
        b = np.einsum("ikab,kba->i", ops, x_feas)
        c_mat = random_symmetric(rng, 1, n, n)
        res = solve_sdp(c_mat, ops, b)
        # Any feasible point is bounded below by the dual objective.
        assert float(np.einsum("kab,kba->", c_mat, x_feas)) >= res.dual_obj - 1e-7


@st.composite
def row_stacks(draw):
    # Rows of small integers, exact integer combinations of the rows before,
    # copies scaled by powers of two, and zero rows, interleaved, with more
    # rows than entries allowed.  Every row is exactly dependent on the rows
    # before it or at least 6e-6 of its norm away from their span.
    n = draw(st.integers(1, 6))
    rows: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "combination", "copy", "zero"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            rows.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float))
        elif kind == "combination":
            coef = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append(np.array(coef, dtype=float) @ np.array(rows))
        elif kind == "copy":
            scale = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-20, 20))
            rows.append(scale * rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(np.zeros(n))
    return np.array(rows)


class TestIndependentRows:
    # A plain QR of e1, 2 e1 (or 0), e2, e3 spends a direction on the second
    # row and keeps only the first.
    @example(ops=np.array([[1.0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example(ops=np.array([[1.0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops=row_stacks())
    def test_matches_gram_schmidt(self, ops):
        assert independent_rows(ops) == greedy_rows(ops)[0]

    def test_detects_redundancy(self):
        eye = np.eye(3)
        e00 = np.zeros((3, 3))
        e00[0, 0] = 1.0
        rest = eye - e00
        ops = np.stack([eye, e00, rest])[:, None]
        kept = independent_rows(ops)
        assert kept == [0, 1]

    def test_keeps_all_independent(self):
        rng = np.random.default_rng(3)
        ops = random_symmetric(rng, 5, 2, 4, 4)
        assert independent_rows(ops) == list(range(5))

    def test_prefers_early_rows(self):
        a = np.diag([1.0, 0.0])
        ops = np.stack([a, 2 * a])[:, None]
        assert independent_rows(ops) == [0]


class TestDegenerate:
    def test_redundant_constraints_need_reduction(self):
        # Duplicated rows make the Schur complement singular; the caller is
        # expected to reduce first.
        eye = np.eye(4)
        ops = np.stack([eye, eye])[:, None]
        b = np.array([1.0, 1.0])
        kept = independent_rows(ops)
        res = solve_sdp(np.diag([1.0, 2, 3, 4])[None], ops[kept], b[kept])
        assert res.converged
        assert res.primal_obj == pytest.approx(1.0, abs=1e-6)


class TestStepLength:
    # _max_step on the whitening of the stack [X; S] is the smaller of the two
    # cones' steps, infinity included.
    @pytest.mark.parametrize("case", ["x-limits", "s-limits", "s-unbounded", "both-unbounded"])
    def test_stacked_step_is_the_smaller(self, case):
        rng = np.random.default_rng(11)
        x, s = random_state(rng, 3, 4), random_state(rng, 3, 4)
        dx, ds = random_symmetric(rng, 3, 4, 4), random_symmetric(rng, 3, 4, 4)
        if case == "x-limits":
            ds *= 1e-3
        elif case == "s-limits":
            dx *= 1e-3
        else:
            ds = ds @ ds
            if case == "both-unbounded":
                dx = dx @ dx
        step_x = sdp._max_step(np.linalg.inv(np.linalg.cholesky(x)), dx)
        step_s = sdp._max_step(np.linalg.inv(np.linalg.cholesky(s)), ds)
        expected = {
            "x-limits": step_x < step_s,
            "s-limits": step_s < step_x,
            "s-unbounded": step_s == np.inf > step_x,
            "both-unbounded": step_x == step_s == np.inf,
        }
        assert expected[case]
        stacked = np.linalg.inv(np.linalg.cholesky(np.concatenate([x, s])))
        assert sdp._max_step(stacked, np.concatenate([dx, ds])) == min(step_x, step_s)

    def test_one_factorization_and_two_step_tests_per_iteration(self, monkeypatch):
        calls = {"cholesky": 0, "max_step": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(sdp, "_max_step", counted("max_step", sdp._max_step))
        rng = np.random.default_rng(3)
        ops = np.concatenate([np.broadcast_to(np.eye(4), (2, 4, 4))[None], random_symmetric(rng, 3, 2, 4, 4)])
        b = np.einsum("ikab,kba->i", ops, random_state(rng, 2, 4))
        res = solve_sdp(random_symmetric(rng, 2, 4, 4), ops, b)
        # The last iteration only finds the iterate optimal; every other steps.
        assert res.converged
        assert calls == {"cholesky": res.iterations - 1, "max_step": 2 * (res.iterations - 1)}


class TestBudget:
    # Every solve has the fixed budget sdp.MAX_ITERS.
    def test_stops_at_the_budget(self, monkeypatch):
        c = np.diag([1.0, 4.0, 9.0])[None]
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        ops = np.array([np.eye(3), e11])[:, None]
        monkeypatch.setattr(sdp, "MAX_ITERS", 3)
        res = solve_sdp(c, ops, np.array([1.0, 0.2]))
        assert res.status == "max_iters"
        assert res.iterations == 3

    def test_infeasible_rows_end_within_the_budget(self):
        # Trace 1 and X_11 = 2 cannot both hold for X >= 0.
        ops = np.array([np.eye(2), np.diag([1.0, 0.0])])[:, None]
        res = solve_sdp(np.diag([1.0, 2.0])[None], ops, np.array([1.0, 2.0]))
        assert not res.converged
        assert res.iterations <= sdp.MAX_ITERS


def test_x_exactly_symmetric(monkeypatch):
    # The solver uses x as it comes back, with no symmetrization: every
    # iterate, the returned best-merit one included, must be exactly
    # symmetric.
    rng = np.random.default_rng(5)
    n_blocks, n = 3, 6
    eye = np.broadcast_to(np.eye(n), (n_blocks, n, n))
    ops = np.concatenate([eye[None], random_symmetric(rng, 4, n_blocks, n, n)])
    b = np.einsum("ikab,kba->i", ops, random_state(rng, n_blocks, n))
    c_mat = random_symmetric(rng, n_blocks, n, n)
    infeasible = np.array([np.eye(2), np.diag([1.0, 0.0])])[:, None]
    results = [solve_sdp(c_mat, ops, b), solve_sdp(np.diag([1.0, 2.0])[None], infeasible, np.array([1.0, 2.0]))]
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    results.append(solve_sdp(c_mat, ops, b))
    assert [r.converged for r in results] == [True, False, False]
    for res in results:
        assert np.array_equal(res.x, res.x.swapaxes(-1, -2))


def test_complex_input_rejected():
    c = np.eye(2)[None]
    ops = np.eye(2)[None, None]
    for c_in, ops_in in ((c.astype(complex), ops), (c, ops.astype(complex))):
        with pytest.raises(TypeError):
            solve_sdp(c_in, ops_in, np.array([1.0]))
    with pytest.raises(TypeError):
        independent_rows(ops.astype(complex))
