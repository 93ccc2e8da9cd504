import numpy as np
import pytest

from dmrate.detector import DetectorModel
from dmrate.entropy import graded_eig, objective_with_gradient
from dmrate.maps import build_postprocessing_maps
from dmrate.observables import region_operators
from support.maps import (
    apply_G,
    apply_G_adjoint,
    apply_Z,
    full_objective,
    hermitian_log,
    kraus_gram,
    reduce,
    reduced_objective_with_gradient,
    z_projector,
)

DET = DetectorModel.simple(0.719, 0.01)


def random_state(rng, d, full_rank=True):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    if full_rank:
        rho += 0.05 * np.eye(d)
    return rho / np.trace(rho).real


def random_stack(rng, maps):
    """The blocks of the group average of a random full-rank state."""
    return reduce(maps, random_state(rng, maps.dim_ab))


def random_direction(rng, maps):
    """A random traceless symmetric stack of unit Frobenius norm."""
    delta = rng.normal(size=maps.kraus_factor.shape)
    delta = delta + delta.swapaxes(1, 2)
    n_blocks, d = delta.shape[:2]
    delta -= (np.trace(delta, axis1=1, axis2=2).sum() / (n_blocks * d)) * np.eye(d)
    return delta / np.linalg.norm(delta)


def objective(rho, maps):
    return reduced_objective_with_gradient(rho, maps)[0]


def detector_maps(delta_a=0.0, N=5, det=DET):
    return build_postprocessing_maps(region_operators(det, delta_a, N))


class TestPostprocessingMaps:
    def test_kraus_gram_identity_without_postselection(self):
        maps = detector_maps(0.0)
        assert np.max(np.abs(kraus_gram(maps) - np.eye(maps.dim_ab))) < 1e-10

    def test_kraus_gram_contractive_with_postselection(self):
        maps = detector_maps(0.5)
        w = np.linalg.eigvalsh(kraus_gram(maps))
        assert w.max() <= 1 + 1e-10
        assert w.min() > 0

    def test_w_coords_consistency(self):
        # W_j^T W_j are the blocks of K+K, which commutes with the group.
        maps = detector_maps(0.3)
        w = maps.kraus_factor
        assert np.max(np.abs(maps.lift(w.transpose(0, 2, 1) @ w) - kraus_gram(maps))) < 1e-10
        assert np.array_equal(w, np.triu(w))


class TestApplyG:
    def test_trace_preserved_without_postselection(self):
        rng = np.random.default_rng(0)
        maps = detector_maps(0.0)
        rho = random_state(rng, maps.dim_ab)
        out = apply_G(rho, maps)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_register_marginal_of_vacuum_product(self):
        maps = detector_maps(0.0, N=6)
        rho_b = np.zeros((7, 7), dtype=complex)
        rho_b[0, 0] = 1.0
        rho_a = np.full((4, 4), 0.25, dtype=complex)
        rho = np.kron(rho_a, rho_b)
        out = apply_G(rho, maps)
        d = maps.dim_ab
        marg = [np.trace(out[z * d : (z + 1) * d, z * d : (z + 1) * d]).real for z in range(4)]
        assert marg == pytest.approx([0.25] * 4, abs=1e-10)

    def test_preserves_positivity(self):
        rng = np.random.default_rng(1)
        maps = detector_maps(0.4)
        for _ in range(5):
            rho = random_state(rng, maps.dim_ab)
            out = apply_G(rho, maps)
            assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_rejects_non_psd(self):
        maps = detector_maps(0.0)
        bad = -np.eye(maps.dim_ab, dtype=complex)
        with pytest.raises(ValueError):
            apply_G(bad, maps)

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(2)
        maps = detector_maps(0.2)
        rho = random_state(rng, maps.dim_ab)
        y = rng.normal(size=(4 * maps.dim_ab, 4 * maps.dim_ab))
        y = (y + y.T).astype(complex)
        lhs = np.trace(apply_G(rho, maps) @ y).real
        rhs = np.trace(rho @ apply_G_adjoint(y, maps)).real
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestApplyZ:
    def test_block_diagonal_fixed_point(self):
        rng = np.random.default_rng(3)
        maps = detector_maps(0.0)
        d = maps.dim_ab
        sigma = np.zeros((4 * d, 4 * d), dtype=complex)
        for z in range(4):
            blk = random_state(rng, d)
            sigma[z * d : (z + 1) * d, z * d : (z + 1) * d] = blk / 4
        out = apply_Z(sigma, maps)
        assert np.max(np.abs(out - sigma)) < 1e-14

    def test_trace_preserving_and_idempotent(self):
        rng = np.random.default_rng(4)
        maps = detector_maps(0.0)
        sigma = random_state(rng, 4 * maps.dim_ab)
        once = apply_Z(sigma, maps)
        assert np.trace(once).real == pytest.approx(np.trace(sigma).real, abs=1e-12)
        assert np.max(np.abs(apply_Z(once, maps) - once)) < 1e-14

    def test_projector_form(self):
        maps = detector_maps(0.0, N=3)
        p1 = z_projector(maps, 1)
        assert np.allclose(p1 @ p1, p1)
        total = sum(z_projector(maps, j) for j in range(4))
        assert np.allclose(total, np.eye(4 * maps.dim_ab))


class TestObjective:
    def test_zero_for_pinching_fixed_point(self):
        # Orthogonal projector "regions" make G(rho) block diagonal for a
        # state whose B part is supported on a single block, so the
        # objective vanishes.  The projectors are not rotation covariant, so
        # this is the full-space oracle's check of the definition.
        d = 8
        roots = []
        for z in range(4):
            p = np.zeros((d, d), dtype=complex)
            p[2 * z, 2 * z] = 1.0
            p[2 * z + 1, 2 * z + 1] = 1.0
            roots.append(p)
        rho_b = np.zeros((d, d), dtype=complex)
        rho_b[0, 0] = 0.6
        rho_b[1, 1] = 0.4
        rho_b[0, 1] = rho_b[1, 0] = 0.2
        rho = np.kron(np.full((4, 4), 0.25), rho_b)
        assert full_objective(rho, roots) == pytest.approx(0.0, abs=1e-7)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(5)
        maps = detector_maps(0.0)
        for _ in range(20):
            assert objective(random_stack(rng, maps), maps) >= -1e-9

    def test_dimension_bound(self):
        rng = np.random.default_rng(6)
        for delta_a in (0.0, 0.5):
            maps = detector_maps(delta_a)
            for _ in range(10):
                rho = random_stack(rng, maps)
                p_pass = np.trace(kraus_gram(maps) @ maps.lift(rho)).real
                assert objective(rho, maps) <= 2.0 * p_pass + 1e-9

    def test_matches_direct_register_space_formula(self):
        # Cross-check the reduced evaluation against literally forming
        # G(rho), Z(G(rho)) and taking clamped logs.
        rng = np.random.default_rng(7)
        maps = detector_maps(0.3, N=4)
        stack = random_stack(rng, maps)
        rho = maps.lift(stack)
        sigma = apply_G(rho, maps)
        tau = apply_Z(sigma, maps)
        w_sig = np.linalg.eigvalsh(sigma)
        w_sig = w_sig[w_sig > 1e-13]
        term1 = float(np.sum(w_sig * np.log(w_sig)))
        term2 = float(np.trace(sigma @ hermitian_log(tau)).real)
        ref = (term1 - term2) / np.log(2)
        assert objective(stack, maps) == pytest.approx(ref, abs=1e-7)


class TestGradient:
    def test_hermitian(self):
        # The gradient in sigma coordinates, which the solver reads, is
        # exactly symmetric.
        rng = np.random.default_rng(8)
        maps = detector_maps(0.2)
        w = maps.kraus_factor
        lam, u = np.linalg.eigh(w @ random_stack(rng, maps) @ w.swapaxes(1, 2))
        _, g = objective_with_gradient(np.log(lam), u, maps.pinch_factors @ np.linalg.inv(w), maps.pinch_weights)
        assert g.dtype == float
        assert np.max(np.abs(g - g.transpose(0, 2, 1))) == 0.0

    def test_finite_difference(self):
        # Central difference at t = 1e-5: the curvature term, which scales
        # like 1/lambda_min >= dim for any unit-trace state and would swamp a
        # one-sided difference at this step size regardless of gradient
        # correctness, cancels exactly.  Directions nearly orthogonal to the
        # gradient are resampled so the relative check stays meaningful.
        rng = np.random.default_rng(9)
        maps = detector_maps(0.0)
        t = 1e-5
        checked = 0
        while checked < 10:
            rho = 0.5 * random_stack(rng, maps) + 0.5 * reduce(maps, np.eye(maps.dim_ab)) / maps.dim_ab
            delta = random_direction(rng, maps)
            _, g = reduced_objective_with_gradient(rho, maps)
            overlap = float(np.vdot(delta, g))
            if abs(overlap) < 0.05 * np.linalg.norm(g):
                continue
            f_plus = objective(rho + t * delta, maps)
            f_minus = objective(rho - t * delta, maps)
            assert (f_plus - f_minus) / 2 == pytest.approx(t * overlap, rel=1e-4)
            checked += 1

    def test_finite_difference_detects_corruption(self):
        # The same check at the same tolerance rejects a gradient that is off
        # by one percent, so it genuinely pins the formula.
        rng = np.random.default_rng(12)
        maps = detector_maps(0.0)
        t = 1e-5
        rho = 0.5 * random_stack(rng, maps) + 0.5 * reduce(maps, np.eye(maps.dim_ab)) / maps.dim_ab
        delta = random_direction(rng, maps)
        _, g = reduced_objective_with_gradient(rho, maps)
        g_bad = g + 0.01 * np.linalg.norm(g) * delta
        overlap_bad = float(np.vdot(delta, g_bad))
        f_plus = objective(rho + t * delta, maps)
        f_minus = objective(rho - t * delta, maps)
        rel = abs((f_plus - f_minus) / 2 - t * overlap_bad) / abs(t * overlap_bad)
        assert rel > 1e-3


class TestGradedEig:
    @pytest.mark.parametrize("n", [4, 12, 44, 84])
    def test_recovers_a_graded_spectrum(self, n):
        # X = Q diag(s) Pi, with Q orthogonal, s running down to 1e-60 and
        # Pi a column permutation: the singular values of X are s, and x x^T
        # has the eigenvalues s^2 on the columns of Q.  numpy's SVD of X, or
        # of its R factor, gets those below eps s_max wrong past 25 columns.
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        s = np.logspace(0.0, -60.0, n)
        x = (q * s)[:, rng.permutation(n)]
        log_eig, v = graded_eig(x)
        assert np.max(np.abs(np.exp(0.5 * log_eig) / s - 1.0)) <= 1e-13
        assert np.max(np.abs(np.abs(np.sum(v * q, axis=0)) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [5, 30])
    def test_stacks(self, n):
        # A stack is factored matrix by matrix, to rounding: each matrix's
        # log-eigenvalues agree with its own factorization's, and its
        # eigenpairs give back x x^T.
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n, n)) * np.logspace(0.0, -30.0, n)
        log_eig, v = graded_eig(x)
        for k in range(3):
            one_eig, one_v = graded_eig(x[k])
            assert np.max(np.abs(np.sort(log_eig[k]) - np.sort(one_eig))) <= 1e-12
            p = x[k] @ x[k].T
            assert np.max(np.abs(v[k] * np.exp(log_eig[k]) @ v[k].T - p)) <= 1e-13 * np.max(np.abs(p))
