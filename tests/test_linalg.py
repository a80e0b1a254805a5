import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdr.linalg import (EigenPairs, IterationLimitError, RankDeficientError,
                        fix_signs, orthonormalize, stiefel_step, sym_eig_topk)


class TestSymEigTopk:
    def test_diagonal_matrix(self):
        pairs = sym_eig_topk(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(pairs.values, [3.0])
        np.testing.assert_allclose(pairs.vectors[:, 0], [1.0, 0.0])

    def test_closed_form_2x2(self):
        pairs = sym_eig_topk(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        np.testing.assert_allclose(pairs.values, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(pairs.vectors[:, 0], [s, s], atol=1e-12)
        # tie on |entry| resolves to the lowest index, which must be positive
        np.testing.assert_allclose(pairs.vectors[:, 1], [s, -s], atol=1e-12)

    def test_full_decomposition_reconstructs(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 5))
        s = (a + a.T) / 2.0
        pairs = sym_eig_topk(s, 5)
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        assert np.linalg.norm(recon - s) <= 1e-8

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_order_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 21))
        k = int(rng.integers(1, p + 1))
        a = rng.standard_normal((p, p))
        s = (a + a.T) / 2.0
        pairs = sym_eig_topk(s, k)
        assert np.all(np.diff(pairs.values) <= 0)
        assert np.linalg.norm(pairs.vectors.T @ pairs.vectors - np.eye(k)) <= 1e-8
        for lam, v in zip(pairs.values, pairs.vectors.T):
            assert np.linalg.norm(s @ v - lam * v) <= 1e-7 * max(1.0, abs(lam))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig_topk(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sym_eig_topk(np.eye(3), 4)
        with pytest.raises(ValueError):
            sym_eig_topk(np.eye(3), 0)

    def test_rejects_nonfinite(self):
        s = np.eye(2)
        s[0, 1] = s[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sym_eig_topk(s, 1)

    def test_iteration_limit_error_carries_count(self):
        err = IterationLimitError("did not converge", iterations=30)
        assert err.iterations == 30


class TestSignConvention:
    def test_idempotent(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, 4))
        once = fix_signs(v)
        np.testing.assert_array_equal(fix_signs(once), once)

    def test_largest_entry_positive(self):
        v = np.array([[0.1], [-0.9], [0.3]])
        fixed = fix_signs(v)
        np.testing.assert_allclose(fixed[:, 0], [-0.1, 0.9, -0.3])


class TestOrthonormalize:
    def test_identity_columns_unchanged(self):
        m = np.eye(4)[:, :2]
        np.testing.assert_array_equal(orthonormalize(m), m)

    def test_scaling_removed(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(orthonormalize(m),
                                   [[1, 0], [0, 1], [0, 0]], atol=1e-15)

    def test_projector_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 3))
        q = orthonormalize(m)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10
        assert np.linalg.norm(q @ (q.T @ m) - m) <= 1e-8

    def test_rank_deficient_names_column(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # col1 = 2*col0
        with pytest.raises(RankDeficientError) as exc:
            orthonormalize(m)
        assert exc.value.column == 1


class TestStiefelStep:
    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(5)
        u = orthonormalize(rng.standard_normal((5, 2)))
        np.testing.assert_allclose(stiefel_step(u, np.zeros_like(u), 0.5), u,
                                   atol=1e-12)

    def test_normal_space_gradient_fixed_point(self):
        rng = np.random.default_rng(6)
        u = orthonormalize(rng.standard_normal((5, 2)))
        np.testing.assert_allclose(stiefel_step(u, u, 3.0), u, atol=1e-12)

    def test_ascends_quadratic_objective(self):
        # finite-difference line check: stepping against the negated gradient
        # of trace(U^T A U) increases the objective for a small step
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        a = a @ a.T
        u = orthonormalize(rng.standard_normal((6, 3)))
        up = stiefel_step(u, -2.0 * a @ u, 1e-4)
        assert np.trace(up.T @ a @ up) > np.trace(u.T @ a @ u)

    def test_rejects_nonpositive_step(self):
        u = np.eye(3)[:, :1]
        with pytest.raises(ValueError, match="positive"):
            stiefel_step(u, u, 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            stiefel_step(np.eye(3)[:, :1], np.eye(3)[:, :2], 1.0)

    @settings(deadline=None, max_examples=40)
    @given(scale=st.floats(min_value=-8, max_value=9), seed=st.integers(0, 999))
    def test_output_on_manifold_for_any_gradient_magnitude(self, scale, seed):
        rng = np.random.default_rng(seed)
        u = orthonormalize(rng.standard_normal((5, 2)))
        g = rng.standard_normal((5, 2)) * 10.0 ** scale
        up = stiefel_step(u, g, 1.0)
        assert np.linalg.norm(up.T @ up - np.eye(2)) <= 1e-8

    @settings(deadline=None, max_examples=40)
    @given(scales=st.lists(st.floats(min_value=-8, max_value=9), min_size=1,
                           max_size=5),
           seed=st.integers(0, 999))
    def test_stack_on_manifold_for_any_gradient_magnitude(self, scales, seed):
        rng = np.random.default_rng(seed)
        g = len(scales)
        u = orthonormalize(rng.standard_normal((g, 5, 2)))
        grad = rng.standard_normal((g, 5, 2)) * 10.0 ** np.array(scales)[:, None, None]
        steps = 10.0 ** rng.uniform(-3.0, 1.0, g)
        up = stiefel_step(u, grad, steps)
        assert up.shape == (g, 5, 2)
        gram = np.swapaxes(up, -1, -2) @ up
        assert np.abs(gram - np.eye(2)).max() <= 1e-8


class TestStackedKernels:
    def _stack(self, seed, g=4, p=12, k=3):
        rng = np.random.default_rng(seed)
        u = np.stack([orthonormalize(rng.standard_normal((p, k)))
                      for _ in range(g)])
        return u, rng.standard_normal((g, p, k)), 10.0 ** rng.uniform(-3, 1, g)

    @pytest.mark.parametrize("seed", range(5))
    def test_stiefel_slices_match_2d_calls(self, seed):
        u, grad, steps = self._stack(seed)
        stacked = stiefel_step(u, grad, steps)
        for i in range(len(steps)):
            np.testing.assert_allclose(stacked[i],
                                       stiefel_step(u[i], grad[i], steps[i]),
                                       rtol=0, atol=1e-14)

    def test_scalar_step_applies_to_every_slice(self):
        u, grad, _ = self._stack(10)
        stacked = stiefel_step(u, grad, 0.3)
        for i in range(len(u)):
            np.testing.assert_allclose(stacked[i], stiefel_step(u[i], grad[i], 0.3),
                                       rtol=0, atol=1e-14)

    def test_orthonormalize_slices_match_2d_calls(self):
        m = np.random.default_rng(11).standard_normal((3, 7, 4))
        stacked = orthonormalize(m)
        for i in range(3):
            np.testing.assert_allclose(stacked[i], orthonormalize(m[i]),
                                       rtol=0, atol=1e-14)

    def test_one_rank_deficient_slice_raises(self):
        m = np.random.default_rng(12).standard_normal((3, 5, 3))
        m[1, :, 2] = m[1, :, 0] - 2.0 * m[1, :, 1]
        with pytest.raises(RankDeficientError) as exc:
            orthonormalize(m)
        assert exc.value.column == 2

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_nonpositive_step_in_any_slice_raises(self, bad):
        u, grad, steps = self._stack(13)
        steps[2] = bad
        with pytest.raises(ValueError, match="positive"):
            stiefel_step(u, grad, steps)

    def test_step_count_mismatch_raises(self):
        u, grad, steps = self._stack(14)
        with pytest.raises(ValueError, match="mismatch"):
            stiefel_step(u, grad, steps[:-1])

    def test_stack_shape_mismatch_raises(self):
        u, grad, steps = self._stack(15)
        with pytest.raises(ValueError, match="mismatch"):
            stiefel_step(u, grad[:-1], steps)


def test_eigenpairs_is_plain_record():
    pairs = EigenPairs(values=np.array([1.0]), vectors=np.array([[1.0]]))
    assert pairs.values[0] == 1.0
