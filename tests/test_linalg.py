import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdr.linalg import (KRYLOV_CAP, EigenPairs, RankDeficientError,
                        fix_signs, krylov_start, orthonormalize, stiefel_step,
                        sym_eig_top1, sym_eig_topk)


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


def _psd(rng, p, eigenvalues):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q; also returns Q."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    s = (q * eigenvalues) @ q.T
    return (s + s.T) / 2.0, q


class TestSymEigTop1:
    """The stacked top-1 kernel against ``sym_eig_topk(slice, 1)``."""

    def _check_slice(self, s, value, vector):
        ref = sym_eig_topk(s, 1)
        norm = np.linalg.norm(s)
        assert abs(value - ref.values[0]) <= 1e-11 * norm
        assert np.linalg.norm(s @ vector - value * vector) <= 1e-10 * norm
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        assert vector[np.argmax(np.abs(vector))] > 0
        vals = np.linalg.eigvalsh(s)
        if len(vals) > 1 and vals[-1] - vals[-2] >= 1e-3 * norm:
            np.testing.assert_allclose(vector, ref.vectors[:, 0], rtol=0, atol=1e-8)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), b=st.integers(1, 4),
           p=st.sampled_from([3, KRYLOV_CAP, KRYLOV_CAP + 1, 64, 90]),
           decay=st.floats(0.0, 3.0))
    def test_matches_eigh_on_random_psd_stacks(self, seed, b, p, decay):
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(b):
            rank = int(rng.integers(1, p + 1))
            lam = np.zeros(p)
            lam[:rank] = np.sort(10.0 ** (-decay * rng.uniform(0, 1, rank)))[::-1]
            stack.append(_psd(rng, p, lam)[0])
        stack = np.array(stack)
        values, vectors = sym_eig_top1(stack)
        assert values.shape == (b,) and vectors.shape == (b, p)
        assert vectors.flags.c_contiguous  # PLS and PV multiply by its rows
        for s, value, vector in zip(stack, values, vectors):
            self._check_slice(s, value, vector)
        # the same matrices' leading blocks
        sizes = np.sort(rng.integers(1, p + 1, 5))
        values, vectors = sym_eig_top1(stack[0], sizes=sizes)
        assert vectors.flags.c_contiguous
        for m, value, vector in zip(sizes, values, vectors):
            assert not vector[m:].any()
            self._check_slice(stack[0][:m, :m], value, vector[:m])

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-8, 1e-4])
    def test_clustered_and_repeated_top_eigenvalues(self, gap):
        rng = np.random.default_rng(21)
        p = 60
        lam = np.concatenate([[1.0, 1.0 - gap], 0.9 * 0.9 ** np.arange(p - 2)])
        s, q = _psd(rng, p, lam)
        values, vectors = sym_eig_top1(s[None])
        self._check_slice(s, values[0], vectors[0])
        # the vector lies in the top two-dimensional eigenspace
        outside = vectors[0] - q[:, :2] @ (q[:, :2].T @ vectors[0])
        assert np.linalg.norm(outside) <= 1e-8

    def test_zero_and_rank1_slices(self):
        rng = np.random.default_rng(22)
        p = 50
        a = rng.standard_normal(p)
        generic = _psd(rng, p, 0.8 ** np.arange(p))[0]
        stack = np.array([np.zeros((p, p)), np.outer(a, a), generic])
        values, vectors = sym_eig_top1(stack)
        zero = sym_eig_topk(stack[0], 1)
        assert values[0] == zero.values[0]
        np.testing.assert_array_equal(vectors[0], zero.vectors[:, 0])
        np.testing.assert_allclose(values[1], a @ a, rtol=1e-12)
        unit = fix_signs((a / np.linalg.norm(a))[:, None])[:, 0]
        np.testing.assert_allclose(vectors[1], unit, rtol=0, atol=1e-12)
        self._check_slice(stack[2], values[2], vectors[2])

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(23)
        p = 70
        s = _psd(rng, p, 0.85 ** np.arange(p))[0]
        values, vectors = sym_eig_top1(np.array([s, s * scale]))
        np.testing.assert_allclose(values[1], values[0] * scale, rtol=1e-11)
        np.testing.assert_allclose(vectors[1], vectors[0], rtol=0, atol=1e-9)
        self._check_slice(s * scale, values[1], vectors[1])

    def test_start_orthogonal_to_top_eigenvector_falls_back(self):
        # the start is an eigenvector of eigenvalue 2: Lanczos stops at once
        # with theta = 2, and only the Cholesky certificate can see the
        # eigenvalue 10 above it
        p = 50
        start = krylov_start(p)
        g = np.random.default_rng(24).standard_normal(p)
        top = g - (g @ start) / (start @ start) * start
        top /= np.linalg.norm(top)
        assert abs(top @ start) <= 1e-14
        s = 10.0 * np.outer(top, top) + 2.0 * (np.eye(p) - np.outer(top, top))
        s = (s + s.T) / 2.0
        values, vectors = sym_eig_top1(s[None])
        ref = sym_eig_topk(s, 1)
        assert values[0] == ref.values[0]
        np.testing.assert_array_equal(vectors[0], ref.vectors[:, 0])
        np.testing.assert_allclose(abs(vectors[0] @ top), 1.0, rtol=1e-12)

    def test_small_slices_take_the_dense_path(self):
        rng = np.random.default_rng(25)
        stack = np.array([_psd(rng, KRYLOV_CAP, 0.9 ** np.arange(KRYLOV_CAP))[0]
                          for _ in range(3)])
        values, vectors = sym_eig_top1(stack)
        for s, value, vector in zip(stack, values, vectors):
            ref = sym_eig_topk(s, 1)
            assert value == ref.values[0]
            np.testing.assert_array_equal(vector, ref.vectors[:, 0])
        values, vectors = sym_eig_top1(stack[0], sizes=[1, 7, KRYLOV_CAP])
        for m, value, vector in zip([1, 7, KRYLOV_CAP], values, vectors):
            ref = sym_eig_topk(stack[0][:m, :m], 1)
            assert value == ref.values[0]
            np.testing.assert_array_equal(vector[:m], ref.vectors[:, 0])

    def test_large_slices_skip_the_full_eigh(self, monkeypatch):
        rng = np.random.default_rng(26)
        p = 80
        stack = np.array([_psd(rng, p, 0.85 ** np.arange(p))[0] for _ in range(3)])
        full = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            if a.ndim == 2:
                full.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        values, vectors = sym_eig_top1(stack)
        values_b, vectors_b = sym_eig_top1(stack[0], sizes=[KRYLOV_CAP + 1, p])
        assert full == []
        monkeypatch.undo()
        for s, value, vector in zip(stack, values, vectors):
            self._check_slice(s, value, vector)
        np.testing.assert_allclose(vectors_b[1], vectors[0], rtol=0, atol=1e-10)

    def test_leading_blocks_equal_their_own_stacks(self):
        rng = np.random.default_rng(27)
        p = 70
        s = _psd(rng, p, 0.9 ** np.arange(p))[0]
        sizes = [1, KRYLOV_CAP - 1, KRYLOV_CAP, KRYLOV_CAP + 1, 55, p]
        values, vectors = sym_eig_top1(s, sizes=sizes)
        assert vectors.shape == (len(sizes), p)
        for m, value, vector in zip(sizes, values, vectors):
            one_value, one_vector = sym_eig_top1(s[None, :m, :m])
            np.testing.assert_allclose(value, one_value[0], rtol=1e-13)
            np.testing.assert_allclose(vector[:m], one_vector[0], rtol=0, atol=1e-12)
            assert not vector[m:].any()

    def test_empty_stack(self):
        values, vectors = sym_eig_top1(np.zeros((0, 4, 4)))
        assert values.shape == (0,) and vectors.shape == (0, 4)

    def test_nonfinite_slice_raises_sym_eig_topk_text(self):
        stack = np.array([np.eye(3)] * 2)
        stack[1, 0, 1] = stack[1, 1, 0] = np.nan
        with pytest.raises(ValueError) as ref:
            sym_eig_topk(stack[1], 1)
        with pytest.raises(ValueError) as exc:
            sym_eig_top1(stack)
        assert str(exc.value) == str(ref.value) == "matrix contains non-finite entries"
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            sym_eig_top1(stack[1], sizes=[1, 2])

    def test_asymmetric_slice_raises_sym_eig_topk_text(self):
        stack = np.array([np.eye(3)] * 2)
        stack[1, 0, 2] = 0.5
        with pytest.raises(ValueError) as ref:
            sym_eig_topk(stack[1], 1)
        with pytest.raises(ValueError) as exc:
            sym_eig_top1(stack)
        assert str(exc.value) == str(ref.value)
        assert str(ref.value) == "matrix is not symmetric: max |S - S^T| = 5.000e-01"
        with pytest.raises(ValueError) as exc:
            sym_eig_top1(stack[1], sizes=[3])
        assert str(exc.value) == str(ref.value)

    def test_rejects_bad_shapes_and_sizes(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            sym_eig_top1(np.eye(3))
        with pytest.raises(ValueError, match="stack of square matrices"):
            sym_eig_top1(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="nonempty"):
            sym_eig_top1(np.zeros((2, 0, 0)))
        for sizes in ([0], [4], [[1, 2]]):
            with pytest.raises(ValueError, match="block sizes"):
                sym_eig_top1(np.eye(3), sizes=sizes)


def test_eigenpairs_is_plain_record():
    pairs = EigenPairs(values=np.array([1.0]), vectors=np.array([[1.0]]))
    assert pairs.values[0] == 1.0
