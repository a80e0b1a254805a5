import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdr.regression import RegressionModel, mse, ols_fit


class TestOlsFit:
    def test_exact_single_coefficient(self):
        z = np.array([[1.0], [2.0], [3.0]])
        model = ols_fit(z, 2.0 * z[:, 0])
        np.testing.assert_allclose(model.coefficients, [2.0], atol=1e-12)
        assert mse(model.predict(z), 2.0 * z[:, 0]) <= 1e-24

    def test_duplicated_columns_split_weight(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(20)
        z = np.column_stack([col, col])
        model = ols_fit(z, 3.0 * col)
        np.testing.assert_allclose(model.coefficients, [1.5, 1.5], atol=1e-10)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        model = ols_fit(z, y)
        resid = y - model.predict(z)
        rel = np.abs(z.T @ resid).max() / max(np.linalg.norm(y), 1.0)
        assert rel <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ols_fit(np.array([[np.inf]]), np.array([1.0]))


class TestMse:
    def test_identical_vectors(self):
        assert mse(np.ones(4), np.ones(4)) == 0.0

    def test_simple_value(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0

    def test_constant_predictor_gives_biased_variance(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        yc = y - y.mean()
        assert mse(np.zeros(4), yc) == pytest.approx(np.mean(yc ** 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4))

    @settings(deadline=None, max_examples=50)
    @given(a=st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
           b_shift=st.integers(-1000, 1000), c=st.integers(-10000, 10000))
    def test_shift_invariance_exact(self, a, b_shift, c):
        # integer-valued floats add exactly, so the identity holds bitwise
        a = np.array(a, dtype=float)
        b = a + float(b_shift)
        assert mse(a + float(c), b + float(c)) == mse(a, b)

    def test_shift_invariance_floats(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert mse(a + 3.7, b + 3.7) == pytest.approx(mse(a, b), rel=1e-12)


def test_model_width_check():
    model = RegressionModel(coefficients=np.ones(2))
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 3)))
