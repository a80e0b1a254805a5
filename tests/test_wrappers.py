import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdr.data import Dataset, reduce
from sdr.linalg import DegenerateDirectionError, sym_eig_topk
from sdr.regression import mse, ols_fit
from sdr.wrappers import fit_bair, fit_pcps, fit_pv, score_variables


def _centered(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return Dataset(x - x.mean(axis=0), y - y.mean())


def _random_dataset(seed, n=60, p=10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    return _centered(x, y)


class TestScoreVariables:
    def test_perfectly_aligned(self):
        x = np.array([[-1.0], [0.0], [1.0]])
        y = np.array([-1.0, 0.0, 1.0])
        assert score_variables(x, y)[0][0] == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        x = np.array([[-1.0], [0.0], [1.0]])
        y = np.array([1.0, -2.0, 1.0])
        assert score_variables(x, y)[0][0] == pytest.approx(0.0)

    def test_covariance_scales_pearson_does_not(self):
        x = np.array([[-2.0], [0.0], [2.0]])
        y = np.array([-1.0, 0.0, 1.0])
        assert abs(x[:, 0] @ y) == pytest.approx(4.0)  # the covariance scales
        assert score_variables(x, y)[0][0] == pytest.approx(1.0)

    def test_zero_variance_column_scores_zero(self):
        x = np.column_stack([np.zeros(4), np.array([-1.0, 0.0, 0.0, 1.0])])
        y = np.array([-1.0, 0.0, 0.0, 1.0])
        scores, order = score_variables(x, y)
        assert scores[0] == 0.0
        assert order[0] == 1

    def test_ranking_tie_breaks_low_index(self):
        x = np.array([[-1.0, -1.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        _, order = score_variables(x, y)
        assert list(order) == [0, 1]

    @settings(deadline=None, max_examples=30)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 99))
    def test_pearson_invariant_covariance_linear_under_rescaling(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        x2 = x.copy()
        x2[:, 1] *= scale
        p1 = score_variables(x, y)[0]
        p2 = score_variables(x2, y)[0]
        np.testing.assert_allclose(p2, p1, rtol=1e-10)


class TestBair:
    def test_k_equals_p_matches_full_pca(self):
        data = _random_dataset(0, n=40, p=4)
        reducer = fit_bair(data, 4)
        pca = sym_eig_topk(data.X.T @ data.X, 4).vectors
        proj = reducer.basis @ reducer.basis.T
        assert np.linalg.norm(proj - pca @ pca.T) <= 1e-8
        assert reducer.hyperparams["m"] == 4

    def test_informative_column_dominates(self):
        # only column 0 correlates with y; the others are tiny noise made
        # orthogonal to y in sample
        rng = np.random.default_rng(1)
        y = rng.standard_normal(50)
        y -= y.mean()
        noise = rng.standard_normal((50, 2))
        noise -= np.outer(y, y @ noise) / (y @ y)   # orthogonal to y
        x = np.column_stack([y, 0.01 * noise])
        data = _centered(x, y)
        reducer = fit_bair(data, 1)
        assert 0 in np.nonzero(np.abs(reducer.basis[:, 0]) > 0)[0]
        assert abs(reducer.basis[0, 0]) >= 0.99

        # oracle: enumerate every M by hand and compare the winner
        _, order = score_variables(data.X, data.y)
        best = None
        for m in range(1, 4):
            idx = order[:m]
            u = sym_eig_topk(data.X[:, idx].T @ data.X[:, idx], 1).vectors
            basis = np.zeros((3, 1))
            basis[idx] = u
            z = data.X @ basis
            err = mse(ols_fit(z, data.y).predict(z), data.y)
            if best is None or err < best[0]:
                best = (err, m)
        assert reducer.hyperparams["m"] == best[1]

    def test_perfect_predictor_selects_m1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 3))
        x -= x.mean(axis=0)
        data = Dataset(x, x[:, 0])
        reducer = fit_bair(data, 1)
        assert reducer.hyperparams["m"] == 1
        z = reduce(reducer, data.X)
        model = ols_fit(z, data.y)
        assert mse(model.predict(z), data.y) <= 1e-20

    def test_best_not_worse_than_full(self):
        data = _random_dataset(3)
        reducer = fit_bair(data, 3)
        pca = sym_eig_topk(data.X.T @ data.X, 3).vectors  # the M=P candidate
        z_full = data.X @ pca
        full_mse = mse(ols_fit(z_full, data.y).predict(z_full), data.y)
        assert reducer.hyperparams["selection_mse"] <= full_mse + 1e-12

    def test_orthonormal_embedded_basis(self):
        data = _random_dataset(4)
        reducer = fit_bair(data, 3)
        gram = reducer.basis.T @ reducer.basis
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-8

    def test_k_above_p_rejected(self):
        data = _random_dataset(5, p=3)
        with pytest.raises(ValueError):
            fit_bair(data, 4)


class TestPV:
    def test_exact_variable_selected(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 4))
        x -= x.mean(axis=0)
        data = Dataset(x, x[:, 2])
        reducer = fit_pv(data, 1)
        assert reducer.hyperparams["m_per_component"] == [1]
        np.testing.assert_allclose(reducer.basis[:, 0], np.eye(4)[2])
        np.testing.assert_allclose(reduce(reducer, data.X)[:, 0], x[:, 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_transformed_features_uncorrelated(self, seed):
        data = _random_dataset(seed, n=60, p=10)
        reducer = fit_pv(data, 5)
        z = reduce(reducer, data.X)
        for i in range(5):
            for j in range(i + 1, 5):
                bound = 1e-8 * np.linalg.norm(z[:, i]) * np.linalg.norm(z[:, j])
                assert abs(z[:, i] @ z[:, j]) <= bound

    def test_deflation_orthogonality_replay(self):
        # each score is a combination of the data deflated by the scores
        # before it
        data = _random_dataset(11, n=50, p=8)
        z = reduce(fit_pv(data, 4), data.X)
        xk = data.X.copy()
        for i in range(4):
            zi = z[:, i]
            coef = np.linalg.lstsq(xk, zi, rcond=None)[0]
            assert np.linalg.norm(xk @ coef - zi) <= 1e-8 * np.linalg.norm(zi)
            xk = xk - np.outer(zi, xk.T @ zi / (zi @ zi))

    def test_rank_exhaustion_aborts(self):
        # rank-1 data: one deflation annihilates everything, so a second
        # component has no usable direction left
        rng = np.random.default_rng(14)
        col = rng.standard_normal(20)
        col -= col.mean()
        x = np.column_stack([col, 2.0 * col, -col])
        with pytest.raises(DegenerateDirectionError) as exc:
            fit_pv(Dataset(x, col), 2)
        assert exc.value.iteration == 2


class TestConstantResponse:
    # a response that centers to zero gives all-zero scores; the wrapper
    # fits still proceed under the tie-breaking rules
    def _flat_data(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((30, 4))
        return Dataset(x - x.mean(axis=0), np.zeros(30))

    def test_bair_falls_back_to_smallest_m(self):
        reducer = fit_bair(self._flat_data(), 2)
        assert reducer.hyperparams["m"] == 2

    def test_pv_proceeds(self):
        reducer = fit_pv(self._flat_data(), 2)
        assert reducer.basis.shape == (4, 2)

    def test_pcps_keeps_eigen_order(self):
        reducer = fit_pcps(self._flat_data(), 2)
        assert reducer.hyperparams["selected_components"] == [0, 1]


class TestPCPS:
    def test_picks_response_aligned_component(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 2)) * np.array([2.0, 1.0])
        x -= x.mean(axis=0)
        pcs = sym_eig_topk(x.T @ x, 2).vectors
        data = Dataset(x, x @ pcs[:, 1])  # response rides the second PC
        reducer = fit_pcps(data, 1)
        assert reducer.hyperparams["selected_components"] == [1]
        proj = reducer.basis @ reducer.basis.T
        target = np.outer(pcs[:, 1], pcs[:, 1])
        assert np.linalg.norm(proj - target) <= 1e-8

    def test_k_equals_p_same_subspace_as_pca(self):
        data = _random_dataset(8, n=50, p=5)
        reducer = fit_pcps(data, 5)
        pca = sym_eig_topk(data.X.T @ data.X, 5).vectors
        assert np.linalg.norm(reducer.basis @ reducer.basis.T - pca @ pca.T) <= 1e-8

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((120, 6))
        x -= x.mean(axis=0)
        y = x @ rng.standard_normal(6)
        data = Dataset(x, y - y.mean())
        reducer = fit_pcps(data, 1)
        pcs = sym_eig_topk(data.X.T @ data.X, 6).vectors
        corrs = []
        for j in range(6):
            z = data.X @ pcs[:, j]
            corrs.append(abs(z @ data.y) / (np.linalg.norm(z) * np.linalg.norm(data.y)))
        assert reducer.hyperparams["selected_components"][0] == int(np.argmax(corrs))

    def test_rank_cap_when_n_small(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 10))
        x -= x.mean(axis=0)
        data = Dataset(x, rng.standard_normal(5))
        with pytest.raises(ValueError, match="nonzero-variance"):
            fit_pcps(data, 5)
        assert fit_pcps(data, 4).basis.shape == (10, 4)
