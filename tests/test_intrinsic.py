import math

import numpy as np
import pytest

from sdr import intrinsic
from sdr.data import Dataset, reduce
from sdr.intrinsic import (SppcaState, fit_barshan_extended,
                           fit_barshan_sweep, fit_lspca, fit_pls_extended,
                           fit_sppca, fit_sppca_model, predict_sppca)
from sdr.linalg import (DegenerateDirectionError, RankDeficientError,
                        orthonormalize, sym_eig_topk)
from sdr.methods import DEFAULT_GAMMA_GRID


def _centered(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return Dataset(x - x.mean(axis=0), y - y.mean())


def _random_dataset(seed, n=40, p=8, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return _centered(x, y)


def _whitened_dataset(seed, n=40, p=10):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    vals, vecs = np.linalg.eigh(g.T @ g)
    x = g @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y - y.mean())


def _projector(basis):
    return basis @ basis.T


class TestPLS:
    def test_first_direction_closed_form(self):
        data = _random_dataset(0)
        w = data.X.T @ data.y
        u = fit_pls_extended(data, 1, 0.0).basis[:, 0]
        expected = w / np.linalg.norm(w)
        if expected[np.argmax(np.abs(expected))] < 0:
            expected = -expected
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_tiny_example(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                       np.array([1.0, 0.0, -1.0, 0.0]))
        u = fit_pls_extended(data, 1, 0.0).basis[:, 0]
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_first_direction_matches_barshan(self, seed):
        data = _random_dataset(seed)
        u_pls = fit_pls_extended(data, 1, 0.0).basis[:, 0]
        u_bar = fit_barshan_extended(data, 1, 0.0).basis[:, 0]
        assert float(u_pls @ u_bar) >= 1.0 - 1e-10

    def test_deflation_zeroes_chosen_direction(self):
        # weight-vector deflation removes each direction from the data, so
        # later weights are orthogonal to earlier ones (the scores themselves
        # are not orthogonal under this deflation)
        data = _random_dataset(1, n=60, p=10)
        basis = fit_pls_extended(data, 5, 0.0).basis
        xk = data.X.copy()
        for i in range(5):
            u = basis[:, i]
            xk = xk - np.outer(xk @ u, u)
            assert np.abs(xk @ u).max() <= 1e-10 * np.abs(data.X).max()

    def test_basis_orthonormal_unit_columns(self):
        reducer = fit_pls_extended(_random_dataset(2), 4, 0.0)
        gram = reducer.basis.T @ reducer.basis
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-8

    def test_degenerate_response(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4))
        x -= x.mean(axis=0)
        y = rng.standard_normal(20)
        y -= x @ np.linalg.lstsq(x, y, rcond=None)[0]  # orthogonal to columns
        with pytest.raises(DegenerateDirectionError) as exc:
            fit_pls_extended(Dataset(x, y), 1, 0.0)
        assert exc.value.iteration == 1


class TestExtendedPLS:
    def test_gamma_zero_reduces_to_pls(self):
        # classic PLS, written out: normalized X^T y, then X and y deflation
        data = _random_dataset(4)
        b0 = fit_pls_extended(data, 3, 0.0).basis
        xk, yk = data.X.copy(), data.y.copy()
        cols = []
        for _ in range(3):
            u = xk.T @ yk
            u /= np.linalg.norm(u)
            if u[np.argmax(np.abs(u))] < 0:
                u = -u
            z = xk @ u
            xk = xk - np.outer(z, u)
            yk = yk - (yk @ z) / (z @ z) * z
            cols.append(u)
        np.testing.assert_allclose(b0, np.column_stack(cols), atol=1e-10)

    def test_gamma_infinity_first_direction_is_top_pc(self):
        data = _random_dataset(5)
        u = fit_pls_extended(data, 1, math.inf).basis[:, 0]
        pc = sym_eig_topk(data.X.T @ data.X, 1).vectors[:, 0]
        np.testing.assert_allclose(u, pc, atol=1e-10)

    def test_large_gamma_close_to_infinity(self):
        data = _random_dataset(6)
        p_large = _projector(fit_pls_extended(data, 3, 1e6).basis)
        p_inf = _projector(fit_pls_extended(data, 3, math.inf).basis)
        assert np.linalg.norm(p_large - p_inf) <= 1e-3

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            fit_pls_extended(_random_dataset(7), 2, -1.0)


class TestBarshan:
    def test_first_direction_is_xty(self):
        data = _random_dataset(8)
        w = data.X.T @ data.y
        u = fit_barshan_extended(data, 1, 0.0).basis[:, 0]
        assert abs(abs(u @ w) - np.linalg.norm(w)) <= 1e-10

    def test_rank_one_objective_flat_beyond_k1(self):
        data = _random_dataset(9)
        obj = lambda basis: np.linalg.norm((data.X @ basis).T @ data.y) ** 2
        o1 = obj(fit_barshan_extended(data, 1, 0.0).basis)
        r2 = fit_barshan_extended(data, 2, 0.0)
        o2 = obj(r2.basis)
        assert abs(o1 - o2) <= 1e-10 * max(1.0, o1)
        assert r2.hyperparams["degenerate_completion"]

    def test_completion_uses_leading_variance_directions(self):
        data = _random_dataset(10)
        basis = fit_barshan_extended(data, 3, 0.0).basis
        u1 = basis[:, :1]
        proj = np.eye(data.p) - u1 @ u1.T
        expected = sym_eig_topk(proj @ data.X.T @ data.X @ proj, 2).vectors
        assert np.linalg.norm(_projector(basis[:, 1:]) - _projector(expected)) <= 1e-8

    def test_completion_at_large_data_scale(self):
        # X scaled by 1e8 puts the projected covariance at 1e16, where its
        # rounding asymmetry exceeds the eigensolver's absolute symmetry check
        data = _random_dataset(12)
        scaled = Dataset(data.X * 1e8, data.y)
        np.testing.assert_allclose(fit_barshan_extended(scaled, 3, 0.0).basis,
                                   fit_barshan_extended(data, 3, 0.0).basis,
                                   rtol=0, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 3])
    def test_constant_response_fails_as_pls_does(self, k):
        # at gamma = 0 both take their first direction from X^T y, which a
        # constant response makes vanish: both fail with one error
        x = np.random.default_rng(11).standard_normal((40, 8))
        data = _centered(x, np.full(40, 3.0))
        errors = []
        for fit in (fit_barshan_extended, fit_pls_extended):
            with pytest.raises(DegenerateDirectionError) as exc:
                fit(data, k, 0.0)
            errors.append((exc.value.iteration, str(exc.value)))
        assert errors[0] == errors[1] == (1, "X^T y vanishes at iteration 1")


def _barshan_one_fit(data, k, gamma):
    """Barshan's basis at one (K, gamma) as it was computed before the
    sweep: its own eigensolve at K, or the rank-1 completion."""
    cov, w = data.moments.xx, data.moments.xy
    if math.isinf(gamma):
        return sym_eig_topk(cov, k).vectors
    if gamma == 0.0 or (intrinsic._is_isotropic(cov) and np.linalg.norm(w) > 0):
        return intrinsic._rank1_completed_basis(w, cov, k)
    return sym_eig_topk(np.outer(w, w) + gamma * cov, k).vectors


class TestBarshanSweep:
    """One eigensolve per gamma > 0 at the sweep's largest K, its first K
    columns each K's basis; one rank-1 completion per K."""

    def _count(self, monkeypatch):
        counts = {"eig": 0, "completion": 0}
        for attr, key in (("sym_eig_topk", "eig"),
                          ("_rank1_completed_basis", "completion")):
            fn = getattr(intrinsic, attr)

            def counted(*args, fn=fn, key=key):
                counts[key] += 1
                return fn(*args)
            monkeypatch.setattr(intrinsic, attr, counted)
        return counts

    @pytest.mark.parametrize("make", [
        lambda: _random_dataset(30),
        lambda: _whitened_dataset(31),
        lambda: _random_dataset(32, n=12, p=16)])  # P > N
    def test_each_k_is_its_one_k_fit(self, make):
        data = make()
        ks = range(1, data.p + 1)
        sweep = fit_barshan_sweep(data, ks, DEFAULT_GAMMA_GRID)
        assert list(sweep) == list(ks)
        for k in ks:
            assert len(sweep[k]) == len(DEFAULT_GAMMA_GRID)
            for gamma, got in zip(DEFAULT_GAMMA_GRID, sweep[k]):
                want = _barshan_one_fit(data, k, gamma)
                for layout in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
                    assert got.basis.flags[layout] == want.flags[layout]
                assert got.basis.tobytes() == want.tobytes()
                alone = fit_barshan_extended(data, k, gamma)
                assert alone.basis.tobytes() == want.tobytes()
                assert got.hyperparams == alone.hyperparams
                assert got.hyperparams["gamma"] == gamma

    def test_one_eigensolve_per_gamma(self, monkeypatch):
        """P = 8, K = 1..8 over the 17-point grid: 16 eigensolves for the
        gammas > 0 and 8 completions for gamma = 0, of which K = 2..8 solve
        once each; the one-(K, gamma) fits took 8 x 16 and 8."""
        data = _random_dataset(33)
        counts = self._count(monkeypatch)
        fit_barshan_sweep(data, range(1, 9), DEFAULT_GAMMA_GRID)
        assert counts == {"eig": 16 + 7, "completion": 8}

    def test_whitened_completion_once_per_k(self, monkeypatch):
        """On whitened data every finite gamma takes the rank-1 completion:
        once per K, not once per finite gamma (16 per K)."""
        data = _whitened_dataset(34)
        counts = self._count(monkeypatch)
        fit_barshan_sweep(data, range(1, 11), DEFAULT_GAMMA_GRID)
        assert counts == {"eig": 1 + 9, "completion": 10}

    def test_each_k_keeps_its_own_error(self, monkeypatch):
        data = _random_dataset(35)
        completion = intrinsic._rank1_completed_basis

        def failing(w, cov, k):
            if k == 3:
                raise RankDeficientError(2)
            return completion(w, cov, k)
        monkeypatch.setattr(intrinsic, "_rank1_completed_basis", failing)
        sweep = fit_barshan_sweep(data, [1, 3, 9, 2], DEFAULT_GAMMA_GRID)
        assert list(sweep) == [1, 3, 9, 2]
        assert isinstance(sweep[3], RankDeficientError)
        assert isinstance(sweep[9], ValueError)
        assert str(sweep[9]) == "K=9 exceeds P=8"
        for k in (1, 2):
            assert [r.basis.tobytes() for r in sweep[k]] == [
                _barshan_one_fit(data, k, g).tobytes() for g in DEFAULT_GAMMA_GRID]
        with pytest.raises(RankDeficientError):
            fit_barshan_extended(data, 3, 0.0)
        assert fit_barshan_extended(data, 3, 1.0).k == 3
        with pytest.raises(ValueError, match="K=9 exceeds P=8"):
            fit_barshan_extended(data, 9, 1.0)

    def test_a_bad_gamma_is_every_ks_error(self):
        sweep = fit_barshan_sweep(_random_dataset(36), [1, 2], [1.0, -1.0])
        for k in (1, 2):
            assert isinstance(sweep[k], ValueError)
            assert str(sweep[k]) == "gamma must be >= 0 or math.inf, got -1.0"


class TestExtendedBarshan:
    def test_gamma_infinity_is_pca(self):
        data = _random_dataset(11)
        p_ext = _projector(fit_barshan_extended(data, 3, math.inf).basis)
        pca = sym_eig_topk(data.X.T @ data.X, 3).vectors
        assert np.linalg.norm(p_ext - _projector(pca)) <= 1e-8

    def test_gamma_zero_k1_matches_pls(self):
        data = _random_dataset(12)
        u = fit_barshan_extended(data, 1, 0.0).basis[:, 0]
        u_pls = fit_pls_extended(data, 1, 0.0).basis[:, 0]
        np.testing.assert_allclose(u, u_pls, atol=1e-12)

    def test_generic_gamma_solves_eigenproblem(self):
        data = _random_dataset(13)
        gamma = 0.7
        basis = fit_barshan_extended(data, 2, gamma).basis
        w = data.X.T @ data.y
        m = np.outer(w, w) + gamma * data.X.T @ data.X
        expected = sym_eig_topk(m, 2).vectors
        np.testing.assert_allclose(basis, expected, atol=1e-12)

    def test_supervised_term_nonincreasing_in_gamma(self):
        # exchange argument: at exact optima the supervised objective can
        # only fall as the variance weight grows
        data = _random_dataset(40, n=50, p=6)
        sup = []
        for gamma in [0.0] + list(np.logspace(-3, 3, 9)):
            basis = fit_barshan_extended(data, 2, gamma).basis
            sup.append(np.linalg.norm((data.X @ basis).T @ data.y) ** 2)
        sup = np.asarray(sup)
        assert np.all(np.diff(sup) <= 1e-8 * np.abs(sup[:-1]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_whitened_equivalence_with_lspca(self, k):
        data = _whitened_dataset(14)
        for gamma in (0.5, 2.0):
            pb = _projector(fit_barshan_extended(data, k, gamma).basis)
            pl = _projector(fit_lspca(data, k, gamma)[0].basis)
            assert np.linalg.norm(pb - pl) <= 1e-6


class TestLSPCA:
    def test_huge_gamma_recovers_pca(self):
        data = _random_dataset(15)
        reducer, _ = fit_lspca(data, 3, 1e8)
        pca = sym_eig_topk(data.X.T @ data.X, 3).vectors
        assert np.linalg.norm(_projector(reducer.basis) - _projector(pca)) <= 1e-4

    def test_noiseless_construction_recovered(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((50, 6))
        x -= x.mean(axis=0)
        u_star = sym_eig_topk(x.T @ x, 2).vectors
        y = x @ u_star @ np.array([2.0, -1.0])
        data = Dataset(x, y)
        reducer, sol = fit_lspca(data, 2, 1.0)
        resid = y - x @ sol.basis @ sol.beta
        assert float(resid @ resid) <= 1e-10
        assert np.linalg.norm(_projector(sol.basis) - _projector(u_star)) <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_descent_and_feasibility(self, seed):
        data = _random_dataset(seed + 20, n=60, p=12)
        reducer, sol = fit_lspca(data, 4, 0.5)
        trace = np.asarray(sol.objective_trace)
        assert np.all(np.diff(trace) < 0)  # strictly decreasing accepted iterates
        gram = sol.basis.T @ sol.basis
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-8

    def test_infinite_gamma_short_circuit(self):
        data = _random_dataset(17)
        reducer, sol = fit_lspca(data, 2, math.inf)
        pca = sym_eig_topk(data.X.T @ data.X, 2).vectors
        np.testing.assert_allclose(reducer.basis, pca, atol=1e-12)
        assert sol.converged

    def test_rejects_gamma_zero(self):
        with pytest.raises(ValueError, match="positive"):
            fit_lspca(_random_dataset(18), 2, 0.0)

    def test_max_iters_flagged(self, monkeypatch, first_order_lspca):
        monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", 2)
        data = _random_dataset(19)
        reducer, sol = fit_lspca(data, 2, 1e-3)
        assert not sol.converged
        assert reducer.hyperparams["converged"] is False


class TestSPPCA:
    def _model_data(self, seed, n=400, p=8, k=3, sigma=1e-3):
        rng = np.random.default_rng(seed)
        u_star = orthonormalize(rng.standard_normal((p, k)))
        v_star = rng.standard_normal(k)
        z = rng.standard_normal((n, k))
        x = z @ u_star.T + sigma * rng.standard_normal((n, p))
        y = z @ v_star + sigma * rng.standard_normal(n)
        return _centered(x, y), sigma

    def test_model_recovery_prediction(self):
        data, sigma = self._model_data(21)
        state, _ = fit_sppca_model(data, 3)
        pred = predict_sppca(state, data.X)
        assert float(np.mean((pred - data.y) ** 2)) <= 10 * sigma ** 2
        corr = np.corrcoef(pred, data.y)[0, 1]
        assert corr >= 0.99

    @pytest.mark.parametrize("seed", range(5))
    def test_loglik_nondecreasing(self, seed):
        data = _random_dataset(seed + 30, n=50, p=10, noise=1.0)
        reducer = fit_sppca(data, 3)
        trace = np.asarray(reducer.hyperparams["loglik_trace"])
        drops = np.diff(trace)
        floor = -1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(drops >= floor)

    def test_dominant_variance_overpowers_response(self):
        # response rides a weak direction; the likelihood follows the strong
        # ones, so the learned subspace stays close to PCA's
        rng = np.random.default_rng(22)
        n, p = 500, 30
        strong = orthonormalize(rng.standard_normal((p, 3)))
        weak = rng.standard_normal(p)
        weak -= strong @ (strong.T @ weak)
        weak /= np.linalg.norm(weak)
        x = (rng.standard_normal((n, 3)) * 10.0) @ strong.T \
            + 0.1 * rng.standard_normal((n, 1)) * weak[None, :] \
            + 0.01 * rng.standard_normal((n, p))
        y = x @ weak + 0.01 * rng.standard_normal(n)
        data = _centered(x, y)
        state, _ = fit_sppca_model(data, 3)
        learned = orthonormalize(state.loadings)
        pca = sym_eig_topk(data.X.T @ data.X, 3).vectors
        assert np.linalg.norm(_projector(learned) - _projector(pca)) <= 0.1

    def test_predict_zero_input_gives_mean(self):
        # centered data: the zero input is the mean, predicted as zero
        state = SppcaState(loadings=np.eye(3)[:, :2],
                           response_loadings=np.array([1.0, -1.0]),
                           sigma_x=0.5, sigma_y=0.5)
        pred = predict_sppca(state, np.zeros((2, 3)))
        np.testing.assert_array_equal(pred, [0.0, 0.0])

    def test_reduce_matches_posterior_map(self):
        data, _ = self._model_data(23, n=100, p=5, k=2)
        reducer = fit_sppca(data, 2)
        st, hyper = fit_sppca_model(data, 2)
        assert hyper == reducer.hyperparams
        gram = st.loadings.T @ st.loadings + st.sigma_x ** 2 * np.eye(2)
        expected = np.linalg.solve(gram, st.loadings.T @ data.X.T).T
        np.testing.assert_allclose(reduce(reducer, data.X), expected, atol=1e-12)
