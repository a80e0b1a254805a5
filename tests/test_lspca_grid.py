"""The lock-step LSPCA grid fit against the sequential algorithm it replaced.

``_sequential_lspca`` is the one-gamma descent loop written out as the
reference: a closed-form beta, one projected-gradient QR-retraction step on
U, backtracking until the objective decreases.  Every fit of the grid must
take the same iterations and stop the same way as this loop.
"""

import math

import numpy as np
import pytest

from sdr import intrinsic
from sdr.data import Dataset, center_dataset, fit_centering
from sdr.intrinsic import (_is_isotropic, _rank1_completed_basis, _solve_stack,
                           fit_lspca, fit_lspca_grid)
from sdr.linalg import stiefel_step, sym_eig_topk
from sdr.methods import DEFAULT_GAMMA_GRID
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial

TUNING_GAMMAS = [g for g in DEFAULT_GAMMA_GRID if g > 0]


def _sequential_lspca(data, k, gamma):
    """(basis, n_iters, converged, objective_trace) of one LSPCA fit, under
    the ``LSPCA_*`` settings in force."""
    x, y = data.X, data.y
    cov = x.T @ x
    w = x.T @ y
    yy = float(y @ y)
    tr_cov = float(np.trace(cov))

    def beta_for(u):
        gram = u.T @ cov @ u
        try:
            return np.linalg.solve(gram, u.T @ w)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, u.T @ w, rcond=None)[0]

    def objective(u, beta, gam):
        cu = cov @ u
        utcu = u.T @ cu
        supervised = yy - 2.0 * float(beta @ (u.T @ w)) + float(beta @ utcu @ beta)
        return supervised + gam * (tr_cov - float(np.trace(utcu)))

    if math.isinf(gamma):
        basis = sym_eig_topk(cov, k).vectors
        return basis, 0, True, [objective(basis, beta_for(basis), 1.0)]
    if _is_isotropic(cov) and np.linalg.norm(w) > 0:
        basis = _rank1_completed_basis(w, cov, k)
        return basis, 0, True, [objective(basis, beta_for(basis), gamma)]

    u = sym_eig_topk(cov, k).vectors
    beta = beta_for(u)
    f = objective(u, beta, gamma)
    trace = [f]
    step = intrinsic.LSPCA_INITIAL_STEP
    converged = False
    it = 0
    for it in range(1, intrinsic.LSPCA_MAX_ITERS + 1):
        cu = cov @ u
        grad = 2.0 * np.outer(cu @ beta - w, beta) - 2.0 * gamma * cu
        accepted = False
        while step >= intrinsic.LSPCA_MIN_STEP:
            u_new = stiefel_step(u, grad, step)
            beta_new = beta_for(u_new)
            f_new = objective(u_new, beta_new, gamma)
            if f_new < f:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            converged = True
            break
        rel = (f - f_new) / max(1.0, abs(f))
        u, beta, f = u_new, beta_new, f_new
        trace.append(f)
        step *= 2.0
        if rel < intrinsic.LSPCA_TOL:
            converged = True
            break
    return u, it, converged, trace


def _assert_matches_sequential(data, k, gammas):
    grid = fit_lspca_grid(data, k, gammas)
    assert len(grid) == len(gammas)
    for gamma, (reducer, sol) in zip(gammas, grid):
        basis, n_iters, converged, trace = _sequential_lspca(data, k, gamma)
        where = f"gamma={gamma!r}"
        assert sol.n_iters == n_iters, where
        assert sol.converged == converged, where
        assert len(sol.objective_trace) == len(trace), where
        np.testing.assert_allclose(sol.basis, basis, rtol=0, atol=1e-10,
                                   err_msg=where)
        np.testing.assert_allclose(sol.objective_trace, trace, rtol=1e-12,
                                   err_msg=where)
        np.testing.assert_array_equal(reducer.basis, sol.basis)
        assert reducer.hyperparams["gamma"] == gamma
        assert reducer.hyperparams["iterations"] == n_iters
        assert reducer.hyperparams["converged"] is converged
    return grid


def _wine_shaped_fit_split(seed=5, n=1500, p=11):
    """Eleven skewed, positive, correlated features on different scales and
    a graded response, scaled to [0, 1] and centered like a real-data fit
    split."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = 0.4 ** np.arange(p)
    z = (rng.standard_normal((n, p)) * np.sqrt(lam)) @ basis.T
    z /= z.std(axis=0)
    x = 0.1 + np.geomspace(1.0, 300.0, p) * np.exp(0.5 * z)
    score = z @ (basis[:, 1] + basis[:, 3])
    y = np.rint(5.9 + score + 0.6 * rng.standard_normal(n))
    raw = Dataset(x, y)
    return center_dataset(raw, fit_centering(raw, unit_scale=True))


def _whitened_dataset(seed, n=40, p=10):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    vals, vecs = np.linalg.eigh(g.T @ g)
    x = g @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y - y.mean())


def _random_dataset(seed, n=60, p=12, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return Dataset(x - x.mean(axis=0), y - y.mean())


class TestLockStepMatchesSequential:
    def test_p100_fast_misaligned_trial(self):
        spec = TrialSpec(SpectrumSpec("fast"), "mis", 150, seed=3, n_test=10)
        trial = generate_trial(spec)
        train = center_dataset(trial.train, fit_centering(trial.train))
        grid = _assert_matches_sequential(train, 15, TUNING_GAMMAS[:-1])
        # the grid mixes fits that hit the iteration cap with ones that stop
        assert {sol.converged for _, sol in grid} == {True, False}

    @pytest.mark.parametrize("k", [1, 6, 10])
    def test_wine_shaped_fit_split(self, k):
        _assert_matches_sequential(_wine_shaped_fit_split(), k, TUNING_GAMMAS)

    def test_whitened_data_with_infinite_gamma(self):
        data = _whitened_dataset(7)
        grid = _assert_matches_sequential(data, 3, [0.5, 2.0, math.inf, 1e3])
        assert [r.hyperparams.get("degenerate_shortcut", False)
                for r, _ in grid] == [True, True, False, True]

    def test_one_gamma_grid(self):
        _assert_matches_sequential(_random_dataset(8), 4, [0.5])

    def test_fits_finish_in_different_rounds(self, monkeypatch):
        monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", 5)
        data = _random_dataset(9)
        gammas = [1e-3, 1e6, 0.5, 1e8, 1e-2]
        grid = _assert_matches_sequential(data, 4, gammas)
        iters = [sol.n_iters for _, sol in grid]
        assert iters[0] == 5 and not grid[0][1].converged
        assert max(iters[1], iters[3]) <= 2 and grid[1][1].converged

    @pytest.mark.parametrize("max_iters", [None, 5])  # None: the default cap
    def test_each_fit_records_its_own_row(self, monkeypatch, max_iters):
        # fits that stop in different rounds leave the running stacks at
        # different times; each must record the state of its own row
        if max_iters is not None:
            monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", max_iters)
        data = _random_dataset(9)
        gammas = [1e-3, 1e6, 0.5, 1e8, 1e-2]
        grid = fit_lspca_grid(data, 4, gammas)
        assert len({sol.n_iters for _, sol in grid}) > 1
        for gamma, (reducer, sol) in zip(gammas, grid):
            alone, alone_sol = fit_lspca(data, 4, gamma)
            np.testing.assert_array_equal(reducer.basis, alone.basis)
            np.testing.assert_array_equal(sol.basis, alone_sol.basis)
            np.testing.assert_array_equal(sol.beta, alone_sol.beta)
            assert sol.objective_trace == alone_sol.objective_trace
            assert reducer.hyperparams == alone.hyperparams

    def test_fit_lspca_is_the_one_gamma_grid(self):
        data = _random_dataset(10)
        reducer, sol = fit_lspca(data, 3, 0.7)
        (grid_reducer, grid_sol), = fit_lspca_grid(data, 3, [0.7])
        np.testing.assert_array_equal(sol.basis, grid_sol.basis)
        assert sol.objective_trace == grid_sol.objective_trace
        assert reducer.hyperparams == grid_reducer.hyperparams


class TestGridClosedForms:
    def test_empty_grid(self):
        assert fit_lspca_grid(_random_dataset(11), 2, []) == []

    def test_full_rank_k_is_pca_without_iterating(self):
        data = _random_dataset(12, p=6)
        pca = sym_eig_topk(data.X.T @ data.X, 6).vectors
        for reducer, sol in fit_lspca_grid(data, 6, [1e-3, 1.0, math.inf]):
            np.testing.assert_array_equal(sol.basis, pca)
            assert sol.n_iters == 0 and sol.converged
            assert len(sol.objective_trace) == 1
            assert reducer.hyperparams["iterations"] == 0

    def test_errors_match_the_sequential_fit(self):
        data = _random_dataset(13, p=5)
        with pytest.raises(ValueError, match="K=6 exceeds P=5"):
            fit_lspca_grid(data, 6, [1.0, math.inf])
        with pytest.raises(ValueError, match="positive"):
            fit_lspca_grid(data, 2, [1.0, 0.0])
        with pytest.raises(ValueError, match=r"gamma must be >= 0"):
            fit_lspca_grid(data, 2, [1.0, -1.0])
        with pytest.raises(ValueError, match=r"gamma must be >= 0"):
            fit_lspca_grid(data, 2, [math.nan])


def test_singular_gram_slice_falls_back_to_least_squares():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 4, 4))
    gram = a @ np.swapaxes(a, -1, -2)
    gram[1, :, 3] = gram[1, 3, :] = 0.0  # exactly singular
    rhs = rng.standard_normal((3, 4))
    beta = _solve_stack(gram, rhs)
    for i in (0, 2):
        np.testing.assert_allclose(beta[i], np.linalg.solve(gram[i], rhs[i]),
                                   rtol=1e-12)
    np.testing.assert_allclose(beta[1],
                               np.linalg.lstsq(gram[1], rhs[1], rcond=None)[0],
                               rtol=1e-12)
