"""PV and the extended-PLS grid against the full-``eigh`` loops they replaced.

``_pv_eigh_loop`` and ``_pls_eigh_loop`` write the two fits out with one
``sym_eig_topk(matrix, 1)`` call per candidate submatrix and per component,
as they were computed before the stacked top-1 kernel.  PV must choose the
same variable counts and give the same scores on the training rows, the PLS
grid must return the same bases and raise the error a loop over its gammas
raises.
"""

import math

import numpy as np
import pytest

from sdr.data import Dataset, center_dataset, fit_centering, reduce
from sdr.intrinsic import (_check_gamma, _deflate, _supervised_direction,
                           fit_pls_extended, fit_pls_grid)
from sdr.linalg import DegenerateDirectionError, sym_eig_topk
from sdr.methods import DEFAULT_GAMMA_GRID
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial
from sdr.wrappers import _pearson_pair, fit_pv, score_variables


def _p100_trial(seed):
    spec = TrialSpec(spectrum=SpectrumSpec("fast"), alignment="mis",
                     n_train=150, seed=seed)
    trial = generate_trial(spec)
    return center_dataset(trial.train, fit_centering(trial.train))


def _random_dataset(seed, n=60, p=10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    return Dataset(x - x.mean(axis=0), y - y.mean())


def _pv_eigh_loop(data, k):
    """(m per component, the N x k scores)."""
    x, y = data.X, data.y
    p = x.shape[1]
    xk = x.copy()
    dust_sq = (1e-12 ** 2) * max(float(np.sum(x * x)), 1e-300)
    chosen, scores = [], []
    for it in range(1, k + 1):
        _, order = score_variables(xk, y)
        cov = xk.T @ xk
        best = None
        for m in range(1, p + 1):
            idx = order[:m]
            direction = sym_eig_topk(cov[np.ix_(idx, idx)], 1).vectors[:, 0]
            z = xk[:, idx] @ direction
            if float(z @ z) <= dust_sq:
                continue
            sc = _pearson_pair(z, y)
            if best is None or sc > best[0]:
                best = (sc, m, idx, direction, z)
        _, m, idx, direction, z = best
        b = xk.T @ z / float(z @ z)
        chosen.append(m)
        scores.append(z)
        xk = xk - np.outer(z, b)
    return chosen, np.column_stack(scores)


def _pls_eigh_loop(data, k, gamma):
    """The extended-PLS basis at one gamma, deflating the moments."""
    gamma = _check_gamma(gamma)
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    mom = data.moments
    state = (mom.xx, mom.xy, mom.yy)
    scale = math.sqrt(float(np.trace(mom.xx)) * mom.yy)
    cols = []
    for it in range(1, k + 1):
        cov, w, _ = state
        if gamma == 0.0:
            u = _supervised_direction(w, scale, it)
        else:
            m = cov if math.isinf(gamma) else np.outer(w, w) + gamma * cov
            pairs = sym_eig_topk(m, 1)
            if pairs.values[0] <= 0.0:
                raise DegenerateDirectionError(it, f"deflated data vanished at iteration {it}")
            u = pairs.vectors[:, 0]
        cols.append(u)
        state = _deflate(*state, u, it)
    return np.column_stack(cols)


def _assert_pv_matches_loop(data, k):
    reducer = fit_pv(data, k)
    chosen, scores = _pv_eigh_loop(data, k)
    assert reducer.hyperparams["m_per_component"] == chosen
    np.testing.assert_allclose(reduce(reducer, data.X), scores, rtol=0,
                               atol=1e-10 * np.abs(scores).max())


class TestPV:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_p100_trial_matches_eigh_loop(self, seed):
        _assert_pv_matches_loop(_p100_trial(seed), 15)

    @pytest.mark.parametrize("seed", range(10))
    def test_small_cases_match_eigh_loop(self, seed):
        _assert_pv_matches_loop(_random_dataset(seed), 5)


class TestPLSGrid:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_p100_grid_matches_per_gamma_fits(self, seed):
        data = _p100_trial(seed)
        grid = list(DEFAULT_GAMMA_GRID)
        assert len(grid) == 17
        fits = fit_pls_grid(data, 15, grid)
        assert len(fits) == len(grid)
        for gamma, fit in zip(grid, fits):
            assert fit.method == "pls" and fit.hyperparams == {"gamma": gamma}
            one = fit_pls_extended(data, 15, gamma)
            np.testing.assert_allclose(fit.basis, one.basis, rtol=0, atol=1e-10)
            np.testing.assert_allclose(fit.basis, _pls_eigh_loop(data, 15, gamma),
                                       rtol=0, atol=1e-10)

    def test_small_grid_matches_eigh_loop(self):
        data = _random_dataset(3)
        for gamma, fit in zip(DEFAULT_GAMMA_GRID,
                              fit_pls_grid(data, 5, DEFAULT_GAMMA_GRID)):
            np.testing.assert_array_equal(fit.basis, _pls_eigh_loop(data, 5, gamma))

    def test_empty_grid(self):
        assert fit_pls_grid(_random_dataset(4), 3, []) == []

    @staticmethod
    def _loop_error(data, k, grid):
        """The first gamma that fails validation, checked before any fit;
        else the error of the first component at which a per-gamma loop
        fails, at the earliest such gamma in grid order."""
        for gamma in grid:
            try:
                _check_gamma(gamma)
            except ValueError as exc:
                return exc
        errors = []
        for gamma in grid:
            try:
                _pls_eigh_loop(data, k, gamma)
            except DegenerateDirectionError as exc:
                errors.append(exc)
        return min(errors, key=lambda exc: exc.iteration, default=None)

    @pytest.mark.parametrize("grid", [
        [1.0, 0.0, math.inf],     # gamma = 0 degenerates
        [0.0, -1.0],              # a later gamma fails validation first
        [2.0, -1.0, 0.0],
        [1.0, math.nan],
    ])
    def test_first_failing_gamma_in_grid_order_raises(self, grid):
        # orthogonal, equal-norm columns and y along one of them: the first
        # gamma = 0 direction is that column and its deflation removes y, so
        # X^T y vanishes (up to rounding) before K = 3, while gamma > 0
        # carries on
        g = np.random.default_rng(7).standard_normal((30, 4))
        x = 3.0 * np.linalg.qr(g - g.mean(axis=0))[0]
        data = Dataset(x, x[:, 1].copy())
        expected = self._loop_error(data, 3, grid)
        assert expected is not None
        with pytest.raises(type(expected)) as exc:
            fit_pls_grid(data, 3, grid)
        assert str(exc.value) == str(expected)
        if isinstance(expected, DegenerateDirectionError):
            assert exc.value.iteration == expected.iteration

    def test_k_above_p_raises(self):
        for grid in ([0.0, 1.0], []):  # whatever the grid
            with pytest.raises(ValueError, match="K=6 exceeds P=5"):
                fit_pls_grid(_random_dataset(5, p=5), 6, grid)
