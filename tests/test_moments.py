"""SPPCA and extended PLS from a dataset's moments against the data-form
fits they replaced.

``_sppca_data_form`` and ``_pls_data_form`` write the two fits out as they
were computed before they moved to ``Dataset.moments``: the EM's posterior
means and the PLS deflation formed on the N rows at every step.  The
moment-form fits must take the same EM iterations, reach the same
convergence and variance-floor flags, and return the same loadings,
log-likelihoods and bases within the tolerances below (about a hundred
times the largest difference seen on these cases, 1e-11), or raise the
same error.
The cases cover a P = 100 trial, a wine-shaped split, P > N, data
scaled by 1e-8 and 1e+8, K = P and a duplicated column.

Squaring the data into moments squares its condition number, so the two
forms part ways only where the data have no more directions to give: once
K reaches the rank of X, SPPCA's noise variance hits its floor and its
log-likelihood is round-off (the iteration counts may then differ), and
PLS beyond the rank raises ``DegenerateDirectionError`` where the data form
returned round-off directions that fail the basis contract.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from sdr.data import Dataset, center_dataset, fit_centering, load_csv
from sdr.intrinsic import (SPPCA_MAX_ITERS, SPPCA_TOL, SPPCA_VARIANCE_FLOOR,
                           fit_barshan_extended, fit_lspca_sweep,
                           fit_pls_extended, fit_pls_grid, fit_sppca,
                           fit_sppca_model)
from sdr.linalg import DegenerateDirectionError, fix_signs, sym_eig_topk
from sdr.methods import DEFAULT_GAMMA_GRID, pca_reducer
from sdr.realdata import TEST_FRACTION, VAL_FRACTION
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial

#: Loadings agree to this multiple of their largest entry, noise scales and
#: log-likelihoods to this relative distance; PLS bases entrywise.
LOADING_RTOL = 1e-9
LOGLIK_RTOL = 1e-10
BASIS_ATOL = 1e-10


# ---------------------------------------------------------------------------
# The data-form fits, as they were
# ---------------------------------------------------------------------------

def _sppca_loglik_data_form(t, u, v, sx2, sy2):
    n, p = t.shape[0], t.shape[1] - 1
    k = u.shape[1]
    wmat = np.concatenate([u, v[None, :]], axis=0)
    psi = np.concatenate([np.full(p, sx2), [sy2]])
    b = np.eye(k) + (wmat.T / psi) @ wmat
    _, logdet_b = np.linalg.slogdet(b)
    logdet = float(np.sum(np.log(psi)) + logdet_b)
    g = t / psi
    gw = g @ wmat
    quad = float(np.sum(g * t) - np.sum(gw * np.linalg.solve(b, gw.T).T))
    return -0.5 * (n * ((p + 1) * math.log(2.0 * math.pi) + logdet) + quad)


def _sppca_data_form(data, k):
    """(u, v, sigma_x, sigma_y, iterations, converged, floored, loglik trace)."""
    x, y = data.X, data.y
    n, p = x.shape
    pairs = sym_eig_topk(x.T @ x, min(p, k))
    sample_vars = pairs.values / n
    if p > k:
        total = float(np.trace(x.T @ x)) / n
        sx2 = max((total - float(sample_vars.sum())) / (p - k), 1e-8)
    else:
        sx2 = max(1e-3 * float(sample_vars.mean()), 1e-8)
    load_scale = np.sqrt(np.maximum(sample_vars - sx2, 1e-8))
    u = pairs.vectors * load_scale
    z0 = x @ pairs.vectors
    v0, *_ = np.linalg.lstsq(z0, y, rcond=None)
    v = v0 * load_scale
    resid = y - z0 @ v0
    sy2 = max(float(resid @ resid) / n, 1e-3 * float(y @ y) / n, 1e-8)
    t = np.concatenate([x, y[:, None]], axis=1)
    xx, yy = float(np.sum(x * x)), float(y @ y)
    ll_prev = _sppca_loglik_data_form(t, u, v, sx2, sy2)
    trace = [ll_prev]
    floored = floored_now = converged = False
    for iterations in range(1, SPPCA_MAX_ITERS + 1):
        a_inv = np.linalg.inv(np.eye(k) + (u.T @ u) / sx2 + np.outer(v, v) / sy2)
        m = (x @ u / sx2 + np.outer(y, v) / sy2) @ a_inv
        s = n * a_inv + m.T @ m
        xtm = x.T @ m
        u = np.linalg.solve(s, xtm.T).T
        v = np.linalg.solve(s, m.T @ y)
        sx2_new = (xx - float(np.sum(u * xtm))) / (n * p)
        sy2_new = (yy - float(v @ (m.T @ y))) / n
        floored_now = min(sx2_new, sy2_new) < SPPCA_VARIANCE_FLOOR
        floored |= floored_now
        sx2 = max(sx2_new, SPPCA_VARIANCE_FLOOR)
        sy2 = max(sy2_new, SPPCA_VARIANCE_FLOOR)
        ll = _sppca_loglik_data_form(t, u, v, sx2, sy2)
        trace.append(ll)
        converged = abs(ll - ll_prev) < SPPCA_TOL * max(1.0, abs(ll_prev))
        ll_prev = ll
        if converged:
            break
    # a stop on a floored variance is a stop on round-off, not convergence
    converged = converged and not floored_now
    return u, v, math.sqrt(sx2), math.sqrt(sy2), iterations, converged, floored, trace


def _pls_data_form(data, k, gamma):
    """The extended-PLS basis at one gamma, deflating X and y themselves."""
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    xk, yk = data.X, data.y
    cols = []
    for it in range(1, k + 1):
        w = xk.T @ yk
        if gamma == 0.0:
            norm = np.linalg.norm(w)
            if norm <= 1e-13 * max(np.linalg.norm(xk) * np.linalg.norm(yk), 1e-300):
                raise DegenerateDirectionError(it, f"X^T y vanishes at iteration {it}")
            u = fix_signs((w / norm)[:, None])[:, 0]
        else:
            cov = xk.T @ xk
            pairs = sym_eig_topk(cov if math.isinf(gamma)
                                 else np.outer(w, w) + gamma * cov, 1)
            if pairs.values[0] <= 0.0:
                raise DegenerateDirectionError(it, f"deflated data vanished at iteration {it}")
            u = pairs.vectors[:, 0]
        cols.append(u)
        z = xk @ u
        z_sq = float(z @ z)
        if z_sq <= 0.0:
            raise DegenerateDirectionError(it, f"zero score vector at iteration {it}")
        xk, yk = xk - np.outer(z, u), yk - (float(yk @ z) / z_sq) * z
    basis = np.column_stack(cols)
    gram_err = np.linalg.norm(basis.T @ basis - np.eye(k))
    if gram_err > 1e-8:  # FittedReducer's contract
        raise ValueError(f"basis is not orthonormal: ||U^T U - I|| = {gram_err:.3e}")
    return basis


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def _centered(x, y):
    d = Dataset(x, y)
    return center_dataset(d, fit_centering(d))


def _random(seed, n, p, dup=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * 0.7 ** np.arange(p)
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    if dup:
        x = np.hstack([x, x[:, 2:3]])
    return _centered(x, y)


def _p100_trial():
    spec = TrialSpec(spectrum=SpectrumSpec("fast"), alignment="mis",
                     n_train=150, seed=1)
    train = generate_trial(spec).train
    return center_dataset(train, fit_centering(train))


def _wine_split(tmp_path):
    """The fit split of a realdata-tall pass (N = 4898, P = 11): 3,135 rows."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_sdr_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    module.write_wine_csv(7, tmp_path / "wine.csv")
    data, _ = load_csv(tmp_path / "wine.csv", "quality", delimiter=";")
    n_train = data.n - int(math.floor(TEST_FRACTION * data.n))
    n_fit = n_train - int(round(VAL_FRACTION * n_train))
    fit = np.random.default_rng(7).permutation(data.n)[:n_fit]
    raw = Dataset(data.X[fit], data.y[fit])
    return center_dataset(raw, fit_centering(raw, unit_scale=True))


def _scaled(factor):
    d = _random(4, 60, 10)
    return Dataset(d.X * factor, d.y * factor)


#: name -> (dataset maker, the SPPCA Ks and the PLS Ks at which the two
#: forms must agree).  PLS goes up to the rank of X; SPPCA stops below it
#: where the rank is below P, as its variance floor engages there.
CASES = {
    "p100_k15": (lambda tmp: _p100_trial(), [1, 15], [1, 15]),
    "wine_k1_to_p": (_wine_split, range(1, 12), range(1, 12)),
    "p_gt_n": (lambda tmp: _random(3, 8, 20), range(1, 7), range(1, 8)),
    "scaled_1e-8": (lambda tmp: _scaled(1e-8), range(1, 11), range(1, 11)),
    "scaled_1e+8": (lambda tmp: _scaled(1e8), range(1, 11), range(1, 11)),
    "duplicated_column": (lambda tmp: _random(5, 60, 10, dup=True),
                          range(1, 10), range(1, 11)),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request, tmp_path_factory):
    make, sppca_ks, pls_ks = CASES[request.param]
    return make(tmp_path_factory.mktemp("case")), list(sppca_ks), list(pls_ks)


def _assert_sppca_matches(data, k, equal_iterations=True):
    st, hyper = fit_sppca_model(data, k)
    u, v, sx, sy, iters, converged, floored, trace = _sppca_data_form(data, k)
    assert (hyper["converged"], hyper["variance_floored"]) == (converged, floored)
    if equal_iterations:
        assert hyper["iterations"] == iters
        np.testing.assert_allclose(hyper["loglik_trace"], trace, rtol=LOGLIK_RTOL, atol=0)
    for new, ref in ((st.loadings, u), (st.response_loadings, v)):
        np.testing.assert_allclose(new, ref, rtol=0,
                                   atol=LOADING_RTOL * np.abs(ref).max())
    np.testing.assert_allclose([st.sigma_x, st.sigma_y], [sx, sy], rtol=LOADING_RTOL)


class TestSppcaMatchesDataForm:
    def test_every_k(self, case):
        data, ks, _ = case
        for k in ks:
            _assert_sppca_matches(data, k)

    @pytest.mark.parametrize("make, ks", [
        (lambda: _random(3, 8, 20), [7, 8, 20]),       # rank 7, P = 20
        (lambda: _random(5, 60, 10, dup=True), [10, 11]),  # rank 10, P = 11
    ])
    def test_at_and_beyond_the_rank(self, make, ks):
        # the variance floor engages: flags and parameters still agree, and
        # the stop, on round-off, is not reported as convergence
        for k in ks:
            _assert_sppca_matches(make(), k, equal_iterations=False)
            hyper = fit_sppca(make(), k).hyperparams
            assert hyper["variance_floored"] and not hyper["converged"]


class TestPlsMatchesDataForm:
    def test_every_k_and_gamma(self, case):
        data, _, ks = case
        for k in ks:
            fits = fit_pls_grid(data, k, DEFAULT_GAMMA_GRID)
            for gamma, fit in zip(DEFAULT_GAMMA_GRID, fits):
                np.testing.assert_allclose(fit.basis, _pls_data_form(data, k, gamma),
                                           rtol=0, atol=BASIS_ATOL)

    @pytest.mark.parametrize("make, k, rank", [
        (lambda: _random(3, 8, 20), 8, 7),
        (lambda: _random(3, 8, 20), 20, 7),
        (lambda: _random(5, 60, 10, dup=True), 11, 10),
    ])
    @pytest.mark.parametrize("gamma", [0.0, 1e-4, 1.0, 1e4, math.inf])
    def test_beyond_the_rank_raises_typed(self, make, k, rank, gamma):
        data = make()
        with pytest.raises(ValueError, match="basis is not orthonormal"):
            _pls_data_form(data, k, gamma)
        text = ("X^T y vanishes" if gamma == 0.0 else "deflated data vanished")
        with pytest.raises(DegenerateDirectionError,
                           match=re.escape(f"{text} at iteration {rank + 1}")) as exc:
            fit_pls_extended(data, k, gamma)
        assert exc.value.iteration == rank + 1

    @pytest.mark.parametrize("grid", [[1.0, 0.0, math.inf], [0.0, 2.0]])
    def test_vanishing_xty_raises_at_once(self, grid):
        # orthogonal equal-norm columns and y along one of them: one gamma = 0
        # component explains y, so X^T y vanishes at iteration 2 (gamma > 0
        # carries on, among tied eigenvalues).  The data form measured X^T y
        # against the deflated |X_k| |y_k|, itself round-off by then: it took
        # a round-off direction at iteration 2 and raised at iteration 3
        g = np.random.default_rng(7).standard_normal((30, 4))
        x = 3.0 * np.linalg.qr(g - g.mean(axis=0))[0]
        data = Dataset(x, x[:, 1].copy())
        with pytest.raises(DegenerateDirectionError,
                           match=re.escape("X^T y vanishes at iteration 3")):
            _pls_data_form(data, 3, 0.0)
        with pytest.raises(DegenerateDirectionError,
                           match=re.escape("X^T y vanishes at iteration 2")) as exc:
            fit_pls_grid(data, 3, grid)
        assert exc.value.iteration == 2

    def test_y_orthogonal_to_x(self):
        data = _random(6, 40, 5)
        y = data.y - data.X @ np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        data = Dataset(data.X, y)
        for fit in (lambda d: _pls_data_form(d, 2, 0.0),
                    lambda d: fit_pls_extended(d, 2, 0.0)):
            with pytest.raises(DegenerateDirectionError,
                               match=re.escape("X^T y vanishes at iteration 1")):
                fit(data)

    def test_k_above_p(self):
        data = _random(6, 40, 5)
        for fit in (_pls_data_form, fit_pls_extended):
            with pytest.raises(ValueError, match="^K=6 exceeds P=5$"):
                fit(data, 6, 1.0)


# ---------------------------------------------------------------------------
# The moments themselves
# ---------------------------------------------------------------------------

class TestDatasetMoments:
    def test_values_cached_and_read_only(self):
        data = _random(8, 30, 6)
        mom = data.moments
        np.testing.assert_array_equal(mom.xx, data.X.T @ data.X)
        np.testing.assert_array_equal(mom.xy, data.X.T @ data.y)
        assert mom.yy == float(data.y @ data.y) and mom.n == 30
        assert data.moments is mom
        for arr in (mom.xx, mom.xy):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_fits_read_only_the_moments(self):
        """Once a dataset's moments exist, SPPCA, PLS, Barshan, LSPCA and
        PCA give the same bits with every row of X and y set to NaN."""
        data = _random(9, 50, 8)
        hidden = Dataset(data.X.copy(), data.y.copy())
        hidden.moments  # from the real rows
        hidden.X[:] = np.nan
        hidden.y[:] = np.nan
        grid = [0.0, 0.5, math.inf]
        fits = [
            (lambda d: fit_sppca(d, 3).basis),
            (lambda d: np.stack([f.basis for f in fit_pls_grid(d, 4, grid)])),
            (lambda d: np.stack([fit_barshan_extended(d, 3, g).basis for g in grid])),
            (lambda d: np.stack([r.basis for r, _ in fit_lspca_sweep(d, [3], [0.5, math.inf])[3]])),
            (lambda d: pca_reducer(d, 3).basis),
        ]
        for fit in fits:
            np.testing.assert_array_equal(fit(hidden), fit(data))
