"""The moment screen of candidate selection: gamma tuning and Bair's choice
of M score only the candidates the moment-form bound cannot rule out, and
choose exactly what scoring every candidate on the rows chooses."""

import functools
import math

import numpy as np
import pytest

import sdr.methods as methods
import sdr.regression as regression
import sdr.wrappers as wrappers
from sdr.data import Dataset, center_dataset, fit_centering
from sdr.linalg import sym_eig_topk
from sdr.methods import (DEFAULT_GAMMA_GRID, METHODS, TIE_RTOL, _choose,
                         fit_sweep, with_model)
from sdr.regression import moment_mse, mse, ols_fit, select_candidate
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial
from sdr.wrappers import fit_bair, score_variables

TUNED = ("pls", "barshan", "lspca")


def _splits(x, y, n_val, unit_scale=False):
    """Fit and validation splits, both centered on the fit rows."""
    raw_fit = Dataset(x[:-n_val], y[:-n_val])
    raw_val = Dataset(x[-n_val:], y[-n_val:])
    transform = fit_centering(raw_fit, unit_scale=unit_scale)
    return center_dataset(raw_fit, transform), center_dataset(raw_val, transform)


def wine_shaped(seed, n=1500, p=11):
    """Skewed, positive, correlated features on different scales and a graded
    response, scaled to [0, 1] and split like a real-data run."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    z = (rng.standard_normal((n, p)) * np.sqrt(0.4 ** np.arange(p))) @ basis.T
    z /= z.std(axis=0)
    x = 0.1 + np.geomspace(1.0, 300.0, p) * np.exp(0.5 * z)
    y = np.rint(5.9 + z @ (basis[:, 1] + basis[:, 3]) + 0.6 * rng.standard_normal(n))
    return _splits(x, y, n // 5, unit_scale=True)


def ill_conditioned(seed, noise, n=200, p=12):
    """Columns scaled over six decades, column 1 a 1e-7-perturbed copy of
    column 0, and a linear response."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * np.logspace(0, -6, p)
    x[:, 1] = x[:, 0] + 1e-7 * rng.standard_normal(n)
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return _splits(x, y, n // 5)


def trial_splits(spectrum, alignment, seed):
    trial = generate_trial(TrialSpec(SpectrumSpec(spectrum), alignment, 150, seed))
    transform = fit_centering(trial.train)
    return (center_dataset(trial.train, transform),
            center_dataset(trial.validation, transform))


def random_splits(seed, n, p):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    return _splits(x, x[:, :3].sum(axis=1) + 0.1 * rng.standard_normal(n), n // 5)


def _exhaustive(gammas, reducers, train, val):
    """The selection rule scoring every gamma on the rows, as before the
    screen: the lowest finite validation MSE, the earliest gamma among
    those within TIE_RTOL."""
    scored = []
    for gamma, reducer in zip(gammas, reducers):
        fit = with_model(reducer, train)
        val_mse = fit.evaluate(val)
        if math.isfinite(val_mse):
            scored.append((val_mse, gamma, fit))
    cutoff = min(s[0] for s in scored) * (1.0 + TIE_RTOL)
    val_mse, gamma, fit = next(s for s in scored if s[0] <= cutoff)
    fit.hyperparams.update({"gamma": gamma, "val_mse": val_mse})
    return fit


def _check_choose(name, train, val, gammas, fits):
    """_choose picks what the exhaustive rule picks at every K that fits."""
    checked = 0
    for k, reducers in fits.items():
        if isinstance(reducers, Exception):
            continue
        want = _exhaustive(gammas, reducers, train, val)
        got = _choose(name, gammas, reducers, train, val)
        assert got.reducer is want.reducer, (name, k)
        assert got.hyperparams == want.hyperparams, (name, k)
        assert got.hyperparams["val_mse"].hex() == want.hyperparams["val_mse"].hex()
        assert np.array_equal(got.model.coefficients, want.model.coefficients)
        checked += 1
    assert checked


def _brute_bair(data, k):
    """Bair's choice of M scoring every M on the rows, as before the screen:
    the lowest training MSE of the model fitted from the split's thin QR,
    the smaller M on a tie."""
    x, y = data.X, data.y
    p = data.p
    _, order = score_variables(x, y)
    best_mse, best_m, best_basis = np.inf, None, None
    for m in range(k, p + 1):
        idx = order[:m]
        basis = np.zeros((p, k))
        basis[idx] = sym_eig_topk(data.moments.xx[np.ix_(idx, idx)], k).vectors
        candidate_mse = mse(ols_fit(basis, data.factor).predict(x @ basis), y)
        if candidate_mse < best_mse:
            best_mse, best_m, best_basis = candidate_mse, m, basis
    return best_m, best_mse, best_basis


FAMILIES = {
    **{f"wine-{s}": (lambda s=s: wine_shaped(s)) for s in (5, 6)},
    **{f"ill-{s}-{noise}": (lambda s=s, noise=noise: ill_conditioned(s, noise))
       for s in range(3) for noise in (1e-6, 1.0)},
    "k-equals-p": lambda: random_splits(0, 60, 6),
    "p-above-n": lambda: random_splits(1, 30, 40),
}


@functools.lru_cache(maxsize=None)
def _family(family):
    return FAMILIES[family]()


@functools.lru_cache(maxsize=None)
def _family_fits(family, name):
    """(train, val, gammas, {k: reducers or error}) at K = 1..min(P, 12)."""
    train, val = _family(family)
    gammas = METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID)
    ks = list(range(1, min(train.p, 12) + 1))
    return train, val, gammas, METHODS[name].fit(train, ks, gammas)


class TestChooseMatchesExhaustive:
    @pytest.mark.parametrize("name", TUNED)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_k(self, family, name):
        _check_choose(name, *_family_fits(family, name))

    @pytest.mark.parametrize("alignment", ["mis", "well", "partial"])
    @pytest.mark.parametrize("spectrum", ["fast", "slow"])
    def test_p100_trials(self, spectrum, alignment):
        train, val = trial_splits(spectrum, alignment, 11)
        for name in TUNED:
            gammas = METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID)
            _check_choose(name, train, val, gammas,
                          METHODS[name].fit(train, [15], gammas))


class TestBairMatchesBruteForce:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_k(self, family):
        train, _ = _family(family)
        for k in range(1, min(train.p, 12) + 1):
            fit = fit_bair(train, k)
            m, selection_mse, basis = _brute_bair(train, k)
            assert fit.hyperparams["m"] == m
            assert fit.hyperparams["selection_mse"].hex() == selection_mse.hex()
            assert np.array_equal(fit.basis, basis)


class TestScreenIsSound:
    """The bound holds, and no candidate the screen drops lies within the
    rule's exact cutoff."""

    @staticmethod
    def _check(bases, fit, score, exact_all, rtol):
        exact = np.array(exact_all)
        m, delta = moment_mse(bases, fit, score)
        assert np.all(np.abs(m - exact) <= delta)
        scored = []
        chosen = select_candidate(bases, fit, score,
                                  lambda i: scored.append(i) or exact[i], rtol)
        finite = exact[np.isfinite(exact)]
        cutoff = finite.min() * (1.0 + rtol)
        # a bitwise copy of a scored candidate takes its score
        seen = {bases[i].tobytes() for i in scored}
        assert len(seen) == len(scored)
        dropped = [i for i in range(len(exact)) if bases[i].tobytes() not in seen]
        assert np.all(exact[dropped] > cutoff)
        assert chosen[0] == np.flatnonzero(exact <= cutoff)[0]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gamma_candidates(self, family):
        for name in TUNED:
            train, val, _, fits = _family_fits(family, name)
            for reducers in fits.values():
                if isinstance(reducers, Exception):
                    continue
                exact = [with_model(r, train).evaluate(val) for r in reducers]
                self._check(np.stack([r.basis for r in reducers]),
                            train.moments, val.moments, exact, TIE_RTOL)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bair_candidates(self, family, monkeypatch):
        train, _ = _family(family)
        stacks = []
        monkeypatch.setattr(wrappers, "select_candidate",
                            lambda bases, *args: stacks.append(bases) or (0, 0.0))
        for k in range(1, min(train.p, 12) + 1):
            fit_bair(train, k)
        for bases in stacks:
            exact = [mse(ols_fit(basis, train.factor).predict(train.X @ basis),
                         train.y) for basis in bases]
            self._check(bases, train.moments, train.moments, exact, 0.0)


def test_wine_shaped_split_fits_few_candidates(monkeypatch):
    train, val = wine_shaped(5)
    calls = []
    real_ols_fit = methods.ols_fit
    monkeypatch.setattr(methods, "ols_fit",
                        lambda z, y: calls.append(None) or real_ols_fit(z, y))
    ks = range(1, train.p + 1)
    candidates = 0
    for name in TUNED:
        candidates += len(ks) * len(METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID))
        for fit in fit_sweep(name, train, val, ks).values():
            fit()
    assert len(calls) <= candidates // 4


class TestDuplicateCandidates:
    """At K = P every LSPCA gamma returns the same closed-form PCA basis;
    bitwise-equal candidates are scored on the rows once."""

    @pytest.mark.parametrize("family", ["wine-5", "k-equals-p"])
    def test_one_ols_fit_for_lspca_at_full_k(self, family, monkeypatch):
        train, val = _family(family)
        gammas = METHODS["lspca"].tuning_grid(DEFAULT_GAMMA_GRID)
        reducers = METHODS["lspca"].fit(train, [train.p], gammas)[train.p]
        assert len({r.basis.tobytes() for r in reducers}) == 1 < len(reducers)
        want = _exhaustive(gammas, reducers, train, val)
        calls = []
        real_ols_fit = methods.ols_fit
        monkeypatch.setattr(methods, "ols_fit",
                            lambda z, y: calls.append(None) or real_ols_fit(z, y))
        got = _choose("lspca", gammas, reducers, train, val)
        assert len(calls) == 1
        assert got.reducer is want.reducer
        assert got.hyperparams == want.hyperparams
        assert got.hyperparams["val_mse"].hex() == want.hyperparams["val_mse"].hex()
        assert np.array_equal(got.model.coefficients, want.model.coefficients)

    def test_copies_take_the_first_score(self, monkeypatch):
        monkeypatch.setattr(regression, "moment_mse",
                            lambda bases, *args: (np.ones(len(bases)),
                                                  np.zeros(len(bases))))
        a, b = np.eye(4)[:, :2], np.eye(4)[:, 1:3]
        scored = []
        chosen = select_candidate(np.stack([a, b, a, b.copy()]), None, None,
                                  lambda i: scored.append(i) or [2.0, 1.0][i], 0.0)
        assert scored == [0, 1] and chosen == (1, 1.0)


class TestFallback:
    def test_non_finite_moment_score_scores_every_candidate(self, monkeypatch):
        train, val = wine_shaped(5)
        real = regression.moment_mse

        def nan_first(bases, fit, score):
            m, delta = real(bases, fit, score)
            m[0] = math.nan
            return m, delta

        monkeypatch.setattr(regression, "moment_mse", nan_first)
        scored = []
        chosen = select_candidate(np.stack([np.eye(11)[:, j:j + 2] for j in (0, 2, 4)]),
                                  train.moments,
                                  val.moments, lambda i: scored.append(i) or 1.0,
                                  TIE_RTOL)
        assert scored == [0, 1, 2] and chosen == (0, 1.0)

    def test_singular_basis_scores_every_candidate(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal((20, 3)), np.zeros(20)])
        data = Dataset(x, rng.standard_normal(20))
        bases = np.eye(4)[[0, 3], :, None]  # X e_3 = 0: A is singular
        _, delta = moment_mse(bases, data.moments, data.moments)
        assert delta[1] == math.inf
        scored = []
        select_candidate(bases, data.moments, data.moments,
                         lambda i: scored.append(i) or 1.0, 0.0)
        assert scored == [0, 1]

    def test_no_finite_kept_score_scores_the_rest(self, monkeypatch):
        monkeypatch.setattr(regression, "moment_mse",
                            lambda *args: (np.array([1.0, 5.0, 4.0]), np.zeros(3)))
        scored = []
        exact = [math.nan, 5.0, 4.0]
        chosen = select_candidate(np.eye(3)[:, :, None], None, None,
                                  lambda i: scored.append(i) or exact[i], 0.0)
        assert scored == [0, 1, 2] and chosen == (2, 4.0)

    def test_no_finite_score_at_all(self, monkeypatch):
        monkeypatch.setattr(regression, "moment_mse",
                            lambda *args: (np.array([1.0, 2.0]), np.zeros(2)))
        assert select_candidate(np.eye(2)[:, :, None], None, None,
                                lambda i: math.nan, 0.0) is None
