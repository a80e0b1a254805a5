"""Candidate selection from the splits' triangular factors: gamma tuning and
Bair's choice of M fit every candidate in one stacked solve on the fit
split's ``Dataset.factor`` and score it exactly from the scoring split's,
by |X B c - y| = |r B c - Q^T y|, and choose what scoring every candidate
one at a time that way chooses."""

import functools
import math

import numpy as np
import pytest

import sdr.methods as methods
import sdr.wrappers as wrappers
from sdr.data import Dataset, center_dataset, fit_centering
from sdr.linalg import sym_eig_topk
from sdr.methods import (DEFAULT_GAMMA_GRID, METHODS, TIE_RTOL, _choose,
                         fit_sweep)
from sdr.regression import factor_mse, mse, ols_fit, ols_stack, select_candidate
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial
from sdr.wrappers import fit_bair, score_variables

TUNED = ("pls", "barshan", "lspca")
EPS = np.finfo(float).eps


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


def _factor_score(basis, train, val):
    """One candidate's model, fitted alone from ``train.factor``, and its
    exact MSE on ``val`` from ``val.factor``."""
    coef = ols_fit(basis, train.factor).coefficients
    return coef, float(factor_mse(basis[None], coef[None], val.factor)[0])


def _exhaustive(gammas, reducers, train, val):
    """The selection rule scoring every gamma one at a time by the factor
    identity: the lowest finite validation MSE, the earliest gamma among
    those within TIE_RTOL.  (index, coefficients, validation MSE)."""
    scored = [(s, i, coef) for i, r in enumerate(reducers)
              for coef, s in [_factor_score(r.basis, train, val)]
              if math.isfinite(s)]
    cutoff = min(s for s, _, _ in scored) * (1.0 + TIE_RTOL)
    val_mse, i, coef = next(s for s in scored if s[0] <= cutoff)
    return i, coef, val_mse


def _check_choose(name, train, val, gammas, fits):
    """_choose picks what the exhaustive rule picks at every K that fits,
    with the same coefficients and validation MSE bit for bit."""
    checked = 0
    for k, reducers in fits.items():
        if isinstance(reducers, Exception):
            continue
        i, coef, val_mse = _exhaustive(gammas, reducers, train, val)
        got = _choose(name, gammas, reducers, train, val)
        assert got.reducer is reducers[i], (name, k)
        assert got.hyperparams == {**reducers[i].hyperparams,
                                   "gamma": gammas[i], "val_mse": val_mse}
        assert got.hyperparams["val_mse"].hex() == val_mse.hex()
        assert np.array_equal(got.model.coefficients, coef)
        checked += 1
    assert checked


def _brute_bair(data, k):
    """Bair's choice of M scoring every M one at a time by the factor
    identity on the training split: the lowest training MSE, the smaller M
    on a tie."""
    p = data.p
    _, order = score_variables(data.X, data.y)
    best_mse, best_m, best_basis = np.inf, None, None
    for m in range(k, p + 1):
        idx = order[:m]
        basis = np.zeros((p, k))
        basis[idx] = sym_eig_topk(data.moments.xx[np.ix_(idx, idx)], k).vectors
        _, candidate_mse = _factor_score(basis, data, data)
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


@functools.lru_cache(maxsize=None)
def _trial_fits(spectrum, alignment, name):
    """(train, val, gammas, {15: reducers}) of a P = 100 trial."""
    train, val = trial_splits(spectrum, alignment, 11)
    gammas = METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID)
    return train, val, gammas, METHODS[name].fit(train, [15], gammas)


def _bair_stacks(train, monkeypatch):
    """The (g, P, K) candidate stacks Bair solves at K = 1..min(P, 12)."""
    stacks = []
    real = wrappers.ols_stack
    monkeypatch.setattr(wrappers, "ols_stack",
                        lambda bases, factor: stacks.append(bases) or real(bases, factor))
    for k in range(1, min(train.p, 12) + 1):
        fit_bair(train, k)
    return stacks


class TestChooseMatchesExhaustive:
    @pytest.mark.parametrize("name", TUNED)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_k(self, family, name):
        _check_choose(name, *_family_fits(family, name))

    @pytest.mark.parametrize("alignment", ["mis", "well", "partial"])
    @pytest.mark.parametrize("spectrum", ["fast", "slow"])
    def test_p100_trials(self, spectrum, alignment):
        for name in TUNED:
            _check_choose(name, *_trial_fits(spectrum, alignment, name))


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
    """Every candidate is screened by its exact factor score, which agrees
    with the MSE of the same model computed on the rows.  Both forms round
    within about eps (|y_s| + |X_s| |B c|)^2 / n_s of the true MSE; over
    these families the two lie at most 1.5 of that apart, so 100 leaves
    wide headroom.  On the ill-conditioned families that scale dwarfs the
    MSE itself, which cancels: there the two forms differ by up to about
    6e-10 relative."""

    @staticmethod
    def _check(bases, train, val):
        coefficients = ols_stack(bases, train.factor)
        scores = factor_mse(bases, coefficients, val.factor)
        maps = (bases @ coefficients[..., None])[..., 0]
        rows = np.array([mse(val.X @ w, val.y) for w in maps])
        scale = (np.linalg.norm(val.y)
                 + np.linalg.norm(val.X) * np.linalg.norm(maps, axis=1)) ** 2 / val.n
        assert np.all(np.abs(scores - rows) <= 100 * EPS * scale)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gamma_candidates(self, family):
        for name in TUNED:
            train, val, _, fits = _family_fits(family, name)
            for reducers in fits.values():
                if not isinstance(reducers, Exception):
                    self._check(np.stack([r.basis for r in reducers]), train, val)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bair_candidates(self, family, monkeypatch):
        train, _ = _family(family)
        for bases in _bair_stacks(train, monkeypatch):
            self._check(bases, train, train)


class TestFactoredChoiceIsTheRowChoice:
    """Where the splits are well conditioned, scoring the stacked solve's
    models on the rows chooses what scoring them from the factor does."""

    @staticmethod
    def _check(bases, train, val, rtol):
        coefficients = ols_stack(bases, train.factor)
        rows = np.array([mse(val.X @ (b @ c), val.y)
                         for b, c in zip(bases, coefficients)])
        scores = factor_mse(bases, coefficients, val.factor)
        assert select_candidate(scores, rtol) == select_candidate(rows, rtol)

    def _check_gammas(self, train, val, fits):
        for reducers in fits.values():
            if not isinstance(reducers, Exception):
                self._check(np.stack([r.basis for r in reducers]), train, val,
                            TIE_RTOL)

    @pytest.mark.parametrize("family", ["wine-5", "wine-6", "k-equals-p",
                                        "p-above-n"])
    def test_families(self, family, monkeypatch):
        for name in TUNED:
            train, val, _, fits = _family_fits(family, name)
            self._check_gammas(train, val, fits)
        train, _ = _family(family)
        for bases in _bair_stacks(train, monkeypatch):
            self._check(bases, train, train, 0.0)

    @pytest.mark.parametrize("alignment", ["mis", "well", "partial"])
    @pytest.mark.parametrize("spectrum", ["fast", "slow"])
    def test_p100_trials(self, spectrum, alignment):
        for name in TUNED:
            train, val, _, fits = _trial_fits(spectrum, alignment, name)
            self._check_gammas(train, val, fits)


def test_wine_shaped_split_solves_once_per_choice(monkeypatch):
    """Each (method, K) fits all its gammas in one stacked solve on the fit
    split's factor; no candidate is fitted or scored on its own."""
    train, val = wine_shaped(5)
    stacks, fits = [], []
    real_stack = methods.ols_stack
    monkeypatch.setattr(methods, "ols_stack", lambda bases, factor: stacks.append(
        (len(bases), factor)) or real_stack(bases, factor))
    monkeypatch.setattr(methods, "ols_fit", lambda *args: fits.append(None))
    ks = range(1, train.p + 1)
    for name in TUNED:
        for fit in fit_sweep(name, train, val, ks).values():
            fit()
    assert not fits
    assert [g for g, _ in stacks] == [
        len(METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID))
        for name in TUNED for _ in ks]
    assert all(factor is train.factor for _, factor in stacks)


class TestDuplicateCandidates:
    """At K = P every LSPCA gamma returns the same closed-form PCA basis;
    bitwise-equal candidates get bitwise-equal scores from the stacked
    solve, so the earliest gamma wins."""

    @pytest.mark.parametrize("family", ["wine-5", "k-equals-p"])
    def test_one_ols_fit_for_lspca_at_full_k(self, family, monkeypatch):
        train, val = _family(family)
        gammas = METHODS["lspca"].tuning_grid(DEFAULT_GAMMA_GRID)
        reducers = METHODS["lspca"].fit(train, [train.p], gammas)[train.p]
        assert len({r.basis.tobytes() for r in reducers}) == 1 < len(reducers)
        i, coef, val_mse = _exhaustive(gammas, reducers, train, val)
        calls = []
        real_stack = methods.ols_stack
        monkeypatch.setattr(methods, "ols_stack", lambda bases, factor:
                            calls.append(None) or real_stack(bases, factor))
        got = _choose("lspca", gammas, reducers, train, val)
        assert len(calls) == 1
        assert i == 0 and got.reducer is reducers[0]
        assert got.hyperparams["gamma"] == gammas[0]
        assert got.hyperparams["val_mse"].hex() == val_mse.hex()
        assert np.array_equal(got.model.coefficients, coef)

    def test_copies_take_the_first_score(self):
        assert select_candidate(np.array([2.0, 1.0, 2.0, 1.0]), 0.0) == 1


class TestFallback:
    """A candidate whose score is not finite is passed over; the rule runs
    on the rest."""

    def test_singular_basis_scores_every_candidate(self):
        """X B with a zero column (a constant feature) has a singular
        least-squares system; its minimum-norm solution still scores."""
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal((20, 3)), np.zeros(20)])
        data = Dataset(x, rng.standard_normal(20))
        bases = np.eye(4)[[0, 3], :, None]  # X e_3 = 0
        coefficients = ols_stack(bases, data.factor)
        assert coefficients[1, 0] == 0.0
        scores = factor_mse(bases, coefficients, data.factor)
        assert np.all(np.isfinite(scores))
        assert scores[1] == pytest.approx(data.moments.yy / data.n, rel=1e-12)
        assert select_candidate(scores, 0.0) == 0

    def test_no_finite_kept_score_scores_the_rest(self):
        assert select_candidate(np.array([math.nan, 5.0, 4.0]), 0.0) == 2
        assert select_candidate(np.array([math.inf, 4.0, 4.0 + 1e-15]), 1e-10) == 1

    def test_no_finite_score_at_all(self):
        assert select_candidate(np.array([math.nan, math.inf]), 0.0) is None
