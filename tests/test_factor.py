"""Least squares from a dataset's thin QR against the N-row solve it replaced.

``ols_fit(B, data.factor)`` fits y on X B through the K-column system
(R B, Q^T y) of ``Dataset.factor``; ``np.linalg.lstsq(X B, y)`` is the
N-row solve every downstream model and Bair's scan used before.  The two
must make the same rank decision (singular values below eps max(N, K) of
the largest are dropped) and give the same coefficients and held-out
predictions to 1e-10 relative.

On the ill-conditioned family (a 1e-7 near-copy of a column) X B has
condition numbers near 2e7, and any two backward-stable solves of it differ
by about cond * eps: there the two fits agree to 10 cond(X B) eps instead.
They differ by up to 5.7e-9 relative on these splits, and each lies up to
about 8e-9 from the exact rational least-squares solution.
"""

import numpy as np
import pytest

from sdr.data import Dataset, Factor, center_dataset, fit_centering
from sdr.linalg import sym_eig_topk
from sdr.regression import ols_fit

RTOL = 1e-10
EPS = np.finfo(float).eps


def _splits(x, y, n_val, unit_scale=True):
    """Fit and held-out splits, both centered (and scaled) on the fit rows."""
    raw_fit, raw_val = Dataset(x[:-n_val], y[:-n_val]), Dataset(x[-n_val:], y[-n_val:])
    transform = fit_centering(raw_fit, unit_scale=unit_scale)
    return center_dataset(raw_fit, transform), center_dataset(raw_val, transform)


def wine_shaped(seed, n=1500, p=11):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    z = (rng.standard_normal((n, p)) * np.sqrt(0.4 ** np.arange(p))) @ basis.T
    z /= z.std(axis=0)
    x = 0.1 + np.geomspace(1.0, 300.0, p) * np.exp(0.5 * z)
    y = np.rint(5.9 + z @ (basis[:, 1] + basis[:, 3]) + 0.6 * rng.standard_normal(n))
    return _splits(x, y, n // 5)


def p_above_n(seed, n=30, p=40):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    return _splits(x, x[:, :3].sum(axis=1) + 0.1 * rng.standard_normal(n), n // 5)


def duplicated_column(seed, n=200, p=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 5] = x[:, 2]
    return _splits(x, x @ rng.standard_normal(p) + rng.standard_normal(n), n // 5)


def constant_column(seed, n=200, p=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 4] = 3.25
    return _splits(x, x @ rng.standard_normal(p) + rng.standard_normal(n), n // 5)


def ill_conditioned(seed, noise, n=200, p=12):
    """The CI step's CSV: columns over six decades, column 1 a
    1e-7-perturbed copy of column 0, and a linear response."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * np.logspace(0, -6, p)
    x[:, 1] = x[:, 0] + 1e-7 * rng.standard_normal(n)
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return _splits(x, y, n // 5)


FAMILIES = {
    **{f"wine-{s}": (lambda s=s: wine_shaped(s)) for s in (5, 6)},
    **{f"p-above-n-{s}": (lambda s=s: p_above_n(s)) for s in (1, 2)},
    "duplicated-column": lambda: duplicated_column(3),
    "constant-column": lambda: constant_column(4),
}
ILL = {f"ill-{s}-{noise}": (lambda s=s, noise=noise: ill_conditioned(s, noise))
       for s in range(3) for noise in (1e-6, 1.0)}


def _bases(train):
    """Every K's PCA basis and coordinate prefix, so K = P includes the
    identity: the raw-feature design of OLS."""
    p = train.p
    pca = sym_eig_topk(train.moments.xx, p).vectors
    for k in range(1, p + 1):
        yield pca[:, :k].copy()
        yield np.eye(p)[:, :k].copy()


def _rank(z, rows):
    s = np.linalg.svd(z, compute_uv=False)
    return int(np.sum(s > EPS * max(rows, z.shape[1]) * s[0]))


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _compare(train, val, rtol_of):
    factor = train.factor
    worst = 0.0
    for basis in _bases(train):
        z = train.X @ basis
        assert _rank(factor.r @ basis, train.n) == _rank(z, train.n)
        want, *_ = np.linalg.lstsq(z, train.y, rcond=None)
        got = ols_fit(basis, factor).coefficients
        rtol = rtol_of(z)
        assert _rel(got, want) <= rtol
        held_out = val.X @ basis
        assert _rel(held_out @ got, held_out @ want) <= rtol
        worst = max(worst, _rel(got, want))
    return worst


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_factored_fit_matches_the_row_fit(family):
    train, val = FAMILIES[family]()
    _compare(train, val, lambda z: RTOL)


@pytest.mark.parametrize("family", sorted(ILL))
def test_ill_conditioned_agreement_follows_the_condition_number(family):
    train, val = ILL[family]()
    worst = _compare(train, val, lambda z: max(RTOL, 10.0 * np.linalg.cond(z) * EPS))
    assert worst > 0.0  # the two solves differ here, by rounding


def test_rank_decisions_on_singular_designs():
    """A duplicated column and a constant one each cost the raw design one
    rank at K = P; P > N designs stop at the fit rows' rank."""
    for make, rank in ((lambda: duplicated_column(3), 7),
                       (lambda: constant_column(4), 7),
                       (lambda: p_above_n(1), 23)):
        train, _ = make()
        assert _rank(train.factor.r, train.n) == _rank(train.X, train.n) == rank


def test_cutoff_counts_the_unreduced_rows():
    """A singular value between eps P and eps N of the largest is dropped,
    as the N-row solve drops it; the P-row system's own default cutoff
    (eps P) would keep it and blow the coefficients up."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2000, 4))
    x[:, 3] = x[:, 1] + 2e-14 * rng.standard_normal(2000)
    data = Dataset(x, x @ np.array([1.0, 2.0, 0.0, -1.0]) + rng.standard_normal(2000))
    s = np.linalg.svd(data.X, compute_uv=False)
    assert EPS * 4 * s[0] < s[-1] < EPS * 2000 * s[0]
    want, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
    assert _rel(ols_fit(np.eye(4), data.factor).coefficients, want) <= RTOL
    kept, *_ = np.linalg.lstsq(data.factor.r, data.factor.qty, rcond=None)
    assert _rel(kept, want) > 1.0


def test_duplicated_columns_split_weight():
    train, _ = duplicated_column(3)
    coef = ols_fit(np.eye(train.p), train.factor).coefficients
    assert abs(coef[2] - coef[5]) <= RTOL * abs(coef[2])


class TestFactor:
    def test_is_a_thin_qr_of_the_rows(self):
        for train, _ in (wine_shaped(5), p_above_n(1)):
            factor = train.factor
            m = min(train.n, train.p)
            assert factor.r.shape == (m, train.p) and factor.qty.shape == (m,)
            assert factor.n == train.n
            assert np.allclose(np.triu(factor.r), factor.r, rtol=0, atol=0)
            gram = factor.r.T @ factor.r
            assert _rel(gram, train.moments.xx) <= 1e-12
            assert _rel(factor.r.T @ factor.qty, train.moments.xy) <= 1e-12

    def test_cached_and_read_only(self):
        train, _ = wine_shaped(5)
        assert train.factor is train.factor
        assert isinstance(train.factor, Factor)
        with pytest.raises(ValueError):
            train.factor.r[0, 0] = 1.0
        with pytest.raises(ValueError):
            train.factor.qty[0] = 1.0

    def test_shape_and_finite_checks(self):
        train, _ = wine_shaped(5)
        with pytest.raises(ValueError):
            ols_fit(np.ones((train.p + 1, 2)), train.factor)
        with pytest.raises(ValueError, match="non-finite"):
            ols_fit(np.full((train.p, 2), np.nan), train.factor)
