import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest

from sdr import methods, wrappers
from sdr.data import Dataset
from sdr.realdata import (RealDataConfig, curves_to_csv, result_to_json,
                          run_real_data, spectrum_to_csv)


@pytest.fixture(scope="module")
def linear_csv(tmp_path_factory):
    """Synthetic regression table: 5 informative features, known response."""
    rng = np.random.default_rng(0)
    n = 240
    x = rng.uniform(0.0, 10.0, size=(n, 5))
    y = x @ np.array([0.5, -0.2, 0.1, 0.0, 0.3]) + 0.1 * rng.standard_normal(n)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    header = "f1;f2;f3;f4;f5;target"
    rows = [";".join(f"{v:.10f}" for v in row) + f";{t:.10f}"
            for row, t in zip(x, y)]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sppca_at_full_k_on_an_exactly_linear_response(tmp_path, seed):
    """y = X (1, ..., 5) exactly: at K = P every latent model fits the data
    with zero noise, and each K ends in a finite fit or a typed error."""
    x = np.random.default_rng(seed).standard_normal((60, 5))
    path = tmp_path / "linear.csv"
    np.savetxt(path, np.column_stack([x, x @ np.arange(1.0, 6.0)]),
               delimiter=",", header="a,b,c,d,e,y", comments="")
    result = run_real_data(RealDataConfig(path=str(path), response="y",
                                          methods=("sppca",)))
    assert [pt.k for pt in result.points] == [1, 2, 3, 4, 5]
    typed = ("ValueError", "RankDeficientError", "DegenerateDirectionError",
             "IterationLimitError")
    for pt in result.points:
        if pt.error is None:
            assert math.isfinite(pt.train_mse) and math.isfinite(pt.test_mse)
        else:
            assert pt.error.startswith(typed), pt.error


def test_split_sizes_follow_eighty_twenty(linear_csv):
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("ols",), k_min=1, k_max=1)
    result = run_real_data(config)
    assert result.n_test == math.floor(0.2 * 240)
    assert result.n_train == 240 - result.n_test


def test_split_rule_on_uci_dataset_sizes():
    # floor(0.2 N) testing rows at the two UCI dataset sizes
    for n, train, test in ((4898, 3919, 979), (5875, 4700, 1175)):
        n_test = math.floor(0.2 * n)
        assert (n - n_test, n_test) == (train, test)


def test_curves_and_spectrum(linear_csv):
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("ols", "pca", "pls"),
                            k_min=1, k_max=3, seed=1)
    result = run_real_data(config)
    assert len(result.spectrum) == 5
    assert np.all(np.diff(result.spectrum) <= 0)
    assert len(result.points) == 3 * 3
    for pt in result.points:
        assert pt.error is None
        assert pt.train_mse >= 0 and pt.test_mse >= 0

    csv_text = curves_to_csv(result)
    assert csv_text.splitlines()[0] == "method,K,train_mse,test_mse"
    assert spectrum_to_csv(result).splitlines()[0] == "index,eigenvalue"
    assert "uncentered" in result_to_json(result)


def test_full_k_pca_equals_ols(linear_csv):
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("ols", "pca"),
                            k_min=5, k_max=5, seed=2)
    result = run_real_data(config)
    by_method = {pt.method: pt for pt in result.points}
    assert by_method["pca"].test_mse == pytest.approx(
        by_method["ols"].test_mse, abs=1e-6)


def test_deterministic(linear_csv):
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("pca",), k_min=2, k_max=2,
                            seed=3)
    assert curves_to_csv(run_real_data(config)) == curves_to_csv(run_real_data(config))


def test_one_method_fitted_at_a_time(linear_csv, monkeypatch):
    # every reducer of the first method is gone when the second is fitted,
    # so a sweep holds one method's (K, gamma) grid of reducers at a time
    pca, pls = methods.METHODS["pca"], methods.METHODS["pls"]
    first = []
    alive_at_second = []

    def record_pca(data, ks, gammas):
        fits = pca.fit(data, ks, gammas)
        first.extend(weakref.ref(r) for rs in fits.values() for r in rs)
        return fits

    def check_pls(data, ks, gammas):
        gc.collect()
        alive_at_second.extend(r for r in first if r() is not None)
        return pls.fit(data, ks, gammas)

    monkeypatch.setitem(methods.METHODS, "pca",
                        dataclasses.replace(pca, fit=record_pca))
    monkeypatch.setitem(methods.METHODS, "pls",
                        dataclasses.replace(pls, fit=check_pls))
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("pca", "pls"),
                            k_min=1, k_max=3, seed=1)
    result = run_real_data(config)
    assert [(pt.method, pt.k) for pt in result.points] == [
        (m, k) for k in (1, 2, 3) for m in ("pca", "pls")]
    assert all(pt.error is None for pt in result.points)
    assert len(first) == 3 and not alive_at_second


def test_one_thin_qr_per_training_split(linear_csv, monkeypatch):
    """Every least-squares fit of a pass (each gamma candidate scored, each
    chosen fit and each Bair M) solves from the training split's one QR."""
    factored, fits = [], []
    real_factor = Dataset.factor.func

    def factor(data):
        factored.append(data)
        return real_factor(data)
    counted = functools.cached_property(factor)
    counted.__set_name__(Dataset, "factor")
    monkeypatch.setattr(Dataset, "factor", counted)
    for module in (methods, wrappers):
        real_ols_fit = module.ols_fit
        monkeypatch.setattr(module, "ols_fit", lambda z, y, real=real_ols_fit:
                            fits.append(y) or real(z, y))
    result = run_real_data(RealDataConfig(path=str(linear_csv),
                                          response="target", delimiter=";"))
    assert all(pt.error is None for pt in result.points)
    assert len(factored) == 1
    assert len(fits) > len(result.points)
    assert all(y is factored[0].factor for y in fits)


def test_k_range_validation():
    with pytest.raises(ValueError):
        RealDataConfig(path="x.csv", response="y", k_min=0)
    with pytest.raises(ValueError):
        RealDataConfig(path="x.csv", response="y", k_min=3, k_max=2)


@pytest.mark.parametrize("field, value, message", [
    ("methods", ("pca", "zebra"), r"unknown methods \['zebra'\]"),
    ("methods", (), "method list is empty"),
    ("gamma_grid", (), "gamma grid is empty"),
    ("gamma_grid", (0.0, -1.0), "gamma values must be >= 0"),
    ("gamma_grid", (1.0, math.nan), "gamma values must be >= 0"),
    ("delimiter", "", "delimiter must be one character"),
    ("delimiter", ";;", "delimiter must be one character"),
])
def test_config_rejects_bad_methods_or_gamma_grid(field, value, message):
    # refused at construction, before any file is read
    with pytest.raises(ValueError, match=message):
        RealDataConfig(path="x.csv", response="y", **{field: value})


def test_supervised_beats_pca_at_low_k(linear_csv):
    # response is a linear combination of raw features, so one supervised
    # direction should explain it far better than the top variance direction
    config = RealDataConfig(path=str(linear_csv), response="target",
                            delimiter=";", methods=("pca", "pls", "lspca"),
                            k_min=1, k_max=1, seed=4)
    result = run_real_data(config)
    by_method = {pt.method: pt for pt in result.points}
    assert by_method["pls"].test_mse < by_method["pca"].test_mse
    assert by_method["lspca"].test_mse < by_method["pca"].test_mse
