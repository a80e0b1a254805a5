import math

import numpy as np
import pytest

import sdr.methods as methods
from sdr.cli import _methods
from sdr.data import ORTHONORMAL_BASIS, Dataset
from sdr.methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, GAMMA_NONNEGATIVE,
                         GAMMA_POSITIVE, METHODS, check_methods, fit_method)
from sdr.simulation import BenchConfig


def _train_val(seed=0, n=40, p=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    x, y = x - x.mean(axis=0), y - y.mean()
    return Dataset(x[:30], y[:30]), Dataset(x[30:], y[30:])


class TestRegistry:
    def test_one_method_list(self):
        with pytest.raises(ValueError) as exc:
            check_methods(_methods("zebra"))
        cli_choices = str(exc.value).split("choose from ")[1].split(", ")
        assert set(cli_choices) == set(DEFAULT_METHODS)
        # 'all' leaves the config default, every method
        assert _methods("all") is None
        assert BenchConfig().methods == DEFAULT_METHODS
        assert set(DEFAULT_METHODS) == set(ORTHONORMAL_BASIS) | {"ols"}

    def test_report_row_order(self):
        assert DEFAULT_METHODS == ("ols", "pca", "bair", "pv", "pcps",
                                   "pls", "barshan", "lspca", "sppca")

    def test_gamma_domains(self):
        domains = {name: entry.gamma for name, entry in METHODS.items()}
        assert domains == {"ols": None, "pca": None, "bair": None, "pv": None,
                           "pcps": None, "pls": GAMMA_NONNEGATIVE,
                           "barshan": GAMMA_NONNEGATIVE,
                           "lspca": GAMMA_POSITIVE, "sppca": None}
        assert METHODS["lspca"].tuning_grid(DEFAULT_GAMMA_GRID) == \
            list(DEFAULT_GAMMA_GRID[1:])
        assert METHODS["pls"].tuning_grid(DEFAULT_GAMMA_GRID) == \
            list(DEFAULT_GAMMA_GRID)

    @pytest.mark.parametrize("name", DEFAULT_METHODS)
    def test_every_entry_fits(self, name):
        train, val = _train_val()
        fit = fit_method(name, train, val, 2)
        assert fit.method == name
        assert (fit.reducer is None) == (name == "ols")
        if fit.reducer is not None:
            assert fit.reducer.method == name
        assert math.isfinite(fit.evaluate(val))
        if METHODS[name].gamma is not None:
            assert math.isfinite(fit.hyperparams["val_mse"])

    def test_bench_config_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="zebra"):
            BenchConfig(methods=("pca", "zebra"))

    def test_unknown_method(self):
        train, val = _train_val()
        with pytest.raises(ValueError, match="unknown method"):
            fit_method("zebra", train, val, 1)


class TestGammaTuning:
    @pytest.mark.parametrize("name", ["pls", "barshan", "lspca"])
    def test_no_finite_validation_mse_raises(self, name):
        train, _ = _train_val()
        rng = np.random.default_rng(1)
        xv = rng.standard_normal((3, 5))
        xv[0] = [1e308, -1e308, 1e308, -1e308, 1e308]
        val = Dataset(xv, rng.standard_normal(3))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=name):
            fit_method(name, train, val, 2)

    def test_non_finite_candidate_is_skipped(self, monkeypatch):
        train, val = _train_val()
        calls = []
        real_mse = methods.mse

        def nan_first(pred, truth):
            calls.append(None)
            return math.nan if len(calls) == 1 else real_mse(pred, truth)

        monkeypatch.setattr(methods, "mse", nan_first)
        fit = fit_method("pls", train, val, 2)
        assert fit.hyperparams["gamma"] != DEFAULT_GAMMA_GRID[0]
        assert math.isfinite(fit.hyperparams["val_mse"])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["pls", "barshan", "lspca"])
    def test_full_rank_k_picks_first_in_domain_gamma(self, name, seed):
        # at K = P every gamma spans the whole space: validation MSEs differ
        # by rounding only, so the earliest in-domain grid point wins
        train, val = _train_val(seed, n=60, p=6)
        fit = fit_method(name, train, val, 6)
        assert fit.hyperparams["gamma"] == \
            METHODS[name].tuning_grid(DEFAULT_GAMMA_GRID)[0]

    def test_near_ties_go_to_the_earliest_gamma(self, monkeypatch):
        train, val = _train_val()
        mses = iter([2.0, 1.0 + 5e-11, 1.0, 1.0 + 2e-10] + [3.0] * 20)
        monkeypatch.setattr(methods, "mse", lambda pred, truth: next(mses))
        fit = fit_method("pls", train, val, 2)
        assert fit.hyperparams["gamma"] == DEFAULT_GAMMA_GRID[1]
        assert fit.hyperparams["val_mse"] == 1.0 + 5e-11

    def test_empty_in_domain_grid_names_method_and_domain(self, monkeypatch):
        train, val = _train_val()
        fitted = []
        monkeypatch.setattr(methods, "fit_lspca_grid",
                            lambda *args: fitted.append(args) or [])
        with pytest.raises(ValueError, match=r"lspca.*\(0, inf\]"):
            fit_method("lspca", train, val, 2, gamma_grid=(0.0,))
        assert not fitted

    def test_needs_validation_split(self):
        train, _ = _train_val()
        with pytest.raises(ValueError, match="validation"):
            fit_method("pls", train, None, 2)
