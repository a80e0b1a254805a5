"""The real-data K sweep against the per-K loop it replaced.

``_per_k_run_real_data`` writes the sweep out as it was before each method
was fitted by one registry call over the K range: every (K, method) point a
fresh ``fit_method`` call.  The sweep's reports must be byte-identical to it
for every method; the LSPCA tests run its first-order descent at every K
(``first_order_lspca``), which at these P would otherwise take Newton
steps.  ``FittedReducer.prefix`` of a prefix method's largest fit must equal
a fresh fit at every smaller K, bit for bit, and every registry fit over a K
range must equal its fit at each K alone, bit for bit.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import sdr.intrinsic
import sdr.methods
import sdr.wrappers
from sdr.data import (Dataset, FittedReducer, IngestError, center_dataset,
                      fit_centering, load_csv)
from sdr.intrinsic import fit_lspca_sweep
from sdr.linalg import (DegenerateDirectionError, RankDeficientError,
                        sym_eig_topk)
from sdr.methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, METHODS,
                         _prefixes, attempt_fit, fit_method, fit_sweep)
from sdr.realdata import (TEST_FRACTION, VAL_FRACTION, CurvePoint,
                          RealDataConfig, RealDataResult, curves_to_csv,
                          result_to_json, run_real_data, spectrum_to_csv)
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial

NESTED = ("ols", "pca", "pv", "pcps", "pls")


def _write_wine_csv():
    """The benchmark's wine-shaped CSV writer (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_sdr_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.write_wine_csv


write_wine_csv = _write_wine_csv()


def _per_k_run_real_data(config):
    """The K sweep fitting every (K, method) point afresh."""
    data, names = load_csv(config.path, config.response,
                           delimiter=config.delimiter, drop=tuple(config.drop))
    n, p = data.X.shape
    n_test = int(math.floor(TEST_FRACTION * n))
    n_train = n - n_test
    perm = np.random.default_rng(config.seed).permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    n_val = int(round(VAL_FRACTION * n_train))
    fit_idx, val_idx = train_idx[:n_train - n_val], train_idx[n_train - n_val:]
    raw_fit, raw_val, raw_test = (Dataset(data.X[idx], data.y[idx])
                                  for idx in (fit_idx, val_idx, test_idx))
    transform = fit_centering(raw_fit, unit_scale=True)
    train, val, test = (center_dataset(d, transform)
                        for d in (raw_fit, raw_val, raw_test))
    spectrum = sym_eig_topk(train.X.T @ train.X, p).values
    k_max = p if config.k_max is None else min(config.k_max, p)
    result = RealDataResult(feature_names=names, n_train=n_train,
                            n_test=n_test, spectrum=spectrum)
    for k in range(config.k_min, k_max + 1):
        for method in config.methods:
            result.points.append(CurvePoint(method, k, *attempt_fit(
                lambda: fit_method(method, train, val, k,
                                   gamma_grid=config.gamma_grid),
                train, test)))
    return result


@pytest.fixture(scope="module")
def wine_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("wine") / "wine.csv"
    write_wine_csv(5, path)
    return path


@pytest.fixture(scope="module")
def tiny_wine_csv(tmp_path_factory):
    """8 fit rows for 11 columns: PCPS scores only 7 components, and PV and
    PLS break down at the eighth, so their largest fits raise."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    write_wine_csv(5, path, n=12)
    return path


def _config(path, **kw):
    return RealDataConfig(**{"path": str(path), "response": "quality",
                             "delimiter": ";", "k_min": 1, "k_max": 11,
                             "seed": 11, **kw})


# ---------------------------------------------------------------------------
# The sweep against the per-K loop
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("first_order_lspca")
class TestSweepOracle:
    def _assert_same_reports(self, config):
        got = run_real_data(config)
        want = _per_k_run_real_data(config)
        assert curves_to_csv(got) == curves_to_csv(want)
        assert result_to_json(got) == result_to_json(want)
        assert spectrum_to_csv(got) == spectrum_to_csv(want)
        return got

    def test_wine_all_methods(self, wine_csv):
        result = self._assert_same_reports(_config(wine_csv))
        assert len(result.points) == 11 * len(DEFAULT_METHODS)
        assert all(pt.error is None for pt in result.points)

    def test_falls_back_per_k_when_the_largest_fit_raises(self, tiny_wine_csv):
        result = self._assert_same_reports(_config(tiny_wine_csv))
        errors = {(pt.method, pt.k): pt.error for pt in result.points}
        for method in ("pv", "pcps", "pls"):
            assert all(errors[method, k] is None for k in range(1, 8))
            assert all(errors[method, k] is not None for k in range(8, 12))
        assert errors["pcps", 9] == ("ValueError: K=9 exceeds the 7 "
                                     "nonzero-variance components")

    def test_k_min_above_one_and_method_order(self, wine_csv):
        self._assert_same_reports(_config(
            wine_csv, methods=("pls", "sppca", "pcps", "ols"), k_min=4))

    def test_smallest_k_above_p_raises(self, wine_csv):
        with pytest.raises(IngestError, match=r"K=12 exceeds P=11"):
            run_real_data(_config(wine_csv, k_min=12, k_max=None))


# ---------------------------------------------------------------------------
# Prefixes of the largest fit against fresh fits
# ---------------------------------------------------------------------------

def _wine_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("split") / "wine.csv"
    write_wine_csv(3, path, n=700)
    data, _ = load_csv(path, "quality", delimiter=";")
    fit = Dataset(data.X[:500], data.y[:500])
    return center_dataset(fit, fit_centering(fit, unit_scale=True))


def _p100_trial():
    spec = TrialSpec(spectrum=SpectrumSpec("fast"), alignment="mis",
                     n_train=150, seed=4)
    train = generate_trial(spec).train
    return center_dataset(train, fit_centering(train))


@pytest.fixture(scope="module", params=["wine_p11", "fast_mis_p100"])
def split(request, tmp_path_factory):
    if request.param == "wine_p11":
        return _wine_split(tmp_path_factory), 11
    return _p100_trial(), 15


def _grid(entry):
    return [None] if entry.gamma is None else entry.tuning_grid(DEFAULT_GAMMA_GRID)


def _fits(name, data, k):
    entry = METHODS[name]
    return entry.fit(data, [k], _grid(entry))[k]


def _assert_bitwise_equal(a: FittedReducer, b: FittedReducer):
    assert (a.method, a.k) == (b.method, b.k)
    for layout in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
        assert a.basis.flags[layout] == b.basis.flags[layout]
    assert a.basis.tobytes() == b.basis.tobytes()
    assert a.hyperparams == b.hyperparams


@pytest.mark.parametrize("name", NESTED)
def test_prefix_equals_fresh_fit(name, split):
    data, k_max = split
    largest = _fits(name, data, k_max)
    for k in range(1, k_max + 1):
        fresh = _fits(name, data, k)
        assert len(fresh) == len(largest)
        for whole, want in zip(largest, fresh):
            if want is None:  # ols: the raw features at every K
                assert whole is None
                continue
            _assert_bitwise_equal(whole.prefix(k), want)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.usefixtures("first_order_lspca")
def test_joint_fit_equals_one_k_fit(name, split):
    """``fit(data, ks, gammas)[k]`` is ``fit(data, [k], gammas)[k]``, bit
    for bit."""
    data, k_max = split
    entry = METHODS[name]
    ks = list(range(1, k_max + 1)) if k_max <= 11 else [1, 5, k_max]
    joint = entry.fit(data, ks, _grid(entry))
    assert list(joint) == ks
    for k in ks:
        alone = entry.fit(data, [k], _grid(entry))[k]
        assert len(joint[k]) == len(alone)
        for got, want in zip(joint[k], alone):
            if want is None:  # ols: the raw features at every K
                assert got is None
            else:
                _assert_bitwise_equal(got, want)


class TestPrefix:
    def _basis_reducer(self):
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 4)))[0]
        return FittedReducer("pcps", 4, basis=basis, hyperparams={
            "score": "pearson", "selected_components": [2, 0, 3, 1],
            "component_scores": [0.9, 0.5, 0.2, 0.1]})

    def test_cuts_per_component_hyperparams(self):
        cut = self._basis_reducer().prefix(2)
        assert cut.k == 2 and cut.basis.shape == (6, 2)
        assert cut.basis.flags.c_contiguous
        assert cut.hyperparams == {"score": "pearson",
                                   "selected_components": [2, 0],
                                   "component_scores": [0.9, 0.5]}

    def test_does_not_share_the_basis(self):
        whole = self._basis_reducer()
        cut = whole.prefix(3)
        cut.basis[0, 0] += 1.0
        assert whole.basis[0, 0] != cut.basis[0, 0]

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=r"must lie in \[1, 4\]"):
            self._basis_reducer().prefix(k)


# ---------------------------------------------------------------------------
# fit_sweep itself
# ---------------------------------------------------------------------------

class TestFitSweep:
    def test_component_solves_once_per_sweep(self, tmp_path, tiny_wine_csv,
                                             monkeypatch):
        """PLS solves one top eigenvector per gamma > 0 and component (a
        slice of a stacked ``sym_eig_top1`` call), and takes gamma = 0's
        closed form; PV one stacked solve per component.  Over K = 1..11
        that is 17 x 11 PLS and 11 PV component solves, not 17 x 66 and
        66.  On the 12-row CSV both break down at component 8: the fit at
        K = 11 solves 8 components and the fit again at K = 7 solves 7, so
        each kernel runs twice and solves 15 components, not 68."""
        counts = dict.fromkeys(("pls", "pv", "fit_pls_grid", "fit_pv"), 0)

        def counting(module, attr, key, solves=lambda *args: 1):
            fn = getattr(module, attr)

            def counted(*args, **kwargs):
                counts[key] += solves(*args)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, attr, counted)

        counting(sdr.intrinsic, "sym_eig_top1", "pls", lambda mats: len(mats))
        counting(sdr.intrinsic, "_supervised_direction", "pls")
        counting(sdr.wrappers, "sym_eig_top1", "pv")
        counting(sdr.methods, "fit_pls_grid", "fit_pls_grid")
        counting(sdr.methods, "fit_pv", "fit_pv")
        path = tmp_path / "wine.csv"
        write_wine_csv(2, path, n=600)
        grid = len(DEFAULT_GAMMA_GRID)
        for csv, solves, runs, failed in ((path, 11, 1, set()),
                                         (tiny_wine_csv, 15, 2, set(range(8, 12)))):
            counts.update(dict.fromkeys(counts, 0))
            result = run_real_data(_config(csv, methods=("pls", "pv")))
            assert {pt.k for pt in result.points if pt.error} == failed
            assert counts == {"pls": grid * solves, "pv": solves,
                              "fit_pls_grid": runs, "fit_pv": runs}

    def test_unknown_method_raises_per_k(self):
        data = _p100_trial()
        thunks = fit_sweep("zebra", data, data, [1, 2])
        assert set(thunks) == {1, 2}
        with pytest.raises(ValueError, match="unknown method 'zebra'"):
            thunks[2]()

    def test_missing_validation_split_raises_per_k(self):
        data = _p100_trial()
        thunks = fit_sweep("pls", data, None, [1, 3])
        for k in (1, 3):
            with pytest.raises(ValueError, match="needs a validation split"):
                thunks[k]()

    def test_empty_k_range(self):
        data = _p100_trial()
        assert fit_sweep("pca", data, data, []) == {}

    def test_a_failing_joint_fit_is_every_ks_error(self, monkeypatch,
                                                   first_order_lspca):
        """A Stiefel step that fails on stacks of three or more columns
        breaks LSPCA's joint fit over K = 1..4; the sweep's one registry
        call raises, and its error is every K's."""
        stiefel_step = sdr.intrinsic.stiefel_step
        sweeps = []

        def failing(u, grad, step):
            if u.shape[-1] >= 3:
                raise RankDeficientError(2)
            return stiefel_step(u, grad, step)

        def counted(*args):
            sweeps.append(args[1])
            return fit_lspca_sweep(*args)

        rng = np.random.default_rng(21)
        x = rng.standard_normal((80, 6))
        y = x @ rng.standard_normal(6) + 0.5 * rng.standard_normal(80)
        raw_train, raw_val = Dataset(x[:60], y[:60]), Dataset(x[60:], y[60:])
        transform = fit_centering(raw_train)
        train, val = (center_dataset(d, transform) for d in (raw_train, raw_val))
        monkeypatch.setattr(sdr.intrinsic, "stiefel_step", failing)
        monkeypatch.setattr(sdr.methods, "fit_lspca_sweep", counted)
        thunks = fit_sweep("lspca", train, val, [1, 2, 3, 4])
        assert sweeps == [[1, 2, 3, 4]]
        for k in (1, 2, 3, 4):
            with pytest.raises(RankDeficientError, match="column 2"):
                thunks[k]()
            assert attempt_fit(thunks[k], train, val)[3] == (
                "RankDeficientError: " + str(RankDeficientError(2)))


class TestPrefixes:
    def test_errors_by_component_and_by_k(self):
        """A kernel that degenerates at component 8 and refuses K = 6 and
        7 on their own: over K = 1..11 it runs at K = 11, 7, 6 and 5; Ks
        8-11 share the component error, 6 and 7 keep their own, and 1-5
        take the prefixes of the fit at 5."""
        calls = []
        degenerate = DegenerateDirectionError(8)

        def kernel(data, k, gammas):
            calls.append(k)
            if k >= 8:
                raise degenerate
            if k in (6, 7):
                raise ValueError(f"K={k} is refused")
            return [FittedReducer("pca", k, basis=np.eye(11)[:, :k].copy())]

        out = _prefixes(kernel)(None, list(range(1, 12)), [None])
        assert calls == [11, 7, 6, 5]
        assert list(out) == list(range(1, 12))
        assert all(out[k] is degenerate for k in range(8, 12))
        for k in (6, 7):
            assert isinstance(out[k], ValueError) and str(out[k]) == f"K={k} is refused"
        for k in range(1, 6):
            _assert_bitwise_equal(out[k][0], kernel(None, k, [None])[0])
