"""Real-data evaluation protocol: scale features to [0,1], center, split by a
seeded shuffle, and sweep the subspace dimension across every method."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, IngestError, center_dataset, fit_centering, load_csv
from .methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, attempt_fit,
                      fit_method)
from .linalg import sym_eig_topk


@dataclass(frozen=True)
class RealDataConfig:
    path: str
    response: str
    delimiter: str = ","
    drop: tuple = ()
    methods: tuple = DEFAULT_METHODS
    k_min: int = 1
    k_max: int | None = None       # None: up to P
    seed: int = 0
    test_fraction: float = 0.2     # floor(0.2 N) test rows, remainder train
    val_fraction: float = 0.2      # carved from the training split
    gamma_grid: tuple = DEFAULT_GAMMA_GRID
    score: str = "pearson"

    def __post_init__(self):
        if self.k_min < 1:
            raise ValueError("K range must start at 1 or above")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ValueError("k_max must be >= the smallest K")


@dataclass
class CurvePoint:
    method: str
    k: int
    train_mse: float | None
    test_mse: float | None
    hyperparams: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class RealDataResult:
    feature_names: list[str]
    n_train: int
    n_test: int
    spectrum: np.ndarray   # eigenvalues of the training covariance
    points: list[CurvePoint] = field(default_factory=list)


def run_real_data(config: RealDataConfig) -> RealDataResult:
    data, names = load_csv(config.path, config.response,
                           delimiter=config.delimiter, drop=tuple(config.drop))
    n, p = data.X.shape
    n_test = int(math.floor(config.test_fraction * n))
    n_train = n - n_test
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    n_val = int(round(config.val_fraction * n_train))
    fit_idx, val_idx = train_idx[:n_train - n_val], train_idx[n_train - n_val:]
    if min(len(fit_idx), n_val, n_test) < 2:
        raise IngestError(f"{n} data rows split into {len(fit_idx)} fit, "
                          f"{n_val} validation and {n_test} test rows; "
                          "each split needs at least 2")

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
                lambda: fit_method(method, train, val, k, score=config.score,
                                   gamma_grid=config.gamma_grid),
                train, test)))
    return result


def curves_to_csv(result: RealDataResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("method", "K", "train_mse", "test_mse"))
    for pt in result.points:
        writer.writerow((pt.method, pt.k,
                         "" if pt.train_mse is None else repr(pt.train_mse),
                         "" if pt.test_mse is None else repr(pt.test_mse)))
    return buf.getvalue()


def spectrum_to_csv(result: RealDataResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("index", "eigenvalue"))
    for i, lam in enumerate(result.spectrum, start=1):
        writer.writerow((i, repr(float(lam))))
    return buf.getvalue()


def result_to_json(result: RealDataResult) -> str:
    return json.dumps({
        "feature_names": result.feature_names,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "note": "responses left in original units; MSE is uncentered",
        "spectrum": [float(v) for v in result.spectrum],
        "points": [
            {"method": pt.method, "k": pt.k, "train_mse": pt.train_mse,
             "test_mse": pt.test_mse, "hyperparams": pt.hyperparams,
             "error": pt.error}
            for pt in result.points
        ],
    }, indent=1)
