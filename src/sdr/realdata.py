"""Real-data evaluation protocol: scale features to [0,1], center, split by a
seeded shuffle, and sweep the subspace dimension across every method."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (Dataset, IngestError, center_dataset, csv_text,
                   fit_centering, load_csv)
from .methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, attempt_fit,
                      check_gamma_grid, check_methods, fit_sweep)
from .linalg import sym_eig_topk

#: floor(TEST_FRACTION * N) rows are the test split, the rest train; the
#: last round(VAL_FRACTION * train) training rows are the validation split.
TEST_FRACTION = 0.2
VAL_FRACTION = 0.2


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
    gamma_grid: tuple = DEFAULT_GAMMA_GRID

    def __post_init__(self):
        if self.k_min < 1:
            raise ValueError("K range must start at 1 or above")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ValueError("k_max must be >= the smallest K")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got "
                             f"{self.delimiter!r}")
        check_methods(self.methods)
        check_gamma_grid(self.gamma_grid)


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
    n_test = int(math.floor(TEST_FRACTION * n))
    n_train = n - n_test
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    n_val = int(round(VAL_FRACTION * n_train))
    fit_idx, val_idx = train_idx[:n_train - n_val], train_idx[n_train - n_val:]
    if min(len(fit_idx), n_val, n_test) < 2:
        raise IngestError(f"{n} data rows split into {len(fit_idx)} fit, "
                          f"{n_val} validation and {n_test} test rows; "
                          "each split needs at least 2")
    if config.k_min > p:
        raise IngestError(f"smallest K={config.k_min} exceeds P={p}, the "
                          "number of feature columns")

    raw_fit, raw_val, raw_test = (Dataset(data.X[idx], data.y[idx])
                                  for idx in (fit_idx, val_idx, test_idx))
    transform = fit_centering(raw_fit, unit_scale=True)
    train, val, test = (center_dataset(d, transform)
                        for d in (raw_fit, raw_val, raw_test))

    spectrum = sym_eig_topk(train.moments.xx, p).values
    k_max = p if config.k_max is None else min(config.k_max, p)
    ks = range(config.k_min, k_max + 1)
    result = RealDataResult(feature_names=names, n_train=n_train,
                            n_test=n_test, spectrum=spectrum)
    # each method is set up once for the whole K range; points stay in
    # (K, method) order
    sweeps = {method: fit_sweep(method, train, val, ks,
                                gamma_grid=config.gamma_grid)
              for method in config.methods}
    for k in ks:
        for method in config.methods:
            result.points.append(CurvePoint(method, k, *attempt_fit(
                sweeps[method][k], train, test)))
    return result


def curves_to_csv(result: RealDataResult) -> str:
    return csv_text(("method", "K", "train_mse", "test_mse"),
                    ((pt.method, pt.k, pt.train_mse, pt.test_mse)
                     for pt in result.points))


def spectrum_to_csv(result: RealDataResult) -> str:
    return csv_text(("index", "eigenvalue"), enumerate(result.spectrum, start=1))


def result_to_json(result: RealDataResult) -> str:
    return json.dumps({
        "feature_names": result.feature_names,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "note": "responses left in original units; MSE is uncentered",
        "spectrum": [float(v) for v in result.spectrum],
        "points": [asdict(pt) for pt in result.points],
    }, indent=1)
