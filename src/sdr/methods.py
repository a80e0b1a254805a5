"""The method registry and the uniform fit pipeline over it.

``METHODS`` is the one place a benchmark method is named: each entry says how
to fit the method's reducer on a centered training split and where its
balance hyperparameter gamma may range.  Methods with a gamma domain choose
gamma by validation MSE over a log grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, FittedReducer, json_safe, reduce
from .intrinsic import (fit_barshan_extended, fit_lspca, fit_lspca_grid,
                        fit_pls_extended, fit_sppca)
from .regression import RegressionModel, mse, ols_fit
from .wrappers import fit_bair, fit_pcps, fit_pv

#: Validation grid for the balance hyperparameter.
DEFAULT_GAMMA_GRID = (0.0,) + tuple(np.logspace(-4.0, 4.0, 15)) + (math.inf,)

#: gamma domains: the balanced eigenproblems accept gamma = 0 (fully
#: supervised); LSPCA's reconstruction weight must be positive.
GAMMA_NONNEGATIVE = "[0, inf]"
GAMMA_POSITIVE = "(0, inf]"

#: Validation MSEs within this relative distance of the best count as tied;
#: the earliest grid point among them wins.  At K = P every gamma spans the
#: whole space and the MSEs differ only by rounding.
TIE_RTOL = 1e-10


@dataclass(frozen=True)
class Method:
    """One registry entry.

    ``fit(train, k, gamma, **opts)`` returns the fitted reducer, or None for
    the raw-feature baseline; the ``score`` option reaches the methods that
    rank variables.  ``gamma`` is the gamma domain, or None for a method
    without gamma (its fit ignores the argument).  ``fit_grid(train, k,
    gammas)``, when given, fits a whole gamma grid at once (see ``fit_all``).
    """

    fit: Callable[..., FittedReducer | None]
    gamma: str | None = None
    fit_grid: Callable[..., list] | None = None

    def fit_all(self, train: Dataset, k: int, gammas) -> list:
        """The reducers at every gamma of ``gammas``, in grid order."""
        if self.fit_grid is not None:
            return self.fit_grid(train, k, gammas)
        return [self.fit(train, k, gamma) for gamma in gammas]

    def tuning_grid(self, grid) -> list:
        """The grid points inside the domain.  gamma = 0 is dropped from an
        open domain; other out-of-domain values are left for the fit to
        reject."""
        if self.gamma == GAMMA_POSITIVE:
            return [g for g in grid if g > 0]
        return list(grid)


def pca_reducer(data: Dataset, k: int) -> FittedReducer:
    from .linalg import sym_eig_topk
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    return FittedReducer("pca", k, basis=sym_eig_topk(data.X.T @ data.X, k).vectors)


# Entries call the fit functions through this module's globals at call time,
# so a function rebound here (e.g. by a tracer) is the one that runs.
METHODS = {
    "ols": Method(lambda d, k, g, **opts: None),
    "pca": Method(lambda d, k, g, **opts: pca_reducer(d, k)),
    "bair": Method(lambda d, k, g, **opts: fit_bair(d, k, **opts)),
    "pv": Method(lambda d, k, g, **opts: fit_pv(d, k, **opts)),
    "pcps": Method(lambda d, k, g, **opts: fit_pcps(d, k, **opts)),
    "pls": Method(lambda d, k, g, **opts: fit_pls_extended(d, k, g),
                  GAMMA_NONNEGATIVE),
    "barshan": Method(lambda d, k, g, **opts: fit_barshan_extended(d, k, g),
                      GAMMA_NONNEGATIVE),
    "lspca": Method(lambda d, k, g, **opts: fit_lspca(d, k, g)[0],
                    GAMMA_POSITIVE,
                    fit_grid=lambda d, k, gs: [r for r, _ in fit_lspca_grid(d, k, gs)]),
    "sppca": Method(lambda d, k, g, **opts: fit_sppca(d, k)),
}

#: Benchmark roster in report row order: the raw-feature baseline, classic
#: PCA, and the supervised reducers (PLS and Barshan run balanced).
DEFAULT_METHODS = tuple(METHODS)


@dataclass
class MethodFit:
    """A fitted method: optional reducer plus the downstream linear model."""

    method: str
    reducer: FittedReducer | None
    model: RegressionModel
    hyperparams: dict

    def predict(self, x: np.ndarray) -> np.ndarray:
        z = x if self.reducer is None else reduce(self.reducer, x)
        return self.model.predict(z)

    def evaluate(self, data: Dataset) -> float:
        return mse(self.predict(data.X), data.y)


def with_model(method: str, reducer: FittedReducer | None,
               train: Dataset) -> MethodFit:
    """Fit the downstream least-squares model on the reduced training set."""
    z = train.X if reducer is None else reduce(reducer, train.X)
    hyper = {} if reducer is None else dict(reducer.hyperparams)
    return MethodFit(method, reducer, ols_fit(z, train.y), hyper)


def _tune_gamma(name: str, entry: Method, train: Dataset, val: Dataset | None,
                k: int, grid) -> MethodFit:
    if val is None:
        raise ValueError(f"{name} needs a validation split to choose gamma")
    gammas = entry.tuning_grid(grid)
    if not gammas:
        raise ValueError(f"{name}: no gamma in the grid lies in its domain "
                         f"{entry.gamma}")
    scored = []
    for gamma, reducer in zip(gammas, entry.fit_all(train, k, gammas)):
        fit = with_model(name, reducer, train)
        val_mse = fit.evaluate(val)
        if math.isfinite(val_mse):
            scored.append((val_mse, gamma, fit))
    if not scored:
        raise ValueError(f"{name}: no gamma in the grid gives a finite "
                         "validation MSE")
    cutoff = min(s[0] for s in scored) * (1.0 + TIE_RTOL)
    val_mse, gamma, fit = next(s for s in scored if s[0] <= cutoff)
    fit.hyperparams.update({"gamma": gamma, "val_mse": val_mse})
    return fit


def fit_method(name: str, train: Dataset, val: Dataset | None, k: int, *,
               score: str = "pearson",
               gamma_grid=DEFAULT_GAMMA_GRID) -> MethodFit:
    """Fit one registered method on centered data.

    ``train`` and ``val`` must share the centering transform.  ``val`` is
    only consulted by the methods with a gamma domain.
    """
    entry = METHODS.get(name)
    if entry is None:
        raise ValueError(f"unknown method {name!r}")
    if entry.gamma is not None:
        return _tune_gamma(name, entry, train, val, k, gamma_grid)
    return with_model(name, entry.fit(train, k, None, score=score), train)


def attempt_fit(fit: Callable[[], MethodFit], train: Dataset,
                test: Dataset) -> tuple:
    """Run ``fit()`` and score it: (train MSE, test MSE, JSON-safe
    hyperparams, None), or (None, None, {}, error text) if it raised."""
    try:
        result = fit()
        return (result.evaluate(train), result.evaluate(test),
                json_safe(result.hyperparams), None)
    except Exception as exc:
        return None, None, {}, f"{type(exc).__name__}: {exc}"
