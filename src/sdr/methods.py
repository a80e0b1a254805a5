"""The method registry and the uniform fit pipeline over it.

``METHODS`` is the one place a benchmark method is named: each entry says how
to fit the method's reducer on a centered training split and where its
balance hyperparameter gamma may range.  Methods with a gamma domain choose
gamma by validation MSE over a log grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .data import Dataset, FittedReducer, json_safe, reduce
from .intrinsic import (fit_barshan_extended, fit_lspca_grid, fit_pls_grid,
                        fit_sppca)
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

    ``fit(train, k, gammas)`` returns the fitted reducers at every gamma of
    ``gammas``, in grid order; the raw-feature baseline's reducer is None.
    ``gamma`` is the gamma domain, or None for a method without gamma, which
    is fitted once, at ``gammas = [None]``.  ``nested`` marks a method whose
    fit at K is ``FittedReducer.prefix(K)`` of its fit at any larger K, bit
    for bit, so a K sweep fits it once (see ``fit_sweep``).
    """

    fit: Callable[[Dataset, int, list], list]
    gamma: str | None = None
    nested: bool = False

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
    return FittedReducer("pca", k, basis=sym_eig_topk(data.moments.xx, k).vectors)


# Entries call the fit functions through this module's globals at call time,
# so a function rebound here (e.g. by a tracer) is the one that runs.
# Barshan is not nested: at gamma = 0 its completion orthonormalizes the
# trailing columns together, and the first columns of that are not bitwise
# the completion at a smaller K.
METHODS = {
    "ols": Method(lambda d, k, gs: [None], nested=True),
    "pca": Method(lambda d, k, gs: [pca_reducer(d, k)], nested=True),
    "bair": Method(lambda d, k, gs: [fit_bair(d, k)]),
    "pv": Method(lambda d, k, gs: [fit_pv(d, k)], nested=True),
    "pcps": Method(lambda d, k, gs: [fit_pcps(d, k)], nested=True),
    "pls": Method(lambda d, k, gs: fit_pls_grid(d, k, gs), GAMMA_NONNEGATIVE,
                  nested=True),
    "barshan": Method(lambda d, k, gs: [fit_barshan_extended(d, k, g)
                                        for g in gs], GAMMA_NONNEGATIVE),
    "lspca": Method(lambda d, k, gs: [r for r, _ in fit_lspca_grid(d, k, gs)],
                    GAMMA_POSITIVE),
    "sppca": Method(lambda d, k, gs: [fit_sppca(d, k)]),
}

#: Benchmark roster in report row order: the raw-feature baseline, classic
#: PCA, and the supervised reducers (PLS and Barshan run balanced).
DEFAULT_METHODS = tuple(METHODS)


def check_methods(methods) -> None:
    """Refuse an empty method list, a name not in ``METHODS`` or a repeat."""
    if not methods:
        raise ValueError("method list is empty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; "
                         f"choose from {', '.join(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"method list {list(methods)} names a method twice")


def check_gamma_grid(grid) -> None:
    """Refuse an empty gamma grid, or one with a negative or NaN point."""
    if not grid:
        raise ValueError("gamma grid is empty")
    if not all(g >= 0 for g in grid):
        raise ValueError(f"gamma values must be >= 0, got {list(grid)}")


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


def _gammas(name: str, entry: Method, val: Dataset | None, grid) -> list:
    """The gammas ``entry`` is fitted at: [None] for a method without
    gamma, else the in-domain points of ``grid``."""
    if entry.gamma is None:
        return [None]
    if val is None:
        raise ValueError(f"{name} needs a validation split to choose gamma")
    gammas = entry.tuning_grid(grid)
    if not gammas:
        raise ValueError(f"{name}: no gamma in the grid lies in its domain "
                         f"{entry.gamma}")
    return gammas


def _choose(name: str, entry: Method, gammas: list, reducers: list,
            train: Dataset, val: Dataset | None) -> MethodFit:
    """The fit of ``reducers``, fitted at ``gammas``: the one reducer of a
    method without gamma, else the one with the lowest finite validation
    MSE, the earliest grid point among those tied within ``TIE_RTOL``."""
    if entry.gamma is None:
        return with_model(name, reducers[0], train)
    scored = []
    for gamma, reducer in zip(gammas, reducers):
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
               gamma_grid=DEFAULT_GAMMA_GRID) -> MethodFit:
    """Fit one registered method on centered data.

    ``train`` and ``val`` must share the centering transform.  ``val`` is
    only consulted by the methods with a gamma domain.
    """
    entry = METHODS.get(name)
    if entry is None:
        raise ValueError(f"unknown method {name!r}")
    gammas = _gammas(name, entry, val, gamma_grid)
    return _choose(name, entry, gammas, entry.fit(train, k, gammas), train, val)


def fit_sweep(name: str, train: Dataset, val: Dataset | None, ks, *,
              gamma_grid=DEFAULT_GAMMA_GRID) -> dict:
    """``{k: thunk}`` over ``ks``: each thunk returns what ``fit_method(name,
    train, val, k, ...)`` returns, or raises what it raises.

    A nested method is fitted once at ``max(ks)`` (a whole gamma grid for
    a tuned one) and each K takes the prefixes; gamma is then chosen per K
    on them.  Every other method, and a nested one whose shared fit raises,
    is fitted per K by ``fit_method``, so every error text and every
    partial success across the K range is the per-K one.
    """
    ks = list(ks)
    per_k = {k: partial(fit_method, name, train, val, k, gamma_grid=gamma_grid)
             for k in ks}
    entry = METHODS.get(name)
    if entry is None or not entry.nested or not ks:
        return per_k
    try:
        gammas = _gammas(name, entry, val, gamma_grid)
        shared = entry.fit(train, max(ks), gammas)
    except Exception:  # the per-K fits reproduce it, K by K
        return per_k

    def fit_k(k):
        return _choose(name, entry, gammas,
                       [None if r is None else r.prefix(k) for r in shared],
                       train, val)
    return {k: partial(fit_k, k) for k in ks}


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
