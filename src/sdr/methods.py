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
from .intrinsic import (fit_barshan_sweep, fit_lspca_sweep, fit_pls_grid,
                        fit_sppca)
from .linalg import DegenerateDirectionError
from .regression import (RegressionModel, factor_mse, mse, ols_fit, ols_stack,
                         select_candidate)
from .wrappers import fit_bair, fit_pcps, fit_pv

#: Validation grid for the balance hyperparameter.
DEFAULT_GAMMA_GRID = (0.0,) + tuple(np.logspace(-4.0, 4.0, 15)) + (math.inf,)

#: gamma domains: the balanced eigenproblems accept gamma = 0 (fully
#: supervised); LSPCA's reconstruction weight must be positive.
GAMMA_NONNEGATIVE = "[0, inf]"
GAMMA_POSITIVE = "(0, inf]"

#: Share of a training budget whose last int(round(VAL_FRACTION * n)) rows
#: are the validation split on which gamma is chosen.
VAL_FRACTION = 0.2

#: Validation MSEs within this relative distance of the best count as tied;
#: the earliest grid point among them wins.  At K = P every gamma spans the
#: whole space and the MSEs differ only by rounding.
TIE_RTOL = 1e-10


@dataclass(frozen=True)
class Method:
    """One registry entry.

    ``fit(train, ks, gammas)`` returns ``{k: reducers}`` over the Ks of
    ``ks``, each list holding the fitted reducers at every gamma of
    ``gammas`` in grid order, or else the error the fit at K raises; the
    raw-feature baseline's reducer is None.  ``gamma`` is the gamma domain,
    or None for a method without gamma, fitted at ``gammas = [None]``.
    """

    fit: Callable[[Dataset, list, list], dict]
    gamma: str | None = None

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


def _outcome(fit: Callable, *args):
    """``fit(*args)``, or the error it raises."""
    try:
        return fit(*args)
    except Exception as exc:
        return exc


def _per_k(fit: Callable[[Dataset, int, list], list]) -> Callable:
    """The registry fit over Ks of a method fitted at each K on its own."""
    return lambda d, ks, gs: {k: _outcome(fit, d, k, gs) for k in ks}


def _prefixes(fit: Callable[[Dataset, int, list], list]) -> Callable:
    """The registry fit over Ks of a method whose fit at K is, bit for bit,
    ``FittedReducer.prefix(K)`` of its fit at any larger K: ``fit(train, k,
    gammas)`` runs at the largest K, and every K takes the prefixes.  An
    error at component j (``DegenerateDirectionError``) is every K >= j's,
    any other error its K's alone; the fit then runs at the largest K left."""
    def fit_ks(train: Dataset, ks, gammas) -> dict:
        out, pending = {}, sorted(set(ks))
        while pending:
            top = pending[-1]
            fits = _outcome(fit, train, top, gammas)
            if not isinstance(fits, Exception):
                out.update((k, [r.prefix(k) for r in fits]) for k in pending)
                break
            j = (min(fits.iteration, top)
                 if isinstance(fits, DegenerateDirectionError) else top)
            out.update((k, fits) for k in pending if k >= j)
            pending = [k for k in pending if k < j]
        return {k: out[k] for k in ks}
    return fit_ks


# Entries call the fit functions through this module's globals at call time,
# so a function rebound here (e.g. by a tracer) is the one that runs.
# Barshan does not take prefixes: at gamma = 0 its completion orthonormalizes
# the trailing columns together, and the first columns of that are not
# bitwise the completion at a smaller K; its sweep shares each gamma > 0's
# eigensolve across the Ks instead.
METHODS = {
    "ols": Method(_per_k(lambda d, k, gs: [None])),
    "pca": Method(_prefixes(lambda d, k, gs: [pca_reducer(d, k)])),
    "bair": Method(_per_k(lambda d, k, gs: [fit_bair(d, k)])),
    "pv": Method(_prefixes(lambda d, k, gs: [fit_pv(d, k)])),
    "pcps": Method(_prefixes(lambda d, k, gs: [fit_pcps(d, k)])),
    "pls": Method(_prefixes(lambda d, k, gs: fit_pls_grid(d, k, gs)),
                  GAMMA_NONNEGATIVE),
    "barshan": Method(lambda d, ks, gs: fit_barshan_sweep(d, ks, gs),
                      GAMMA_NONNEGATIVE),
    "lspca": Method(lambda d, ks, gs: {
        k: [r for r, _ in fits] for k, fits in fit_lspca_sweep(d, ks, gs).items()},
        GAMMA_POSITIVE),
    "sppca": Method(_per_k(lambda d, k, gs: [fit_sppca(d, k)])),
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

    reducer: FittedReducer | None
    model: RegressionModel
    hyperparams: dict

    def predict(self, x: np.ndarray) -> np.ndarray:
        z = x if self.reducer is None else reduce(self.reducer, x)
        return self.model.predict(z)

    def evaluate(self, data: Dataset) -> float:
        return mse(self.predict(data.X), data.y)


def with_model(reducer: FittedReducer | None, train: Dataset) -> MethodFit:
    """Fit the downstream least-squares model on the reduced training set,
    from the split's one QR (``Dataset.factor``)."""
    basis = np.eye(train.p) if reducer is None else reducer.basis
    hyper = {} if reducer is None else dict(reducer.hyperparams)
    return MethodFit(reducer, ols_fit(basis, train.factor), hyper)


def _gammas(name: str, val: Dataset | None, grid) -> list:
    """The gammas method ``name`` is fitted at: [None] for a method without
    gamma, else the in-domain points of ``grid``."""
    entry = METHODS.get(name)
    if entry is None:
        raise ValueError(f"unknown method {name!r}")
    if entry.gamma is None:
        return [None]
    if val is None:
        raise ValueError(f"{name} needs a validation split to choose gamma")
    gammas = entry.tuning_grid(grid)
    if not gammas:
        raise ValueError(f"{name}: no gamma in the grid lies in its domain "
                         f"{entry.gamma}")
    return gammas


def unwrap(outcome):
    """The reducers of one K's registry outcome, or raise its error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _choose(name: str, gammas: list, outcome, train: Dataset,
            val: Dataset | None) -> MethodFit:
    """The fit of ``unwrap(outcome)``: the one reducer of a method without
    gamma, else the one with the lowest finite validation MSE, the earliest
    grid point among those tied within ``TIE_RTOL``.  Every gamma's model
    comes from one stacked solve on ``train.factor`` and is scored exactly
    from ``val.factor``; the chosen model keeps the stacked coefficients."""
    reducers = unwrap(outcome)
    if gammas == [None]:
        return with_model(reducers[0], train)
    bases = np.stack([r.basis for r in reducers])
    coefficients = ols_stack(bases, train.factor)
    scores = factor_mse(bases, coefficients, val.factor)
    i = select_candidate(scores, TIE_RTOL)
    if i is None:
        raise ValueError(f"{name}: no gamma in the grid gives a finite "
                         "validation MSE")
    return MethodFit(reducers[i], RegressionModel(coefficients[i]),
                     {**reducers[i].hyperparams, "gamma": gammas[i],
                      "val_mse": float(scores[i])})


def fit_method(name: str, train: Dataset, val: Dataset | None, k: int, *,
               gamma_grid=DEFAULT_GAMMA_GRID) -> MethodFit:
    """Fit one registered method on centered data: ``fit_sweep`` at one K.

    ``train`` and ``val`` must share the centering transform.  ``val`` is
    only consulted by the methods with a gamma domain.
    """
    return fit_sweep(name, train, val, [k], gamma_grid=gamma_grid)[k]()


def fit_sweep(name: str, train: Dataset, val: Dataset | None, ks, *,
              gamma_grid=DEFAULT_GAMMA_GRID) -> dict:
    """``{k: thunk}`` over ``ks``: each thunk returns the method's fit at K,
    gamma chosen on ``val``, or raises that K's error.  The method is fitted
    by one registry call over the whole K range (a whole gamma grid at each
    K for a tuned one).  An error raised before or by that call (an unknown
    method, no in-domain gamma, a failed joint fit) is every K's error.
    """
    ks = list(ks)
    try:
        gammas = _gammas(name, val, gamma_grid)
        fits = METHODS[name].fit(train, ks, gammas)
    except Exception as exc:
        gammas, fits = None, dict.fromkeys(ks, exc)
    return {k: partial(_choose, name, gammas, fits[k], train, val) for k in ks}


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
