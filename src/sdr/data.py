"""Datasets, centering/scaling, the fitted-reducer contract, and persistence."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Method tag of every fitted reducer -> the state field it populates.
STATE_KINDS = {"pca": "basis", "bair": "basis", "pv": "pv_state",
               "pcps": "basis", "pls": "basis", "barshan": "basis",
               "lspca": "basis", "sppca": "sppca_state"}

#: Hyperparams holding one entry per component, in component order.
PER_COMPONENT_HYPERPARAMS = ("m_per_component", "selected_components",
                             "component_scores")

ORTHONORMAL_TOL = 1e-8


class IngestError(ValueError):
    """A CSV that cannot be read, or is too small to split, with 1-based
    data-row and column coordinates where they apply."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class Moments(NamedTuple):
    """X^T X, X^T y, y^T y and the row count n of a dataset, read-only."""

    xx: np.ndarray
    xy: np.ndarray
    yy: float
    n: int


@dataclass(frozen=True)
class Dataset:
    """An N x P variable matrix paired with an N-vector response."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError("X must be 2-d")
        if y.ndim != 1:
            raise ValueError("y must be 1-d")
        n, p = x.shape
        if n < 2 or p < 1:
            raise ValueError(f"need N >= 2 and P >= 1, got N={n}, P={p}")
        if len(y) != n:
            raise ValueError(f"X has {n} rows but y has {len(y)} entries")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in dataset")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def moments(self) -> Moments:
        """Shared by every fit on this dataset; X and y must not change."""
        xx, xy = self.X.T @ self.X, self.X.T @ self.y
        xx.flags.writeable = xy.flags.writeable = False
        return Moments(xx, xy, float(self.y @ self.y), self.n)


@dataclass(frozen=True)
class CenteringTransform:
    """Column centering fitted on training data, optionally after [0,1] scaling.

    When unit scaling is active, min/max are captured on the raw data and the
    applied order is scale-then-center.  Constant columns are flagged and
    skipped by the scaling step (centering still zeroes them).
    """

    column_means: np.ndarray
    y_mean: float
    col_min: np.ndarray | None = None
    col_range: np.ndarray | None = None
    constant_mask: np.ndarray | None = None

    @property
    def p(self) -> int:
        return len(self.column_means)

    def _check_width(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ValueError(f"expected {self.p} columns, got shape {x.shape}")
        return x

    def apply(self, x_new: np.ndarray) -> np.ndarray:
        x = self._check_width(x_new)
        if self.col_min is not None:
            x = (x - self.col_min) / self.col_range
        return x - self.column_means

    def invert(self, x_centered: np.ndarray) -> np.ndarray:
        x = self._check_width(x_centered) + self.column_means
        if self.col_min is not None:
            x = x * self.col_range + self.col_min
        return x

    def apply_y(self, y_new: np.ndarray) -> np.ndarray:
        return np.asarray(y_new, dtype=float) - self.y_mean

    def invert_y(self, y_centered: np.ndarray) -> np.ndarray:
        return np.asarray(y_centered, dtype=float) + self.y_mean


def fit_centering(data: Dataset, unit_scale: bool = False) -> CenteringTransform:
    """Fit column means (and optional [0,1] scaling) on a dataset."""
    x = data.X
    if unit_scale:
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        rng = hi - lo
        constant = rng <= 0
        rng = np.where(constant, 1.0, rng)  # scaling skipped for flat columns
        scaled = (x - lo) / rng
        return CenteringTransform(
            column_means=scaled.mean(axis=0),
            y_mean=float(data.y.mean()),
            col_min=lo,
            col_range=rng,
            constant_mask=constant,
        )
    return CenteringTransform(column_means=x.mean(axis=0), y_mean=float(data.y.mean()))


def center_dataset(data: Dataset, transform: CenteringTransform) -> Dataset:
    return Dataset(transform.apply(data.X), transform.apply_y(data.y))


@dataclass(frozen=True)
class PVStep:
    """One iteration of the iterative select-project-deflate method."""

    indices: np.ndarray    # selected variable indices, in rank order
    direction: np.ndarray  # unit first-PC weights over the selected columns
    deflation: np.ndarray  # P-vector b regressing all variables on the score


@dataclass(frozen=True)
class SppcaState:
    """Latent-factor model parameters {U, v, sigma_x, sigma_y}."""

    loadings: np.ndarray           # P x K, not necessarily orthogonal
    response_loadings: np.ndarray  # K
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ValueError("noise scales must be nonnegative")
        if not (np.all(np.isfinite(self.loadings))
                and np.all(np.isfinite(self.response_loadings))):
            raise ValueError("non-finite SPPCA parameters")


@dataclass
class FittedReducer:
    """Fitted state of any method, under a uniform reduce() contract.

    Exactly one state variant must be populated, matching the method tag:
    a P x K basis for the eigen/basis methods, per-iteration PV state, or
    SPPCA model parameters.
    """

    method: str
    k: int
    basis: np.ndarray | None = None
    pv_state: list[PVStep] | None = None
    sppca_state: SppcaState | None = None
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = STATE_KINDS.get(self.method)
        if kind is None:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.k < 1:
            raise ValueError("K must be >= 1")
        states = [self.basis is not None, self.pv_state is not None,
                  self.sppca_state is not None]
        if sum(states) != 1:
            raise ValueError("exactly one state variant must be populated")
        if getattr(self, kind) is None:
            raise ValueError(f"{self.method} requires {kind}")
        if kind == "basis":
            self.basis = np.asarray(self.basis, dtype=float)
            p, k = self.basis.shape
            if k != self.k:
                raise ValueError(f"basis has {k} columns, expected K={self.k}")
            if self.k > p:
                raise ValueError("K must not exceed P")
            gram = self.basis.T @ self.basis
            err = np.linalg.norm(gram - np.eye(k))
            if err > ORTHONORMAL_TOL:
                raise ValueError(f"basis is not orthonormal: ||U^T U - I|| = {err:.3e}")
        elif kind == "pv_state":
            if len(self.pv_state) != self.k:
                raise ValueError("pv_state length must equal K")
        elif self.sppca_state.loadings.shape[1] != self.k:
            raise ValueError("loadings width must equal K")

    def prefix(self, k: int) -> "FittedReducer":
        """The first k components: basis columns or PV steps, with the
        per-component hyperparams cut to match.

        For a method whose fit at K is the first K components of its fit at
        any larger K (see ``Method.nested``), this is the fit at k.  The
        basis copy keeps the fit's memory layout, so products with it round
        as a fresh fit's do.
        """
        if not 1 <= k <= self.k:
            raise ValueError(f"prefix K={k} must lie in [1, {self.k}]")
        if self.sppca_state is not None:
            raise ValueError("an SPPCA fit has no component prefix")
        hyper = {key: val[:k] if key in PER_COMPONENT_HYPERPARAMS else val
                 for key, val in self.hyperparams.items()}
        if self.basis is not None:
            return FittedReducer(self.method, k,
                                 basis=self.basis[:, :k].copy(order="K"),
                                 hyperparams=hyper)
        return FittedReducer(self.method, k, pv_state=self.pv_state[:k],
                             hyperparams=hyper)

    @property
    def p(self) -> int:
        if self.basis is not None:
            return self.basis.shape[0]
        if self.pv_state is not None:
            return len(self.pv_state[0].deflation)
        return self.sppca_state.loadings.shape[0]


def reduce(reducer: FittedReducer, x_new: np.ndarray) -> np.ndarray:
    """Transform rows preprocessed by the fit-time centering into K features."""
    x = np.asarray(x_new, dtype=float)
    if x.ndim != 2 or x.shape[1] != reducer.p:
        raise ValueError(f"expected shape (*, {reducer.p}), got {x.shape}")
    if reducer.basis is not None:
        return x @ reducer.basis
    if reducer.pv_state is not None:
        z = np.empty((x.shape[0], reducer.k))
        xk = x.copy()
        for i, step in enumerate(reducer.pv_state):
            zk = xk[:, step.indices] @ step.direction
            z[:, i] = zk
            xk -= np.outer(zk, step.deflation)
        return z
    st = reducer.sppca_state
    u = st.loadings
    gram = u.T @ u + st.sigma_x ** 2 * np.eye(reducer.k)
    return np.linalg.solve(gram, u.T @ x.T).T


# ---------------------------------------------------------------------------
# Persistence: one JSON document per fitted reducer.  Matrices are stored
# row-major as nested arrays; floats round-trip exactly (repr serialization).
# ---------------------------------------------------------------------------

def json_safe(v):
    """Plain-JSON form of a hyperparameter value.

    numpy arrays and scalars become lists and Python scalars, tuples become
    lists, and +/-inf become the strings "inf"/"-inf", which
    reducer_from_json decodes back.
    """
    if isinstance(v, np.ndarray):
        v = v.tolist()
    elif isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, dict):
        return {key: json_safe(val) for key, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_safe(item) for item in v]
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _decode_hyper(v):
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, dict):
        return {key: _decode_hyper(val) for key, val in v.items()}
    if isinstance(v, list):
        return [_decode_hyper(item) for item in v]
    return v


def reducer_to_json(reducer: FittedReducer) -> str:
    doc = {"method": reducer.method, "k": reducer.k}
    if reducer.basis is not None:
        doc["basis"] = reducer.basis.tolist()
    if reducer.pv_state is not None:
        doc["pv_state"] = [
            {"indices": np.asarray(s.indices).tolist(),
             "direction": np.asarray(s.direction).tolist(),
             "deflation": np.asarray(s.deflation).tolist()}
            for s in reducer.pv_state
        ]
    if reducer.sppca_state is not None:
        st = reducer.sppca_state
        doc["sppca_state"] = {"u": st.loadings.tolist(),
                              "v": st.response_loadings.tolist(),
                              "sigma_x": st.sigma_x,
                              "sigma_y": st.sigma_y}
    doc["hyperparams"] = json_safe(reducer.hyperparams)
    return json.dumps(doc)


def reducer_from_json(text: str) -> FittedReducer:
    doc = json.loads(text)
    basis = np.asarray(doc["basis"], dtype=float) if "basis" in doc else None
    pv_state = None
    if "pv_state" in doc:
        pv_state = [PVStep(indices=np.asarray(s["indices"], dtype=int),
                           direction=np.asarray(s["direction"], dtype=float),
                           deflation=np.asarray(s["deflation"], dtype=float))
                    for s in doc["pv_state"]]
    sppca_state = None
    if "sppca_state" in doc:
        s = doc["sppca_state"]
        sppca_state = SppcaState(loadings=np.asarray(s["u"], dtype=float),
                                 response_loadings=np.asarray(s["v"], dtype=float),
                                 sigma_x=float(s["sigma_x"]),
                                 sigma_y=float(s["sigma_y"]))
    return FittedReducer(method=doc["method"], k=int(doc["k"]), basis=basis,
                         pv_state=pv_state, sppca_state=sppca_state,
                         hyperparams=_decode_hyper(doc.get("hyperparams", {})))


# ---------------------------------------------------------------------------
# CSV ingestion and report rows
# ---------------------------------------------------------------------------

def csv_text(header, rows) -> str:
    """A header row and ``rows`` as CSV text.  None is written as an empty
    cell and a float as ``repr(float(x))``, which reads back exactly."""
    def cell(x):
        if x is None:
            return ""
        return repr(float(x)) if isinstance(x, float) else x

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(x) for x in row] for row in rows)
    return buf.getvalue()


def load_csv(path, response: str, delimiter: str = ",",
             drop: tuple[str, ...] = ()) -> tuple[Dataset, list[str]]:
    """Read a delimited file with a header row into a Dataset.

    The named response column becomes y; all remaining (non-dropped) columns
    must be numeric and become the variables.  A non-numeric or non-finite
    cell raises IngestError naming its 1-based data row and its column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file: header row required") from None
        header = [h.strip().strip('"') for h in header]
        if response not in header:
            raise IngestError(f"response column {response!r} not found; "
                              f"available: {header}", column=response)
        missing = [c for c in drop if c not in header]
        if missing:
            raise IngestError(f"drop column(s) not found: {missing}")
        feat_cols = [(i, name) for i, name in enumerate(header)
                     if name != response and name not in drop]
        if not feat_cols:
            raise IngestError(f"no feature column left; dropped: {list(drop)}")
        cells = feat_cols + [(header.index(response), response)]
        xs, ys = [], []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise IngestError(f"row {row_no}: expected {len(header)} fields, "
                                  f"got {len(row)}", row=row_no)
            vals = []  # the features, then the response
            for i, name in cells:
                try:
                    vals.append(float(row[i]))
                    bad = None if math.isfinite(vals[-1]) else "non-finite"
                except ValueError:
                    bad = "non-numeric"
                if bad:
                    raise IngestError(f"{bad} cell at row {row_no}, column {name!r}: "
                                      f"{row[i]!r}", row=row_no, column=name)
            xs.append(vals[:-1])
            ys.append(vals[-1])
        if not xs:
            raise IngestError("no data rows")
    names = [name for _, name in feat_cols]
    return Dataset(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)), names
