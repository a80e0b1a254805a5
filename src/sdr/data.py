"""Datasets, centering/scaling, the fitted-reducer contract, and persistence."""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Method tag of every fitted reducer -> whether its basis is orthonormal.
#: PV's deflations and SPPCA's posterior mean give oblique maps.
ORTHONORMAL_BASIS = {"pca": True, "bair": True, "pv": False, "pcps": True,
                     "pls": True, "barshan": True, "lspca": True,
                     "sppca": False}

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


class Factor(NamedTuple):
    """A thin QR X = QR of a dataset's rows, kept as R, Q^T y and the row
    count n, read-only."""

    r: np.ndarray
    qty: np.ndarray
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

    @cached_property
    def factor(self) -> Factor:
        """One thin QR of the rows, shared by every least-squares fit on this
        dataset; X and y must not change.  The R of [X y] holds R and Q^T y
        in its first min(N, P) rows."""
        m = min(self.n, self.p)
        ry = np.linalg.qr(np.column_stack([self.X, self.y]), mode="r")[:m]
        r, qty = ry[:, :-1].copy(), ry[:, -1].copy()
        r.flags.writeable = qty.flags.writeable = False
        return Factor(r, qty, self.n)


@dataclass(frozen=True)
class CenteringTransform:
    """Column centering fitted on training data, optionally after [0,1] scaling.

    When unit scaling is active, min/max are captured on the raw data and the
    applied order is scale-then-center.  Constant columns are skipped by the
    scaling step (centering still zeroes them).
    """

    column_means: np.ndarray
    y_mean: float
    col_min: np.ndarray | None = None
    col_range: np.ndarray | None = None

    @property
    def p(self) -> int:
        return len(self.column_means)

    def apply(self, x_new: np.ndarray) -> np.ndarray:
        x = np.asarray(x_new, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ValueError(f"expected {self.p} columns, got shape {x.shape}")
        if self.col_min is not None:
            x = (x - self.col_min) / self.col_range
        return x - self.column_means

    def apply_y(self, y_new: np.ndarray) -> np.ndarray:
        return np.asarray(y_new, dtype=float) - self.y_mean


def fit_centering(data: Dataset, unit_scale: bool = False) -> CenteringTransform:
    """Fit column means (and optional [0,1] scaling) on a dataset."""
    x = data.X
    if unit_scale:
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        rng = hi - lo
        rng = np.where(rng <= 0, 1.0, rng)  # scaling skipped for flat columns
        scaled = (x - lo) / rng
        return CenteringTransform(
            column_means=scaled.mean(axis=0),
            y_mean=float(data.y.mean()),
            col_min=lo,
            col_range=rng,
        )
    return CenteringTransform(column_means=x.mean(axis=0), y_mean=float(data.y.mean()))


def center_dataset(data: Dataset, transform: CenteringTransform) -> Dataset:
    return Dataset(transform.apply(data.X), transform.apply_y(data.y))


@dataclass
class FittedReducer:
    """A fitted method as the linear map it is: ``reduce`` sends a centered
    row x to the K features ``x @ basis``.

    ``basis`` is a finite P x K matrix, orthonormal unless the method's
    ``ORTHONORMAL_BASIS`` entry says its map is oblique.
    """

    method: str
    k: int
    basis: np.ndarray
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        orthonormal = ORTHONORMAL_BASIS.get(self.method)
        if orthonormal is None:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.k < 1:
            raise ValueError("K must be >= 1")
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[1] != self.k:
            raise ValueError(f"basis of shape {self.basis.shape} is not "
                             f"P x K with K={self.k}")
        if self.k > self.basis.shape[0]:
            raise ValueError("K must not exceed P")
        if orthonormal:
            err = np.linalg.norm(self.basis.T @ self.basis - np.eye(self.k))
            if not err <= ORTHONORMAL_TOL:  # a non-finite basis fails it too
                raise ValueError(f"basis is not orthonormal: ||U^T U - I|| = {err:.3e}")
        elif not np.all(np.isfinite(self.basis)):
            raise ValueError("non-finite basis entries")

    def prefix(self, k: int) -> "FittedReducer":
        """The first k basis columns, with the per-component hyperparams cut
        to match.

        For a method whose fit at K is the first K components of its fit at
        any larger K (see ``methods._prefixes``), this is the fit at k.  The
        copy keeps the fit's memory layout, so products with it round as a
        fresh fit's do.
        """
        if not 1 <= k <= self.k:
            raise ValueError(f"prefix K={k} must lie in [1, {self.k}]")
        hyper = {key: val[:k] if key in PER_COMPONENT_HYPERPARAMS else val
                 for key, val in self.hyperparams.items()}
        return FittedReducer(self.method, k, self.basis[:, :k].copy(order="K"),
                             hyper)


def reduce(reducer: FittedReducer, x_new: np.ndarray) -> np.ndarray:
    """Transform rows preprocessed by the fit-time centering into K features."""
    x = np.asarray(x_new, dtype=float)
    p = reducer.basis.shape[0]
    if x.ndim != 2 or x.shape[1] != p:
        raise ValueError(f"expected shape (*, {p}), got {x.shape}")
    return x @ reducer.basis


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
    return json.dumps({"method": reducer.method, "k": reducer.k,
                       "basis": reducer.basis.tolist(),
                       "hyperparams": json_safe(reducer.hyperparams)})


def reducer_from_json(text: str) -> FittedReducer:
    doc = json.loads(text)
    missing = [key for key in ("method", "k", "basis") if key not in doc]
    if missing:
        raise ValueError(f"reducer document lacks {missing}")
    return FittedReducer(doc["method"], int(doc["k"]),
                         np.asarray(doc["basis"], dtype=float),
                         _decode_hyper(doc.get("hyperparams", {})))


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
    """Read a delimited UTF-8 file (BOM or not) with a header row into a Dataset.

    The named response column becomes y; all remaining (non-dropped) columns
    must be numeric and become the variables.  A header naming a column
    twice, or a non-numeric or non-finite cell, raises IngestError naming
    the column (and the cell's 1-based data row).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file: header row required") from None
        header = [h.strip().strip('"') for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise IngestError(f"column {repeated[0]!r} is named twice in the "
                              "header", column=repeated[0])
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
        values = _bulk_values(reader, len(header), [i for i, _ in cells])
        if values is None:
            # read again cell by cell, to name the first bad row or cell
            fh.seek(0)
            reader = csv.reader(fh, delimiter=delimiter)
            next(reader)
            values = np.array([_row_values(row_no, row, len(header), cells)
                               for row_no, row in enumerate(reader, start=1)
                               if any(map(str.strip, row))])
    if len(values) == 0:
        raise IngestError("no data rows")
    names = [name for _, name in feat_cols]
    return Dataset(np.ascontiguousarray(values[:, :-1]), values[:, -1].copy()), names


def _bulk_values(reader, width: int, columns: list):
    """The ``columns`` cells of every non-blank row of ``reader`` as floats,
    or None at a row of the wrong width, a cell that is not a finite number
    or any other ValueError (a decode error among them), for the
    cell-by-cell read to report in row order.  Rows are parsed 1024 at a
    time, so the file's text is never held whole."""
    pick = operator.itemgetter(*columns)
    blocks, rows = [], []
    try:
        for row in reader:
            if not any(map(str.strip, row)):  # a blank row
                continue
            if len(row) != width:
                return None
            rows.append(pick(row))
            if len(rows) == 1024:
                blocks.append(np.array(rows, dtype=float))
                rows = []
        blocks.append(np.array(rows, dtype=float).reshape(-1, len(columns)))
    except ValueError:
        return None
    values = np.concatenate(blocks)
    return values if np.all(np.isfinite(values)) else None


def _row_values(row_no: int, row: list, width: int, cells) -> list:
    """The floats of a data row's ``cells``, or IngestError at a row of the
    wrong width or a non-numeric or non-finite cell."""
    if len(row) != width:
        raise IngestError(f"row {row_no}: expected {width} fields, "
                          f"got {len(row)}", row=row_no)
    vals = []
    for i, name in cells:
        try:
            vals.append(float(row[i]))
            bad = None if math.isfinite(vals[-1]) else "non-finite"
        except ValueError:
            bad = "non-numeric"
        if bad:
            raise IngestError(f"{bad} cell at row {row_no}, column {name!r}: "
                              f"{row[i]!r}", row=row_no, column=name)
    return vals
