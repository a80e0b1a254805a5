"""Dense linear-algebra kernels shared by every reduction method.

All routines are pure functions of their inputs and hold no state, so they
are safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10


class IterationLimitError(RuntimeError):
    """Eigensolver did not converge.

    ``iterations`` carries the backend's iteration count when the backend
    reports one, otherwise None.
    """

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class RankDeficientError(ValueError):
    """A matrix expected to have full column rank does not."""

    def __init__(self, column: int):
        super().__init__(f"rank-deficient input: column {column} is linearly "
                         "dependent on the preceding columns")
        self.column = column


class DegenerateDirectionError(RuntimeError):
    """A fit produced a zero direction and cannot continue."""

    def __init__(self, iteration: int, message: str | None = None):
        super().__init__(message or f"degenerate (zero) direction at iteration {iteration}")
        self.iteration = iteration


def check_symmetric(s: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate a dense symmetric matrix; returns it as a float array."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    asym = np.abs(s - s.T).max() if s.size else 0.0
    if asym > tol:
        raise ValueError(f"matrix is not symmetric: max |S - S^T| = {asym:.3e}")
    return s


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-|entry| element is positive.

    Ties on |entry| resolve to the lowest index (np.argmax convention).
    Idempotent by construction.
    """
    v = np.array(vectors, dtype=float, copy=True)
    if v.ndim != 2:
        raise ValueError("expected a 2-d array of column vectors")
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


@dataclass(frozen=True)
class EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (p, k), column-orthonormal


def sym_eig_topk(s: np.ndarray, k: int) -> EigenPairs:
    """Largest-k eigenpairs of a symmetric matrix, descending, sign-fixed.

    Under degenerate eigenvalues the returned individual vectors follow the
    backend's ordering; only the spanned subspace is well defined.
    """
    s = check_symmetric(s)
    p = s.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, {p}], got {k}")
    try:
        vals, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise IterationLimitError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1][:k].copy()
    vecs = fix_signs(vecs[:, ::-1][:, :k])
    return EigenPairs(values=vals, vectors=vecs)


def orthonormalize(m: np.ndarray) -> np.ndarray:
    """Thin-QR orthonormal basis of span(m) with nonnegative R diagonal.

    ``m`` may be a stack ``(..., p, k)``; each slice is orthonormalized on
    its own.  Raises RankDeficientError naming the first dependent column
    of the first slice that has one.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise ValueError("expected a 2-d matrix")
    q, r = np.linalg.qr(m)
    diag = r.diagonal(axis1=-2, axis2=-1)
    size = np.abs(diag)
    scale = np.maximum(size.max(axis=-1, initial=0.0), 1e-300)
    bad = size <= (max(m.shape[-2:]) * np.finfo(float).eps * scale)[..., None]
    if bad.any():
        first = np.argwhere(bad)[0]
        raise RankDeficientError(int(first[-1]))
    return q * np.sign(diag)[..., None, :]


def stiefel_step(u: np.ndarray, grad: np.ndarray, step) -> np.ndarray:
    """One projected-gradient step on the Stiefel manifold with QR retraction.

    Moves against ``grad``: the ambient gradient is projected onto the
    tangent space at ``u`` (T = G - U sym(U^T G)) and the update
    U - step*T is retracted by thin QR.  The result has orthonormal columns
    for any gradient magnitude because U - step*T is always full rank for
    tangent T.

    ``u`` and ``grad`` may be stacks ``(..., p, k)``, stepped slice by slice;
    ``step`` is then a scalar or one value per slice (shape ``(...)``).
    """
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if u.shape != grad.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {grad.shape}")
    steps = np.asarray(step, dtype=float)
    if steps.ndim and steps.shape != u.shape[:-2]:
        raise ValueError(f"shape mismatch: steps {steps.shape} for stack {u.shape}")
    if not np.all(steps > 0):
        raise ValueError(f"step must be positive, got {step}")
    utg = u.swapaxes(-1, -2) @ grad
    tangent = grad - u @ ((utg + utg.swapaxes(-1, -2)) / 2.0)
    return orthonormalize(u - steps[..., None, None] * tangent)
