"""Dense linear-algebra kernels shared by every reduction method.

All routines are pure functions of their inputs and hold no state, so they
are safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10


class IterationLimitError(RuntimeError):
    """Eigensolver did not converge."""


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


def check_symmetric(s: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Validate a dense symmetric matrix (|S - S^T| <= SYMMETRY_TOL), or with
    ``stacked`` a (b, p, p) stack of them; returns it as a float array."""
    s = np.asarray(s, dtype=float)
    if s.ndim != (3 if stacked else 2) or s.shape[-1] != s.shape[-2]:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ValueError(f"expected a {kind}, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    # slice by slice: a stack needs no stack-sized temporaries
    asym = (max(np.abs(m - m.T).max() for m in s.reshape(-1, *s.shape[-2:]))
            if s.size else 0.0)
    if asym > SYMMETRY_TOL:
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


#: Lanczos steps after which an unconverged slice falls back to ``eigh``;
#: slices no larger than this are solved densely from the start.
KRYLOV_CAP = 40
#: Lanczos steps at which the unconverged slices take a Ritz step (the last
#: is the cap).
RITZ_CHECKPOINTS = (16, 24, 32, 40)
#: A slice's Lanczos run stops once its residual estimate |beta_j y_j| falls
#: to this multiple of |S|_F; its true residual |S x - theta x| must then be
#: within ``TOP1_ACCEPT_RTOL`` |S|_F.
TOP1_RTOL = 1e-13
TOP1_ACCEPT_RTOL = 1e-12
#: Shift slack of the Cholesky certificate, relative to |S|_F.
TOP1_CERT_RTOL = 1e-11


def krylov_start(p: int) -> np.ndarray:
    """The fixed Lanczos start vector of length p: a Weyl sequence
    frac(j / golden ratio) - 1/2, j = 1..p (no zero entries, no RNG).  A
    leading block of size m starts from its first m entries."""
    return (np.arange(1, p + 1) * 0.6180339887498949) % 1.0 - 0.5


def sym_eig_top1(s: np.ndarray, sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of every slice of a symmetric stack.

    ``s`` is a ``(b, p, p)`` stack; or, given ``sizes``, one ``(p, p)``
    matrix whose slices are its leading blocks ``s[:m, :m]``, m in
    ``sizes``.  Returns ``(values, vectors)`` of shapes ``(b,)`` and
    ``(b, p)``: row i is slice i's top eigenvector, zero beyond the slice's
    size, signed as ``fix_signs`` signs a column.

    Slices larger than ``KRYLOV_CAP`` run Lanczos with full
    reorthogonalization in lock-step (Golub & Van Loan, Matrix
    Computations, ch. 10), one stacked product per step.  A converged
    slice is accepted only if its true residual r passes and the Cholesky
    factorization of (theta + r + tol) I - S exists, which certifies that
    no eigenvalue lies above theta + r + tol.  Slices that fail, have a zero
    top eigenvalue, reach the cap, or are no larger than the cap get the
    top pair of a full ``eigh``, as ``sym_eig_topk(slice, 1)`` does.
    """
    if sizes is None:
        s = check_symmetric(s, stacked=True)
        b, p = s.shape[:2]
        if p < 1:
            raise ValueError(f"expected nonempty matrices, got shape {s.shape}")
        sizes = np.full(b, p)
        norms = np.sqrt(np.einsum("bij,bij->b", s, s))

        def block(i):
            return s[i]
    else:
        s = check_symmetric(s)
        p = s.shape[0]
        sizes = np.asarray(sizes, dtype=int)
        if sizes.ndim != 1 or np.any(sizes < 1) or np.any(sizes > p):
            raise ValueError(f"block sizes must lie in [1, {p}]")
        b = sizes.size
        # Frobenius norms of the leading blocks from one 2-d running sum
        square_sums = np.cumsum(np.cumsum(s * s, axis=0), axis=1)
        norms = np.sqrt(square_sums[sizes - 1, sizes - 1])

        def block(i):
            return s[:sizes[i], :sizes[i]]

    values = np.zeros(b)
    vectors = np.zeros((b, p))
    accepted = np.zeros(b, dtype=bool)
    krylov = np.flatnonzero(sizes > KRYLOV_CAP)
    if krylov.size:
        width = int(sizes[krylov].max())
        support = np.arange(width) < sizes[krylov][:, None]
        if s.ndim == 3:  # every slice has size p, so krylov is all of them
            def product(rows, v):
                # the whole stack times v, zero for the other slices: this
                # costs b p^2 flops and copies no slice
                full = np.zeros((b, p))
                full[rows] = v
                return (s @ full[..., None])[rows, :, 0]
        else:
            lead = s[:width, :width]

            def product(rows, v):
                return (v @ lead) * support[rows]
        start = krylov_start(width) * support
        start /= np.linalg.norm(start, axis=1)[:, None]
        theta, x, converged = _lanczos_top1(product, start, norms[krylov])
        done = np.flatnonzero(converged)
        theta, x = theta[done], x[done]
        x /= np.linalg.norm(x, axis=1)[:, None]
        resid = np.linalg.norm(product(done, x) - theta[:, None] * x, axis=1)
        for j, i in enumerate(krylov[done]):
            slack = TOP1_CERT_RTOL * norms[i]
            if theta[j] <= slack or resid[j] > TOP1_ACCEPT_RTOL * norms[i]:
                continue
            try:
                np.linalg.cholesky((theta[j] + resid[j] + slack) * np.eye(sizes[i])
                                   - block(i))
            except np.linalg.LinAlgError:
                continue
            values[i], vectors[i, :width] = theta[j], x[j]
            accepted[i] = True
    for i in np.flatnonzero(~accepted):
        vals, vecs = np.linalg.eigh(block(i))
        values[i] = vals[-1]
        vectors[i, :sizes[i]] = vecs[:, -1]
    return values, np.ascontiguousarray(fix_signs(vectors.T).T)


def _lanczos_top1(product, start: np.ndarray, norms: np.ndarray):
    """Lock-step Lanczos with full reorthogonalization for the top Ritz pair
    of each slice.

    ``product(rows, v)`` returns S v for the slices ``rows`` and their
    vectors v, a (len(rows), q) stack; ``start`` holds unit start vectors
    (a, q).  Each slice stops at the first Ritz step whose residual
    estimate is within ``TOP1_RTOL`` of its norm, or when a step leaves its
    Krylov space invariant.  Returns (theta, x, converged); theta and x are zero where
    the cap was reached first.
    """
    a, q = start.shape
    theta = np.zeros(a)
    x = np.zeros((a, q))
    converged = np.zeros(a, dtype=bool)
    rows = np.arange(a)
    basis = np.zeros((a, KRYLOV_CAP + 1, q))
    basis[:, 0] = start
    alpha = np.zeros((a, KRYLOV_CAP))
    beta = np.zeros((a, KRYLOV_CAP))
    for j in range(KRYLOV_CAP):
        w = product(rows, basis[:, j])
        krylov = basis[:, :j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = (krylov @ w[..., None])[..., 0]
            w -= (h[:, None, :] @ krylov)[:, 0]
            alpha[:, j] += h[:, j]
        beta[:, j] = np.linalg.norm(w, axis=1)
        target = TOP1_RTOL * norms[rows]
        invariant = beta[:, j] <= target
        if j + 1 in RITZ_CHECKPOINTS or invariant.any():
            n = j + 1
            t = np.zeros((rows.size, n, n))
            t[:, np.arange(n), np.arange(n)] = alpha[:, :n]
            t[:, np.arange(1, n), np.arange(n - 1)] = beta[:, :n - 1]
            t[:, np.arange(n - 1), np.arange(1, n)] = beta[:, :n - 1]
            ritz_vals, ritz_vecs = np.linalg.eigh(t)
            top = ritz_vecs[:, :, -1]
            done = beta[:, j] * np.abs(top[:, -1]) <= target
            finished = rows[done]
            theta[finished] = ritz_vals[done, -1]
            x[finished] = (top[done, None, :] @ krylov[done])[:, 0]
            converged[finished] = True
            if done.any():
                keep = ~done
                rows, basis, alpha, beta, w = (
                    arr[keep] for arr in (rows, basis, alpha, beta, w))
                if not rows.size:
                    break
        if j + 1 < KRYLOV_CAP:
            basis[:, j + 1] = w / beta[:, j][:, None]
    return theta, x, converged


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
