"""The lock-step LSPCA grid fit against the sequential algorithm it replaced.

``_sequential_lspca`` is the one-gamma descent loop written out as the
reference: a closed-form beta, one projected-gradient QR-retraction step on
U, backtracking until the objective decreases.  Every fit of the grid must
take the same iterations and stop the same way as this loop.  The joint fit
over a K range (``fit_lspca_sweep``) must in turn be the grid fit at each K
alone, bit for bit: each K runs its own lock-step over its grid.  These
first-order tests run every K through the descent (``first_order_lspca``),
since at these P the sweep otherwise takes Newton steps; the Newton path's
own tests follow them.
"""

import math

import numpy as np
import pytest

from sdr import intrinsic, oracles
from sdr.data import Dataset, center_dataset, fit_centering
from sdr.intrinsic import (_damped_step, _is_isotropic, _newton_parts,
                           _rank1_completed_basis, _solve_stack, fit_lspca,
                           fit_lspca_sweep)
from sdr.linalg import stiefel_step, sym_eig_topk
from sdr.methods import DEFAULT_GAMMA_GRID
from sdr.simulation import SpectrumSpec, TrialSpec, generate_trial

TUNING_GAMMAS = [g for g in DEFAULT_GAMMA_GRID if g > 0]


def _sequential_lspca(data, k, gamma):
    """(basis, n_iters, converged, objective_trace) of one LSPCA fit, under
    the ``LSPCA_*`` settings in force."""
    x, y = data.X, data.y
    cov = x.T @ x
    w = x.T @ y
    yy = float(y @ y)
    tr_cov = float(np.trace(cov))

    def beta_for(u):
        gram = u.T @ cov @ u
        try:
            return np.linalg.solve(gram, u.T @ w)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, u.T @ w, rcond=None)[0]

    def objective(u, beta, gam):
        cu = cov @ u
        utcu = u.T @ cu
        supervised = yy - 2.0 * float(beta @ (u.T @ w)) + float(beta @ utcu @ beta)
        return supervised + gam * (tr_cov - float(np.trace(utcu)))

    if math.isinf(gamma):
        basis = sym_eig_topk(cov, k).vectors
        return basis, 0, True, [objective(basis, beta_for(basis), 1.0)]
    if _is_isotropic(cov) and np.linalg.norm(w) > 0:
        basis = _rank1_completed_basis(w, cov, k)
        return basis, 0, True, [objective(basis, beta_for(basis), gamma)]

    u = sym_eig_topk(cov, k).vectors
    beta = beta_for(u)
    f = objective(u, beta, gamma)
    trace = [f]
    step = intrinsic.LSPCA_INITIAL_STEP
    converged = False
    it = 0
    for it in range(1, intrinsic.LSPCA_MAX_ITERS + 1):
        cu = cov @ u
        grad = 2.0 * np.outer(cu @ beta - w, beta) - 2.0 * gamma * cu
        accepted = False
        while step >= intrinsic.LSPCA_MIN_STEP:
            u_new = stiefel_step(u, grad, step)
            beta_new = beta_for(u_new)
            f_new = objective(u_new, beta_new, gamma)
            if f_new < f:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            converged = True
            break
        rel = (f - f_new) / max(1.0, abs(f))
        u, beta, f = u_new, beta_new, f_new
        trace.append(f)
        step *= 2.0
        if rel < intrinsic.LSPCA_TOL:
            converged = True
            break
    return u, it, converged, trace


def _assert_matches_sequential(data, k, gammas):
    grid = fit_lspca_sweep(data, [k], gammas)[k]
    assert len(grid) == len(gammas)
    for gamma, (reducer, sol) in zip(gammas, grid):
        basis, n_iters, converged, trace = _sequential_lspca(data, k, gamma)
        where = f"gamma={gamma!r}"
        assert sol.n_iters == n_iters, where
        assert sol.converged == converged, where
        assert len(sol.objective_trace) == len(trace), where
        np.testing.assert_allclose(sol.basis, basis, rtol=0, atol=1e-10,
                                   err_msg=where)
        np.testing.assert_allclose(sol.objective_trace, trace, rtol=1e-12,
                                   err_msg=where)
        np.testing.assert_array_equal(reducer.basis, sol.basis)
        assert reducer.hyperparams["gamma"] == gamma
        assert reducer.hyperparams["iterations"] == n_iters
        assert reducer.hyperparams["converged"] is converged
    return grid


def _wine_shaped_fit_split(seed=5, n=1500, p=11):
    """Eleven skewed, positive, correlated features on different scales and
    a graded response, scaled to [0, 1] and centered like a real-data fit
    split."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = 0.4 ** np.arange(p)
    z = (rng.standard_normal((n, p)) * np.sqrt(lam)) @ basis.T
    z /= z.std(axis=0)
    x = 0.1 + np.geomspace(1.0, 300.0, p) * np.exp(0.5 * z)
    score = z @ (basis[:, 1] + basis[:, 3])
    y = np.rint(5.9 + score + 0.6 * rng.standard_normal(n))
    raw = Dataset(x, y)
    return center_dataset(raw, fit_centering(raw, unit_scale=True))


def _whitened_dataset(seed, n=40, p=10):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    vals, vecs = np.linalg.eigh(g.T @ g)
    x = g @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y - y.mean())


def _random_dataset(seed, n=60, p=12, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return Dataset(x - x.mean(axis=0), y - y.mean())


@pytest.mark.usefixtures("first_order_lspca")
class TestLockStepMatchesSequential:
    def test_p100_fast_misaligned_trial(self):
        spec = TrialSpec(SpectrumSpec("fast"), "mis", 150, seed=3)
        trial = generate_trial(spec)
        train = center_dataset(trial.train, fit_centering(trial.train))
        grid = _assert_matches_sequential(train, 15, TUNING_GAMMAS[:-1])
        # the grid mixes fits that hit the iteration cap with ones that stop
        assert {sol.converged for _, sol in grid} == {True, False}

    @pytest.mark.parametrize("k", [1, 6, 10])
    def test_wine_shaped_fit_split(self, k):
        _assert_matches_sequential(_wine_shaped_fit_split(), k, TUNING_GAMMAS)

    def test_whitened_data_with_infinite_gamma(self):
        data = _whitened_dataset(7)
        grid = _assert_matches_sequential(data, 3, [0.5, 2.0, math.inf, 1e3])
        assert [r.hyperparams.get("degenerate_shortcut", False)
                for r, _ in grid] == [True, True, False, True]

    def test_one_gamma_grid(self):
        _assert_matches_sequential(_random_dataset(8), 4, [0.5])

    def test_fits_finish_in_different_rounds(self, monkeypatch):
        monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", 5)
        data = _random_dataset(9)
        gammas = [1e-3, 1e6, 0.5, 1e8, 1e-2]
        grid = _assert_matches_sequential(data, 4, gammas)
        iters = [sol.n_iters for _, sol in grid]
        assert iters[0] == 5 and not grid[0][1].converged
        assert max(iters[1], iters[3]) <= 2 and grid[1][1].converged

    @pytest.mark.parametrize("max_iters", [None, 5])  # None: the default cap
    def test_each_fit_records_its_own_row(self, monkeypatch, max_iters):
        # fits that stop in different rounds leave the running stacks at
        # different times; each must record the state of its own row
        if max_iters is not None:
            monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", max_iters)
        data = _random_dataset(9)
        gammas = [1e-3, 1e6, 0.5, 1e8, 1e-2]
        grid = fit_lspca_sweep(data, [4], gammas)[4]
        assert len({sol.n_iters for _, sol in grid}) > 1
        for gamma, (reducer, sol) in zip(gammas, grid):
            alone, alone_sol = fit_lspca(data, 4, gamma)
            np.testing.assert_array_equal(reducer.basis, alone.basis)
            np.testing.assert_array_equal(sol.basis, alone_sol.basis)
            np.testing.assert_array_equal(sol.beta, alone_sol.beta)
            assert sol.objective_trace == alone_sol.objective_trace
            assert reducer.hyperparams == alone.hyperparams

    def test_fit_lspca_is_the_one_gamma_grid(self):
        data = _random_dataset(10)
        reducer, sol = fit_lspca(data, 3, 0.7)
        (grid_reducer, grid_sol), = fit_lspca_sweep(data, [3], [0.7])[3]
        np.testing.assert_array_equal(sol.basis, grid_sol.basis)
        assert sol.objective_trace == grid_sol.objective_trace
        assert reducer.hyperparams == grid_reducer.hyperparams


class TestGridClosedForms:
    def test_empty_grid(self):
        assert fit_lspca_sweep(_random_dataset(11), [2], []) == {2: []}

    def test_full_rank_k_is_pca_without_iterating(self):
        data = _random_dataset(12, p=6)
        pca = sym_eig_topk(data.X.T @ data.X, 6).vectors
        for reducer, sol in fit_lspca_sweep(data, [6], [1e-3, 1.0, math.inf])[6]:
            np.testing.assert_array_equal(sol.basis, pca)
            assert sol.n_iters == 0 and sol.converged
            assert len(sol.objective_trace) == 1
            assert reducer.hyperparams["iterations"] == 0

    def test_errors_match_the_sequential_fit(self):
        data = _random_dataset(13, p=5)
        for grid in ([1.0, math.inf], []):  # whatever the grid
            with pytest.raises(ValueError, match="K=6 exceeds P=5"):
                fit_lspca_sweep(data, [6], grid)
        with pytest.raises(ValueError, match="positive"):
            fit_lspca_sweep(data, [2], [1.0, 0.0])
        with pytest.raises(ValueError, match=r"gamma must be >= 0"):
            fit_lspca_sweep(data, [2], [1.0, -1.0])
        with pytest.raises(ValueError, match=r"gamma must be >= 0"):
            fit_lspca_sweep(data, [2], [math.nan])


def _assert_joint_matches_per_k(data, ks, gammas):
    """Every (K, gamma) fit of the joint sweep is the grid fit at that K
    alone, bit for bit: basis, beta, objective trace and hyperparams."""
    joint = fit_lspca_sweep(data, ks, gammas)
    assert list(joint) == list(ks)
    for k in ks:
        alone = fit_lspca_sweep(data, [k], gammas)[k]
        assert len(joint[k]) == len(alone) == len(gammas)
        for gamma, (reducer, sol), (want_reducer, want) in zip(
                gammas, joint[k], alone):
            where = f"K={k}, gamma={gamma!r}"
            assert sol.n_iters == want.n_iters, where
            assert sol.converged == want.converged, where
            assert sol.objective_trace == want.objective_trace, where
            assert sol.basis.tobytes() == want.basis.tobytes(), where
            assert sol.beta.tobytes() == want.beta.tobytes(), where
            assert reducer.hyperparams == want_reducer.hyperparams, where
            assert sol.basis.shape == (data.p, k) and sol.beta.shape == (k,)
            assert reducer.basis.flags.c_contiguous
            np.testing.assert_array_equal(reducer.basis, sol.basis)
    return joint


@pytest.mark.usefixtures("first_order_lspca")
class TestJointSweepMatchesPerK:
    def test_wine_shaped_fit_split_every_k(self):
        # K = P = 11 and gamma = inf are closed forms; K = 1..10 descend
        joint = _assert_joint_matches_per_k(_wine_shaped_fit_split(),
                                            list(range(1, 12)), TUNING_GAMMAS)
        assert {sol.n_iters for k in range(1, 11) for _, sol in joint[k]} != {0}
        assert all(sol.n_iters == 0 for _, sol in joint[11])

    def test_p100_fast_misaligned_trial(self):
        spec = TrialSpec(SpectrumSpec("fast"), "mis", 150, seed=3)
        trial = generate_trial(spec)
        train = center_dataset(trial.train, fit_centering(trial.train))
        joint = _assert_joint_matches_per_k(train, [1, 5, 15], TUNING_GAMMAS)
        # the sweep mixes fits that hit the iteration cap with ones that stop
        assert {sol.converged for _, sol in joint[15]} == {True, False}

    def test_whitened_data_with_k_equal_p(self):
        data = _whitened_dataset(7)
        joint = _assert_joint_matches_per_k(data, [1, 3, 10],
                                            [0.5, 2.0, math.inf, 1e3])
        assert all(r.hyperparams.get("degenerate_shortcut", False)
                   == (g != math.inf) for k in (1, 3, 10)
                   for g, (r, _) in zip([0.5, 2.0, math.inf, 1e3], joint[k]))

    def test_unsorted_ks_with_fits_finishing_in_different_rounds(self, monkeypatch):
        monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", 5)
        _assert_joint_matches_per_k(_random_dataset(9), [4, 1, 7],
                                    [1e-3, 1e6, 0.5, 1e-2])

    def test_each_k_steps_its_own_stack(self, monkeypatch):
        """Every ``stiefel_step`` call steps one K's running fits, a (m, P,
        K) stack: the Ks run one after another, each in one loop that starts
        with its whole grid and only ever drops fits."""
        shapes = []

        def recorded(u, grad, step):
            shapes.append(u.shape)
            return stiefel_step(u, grad, step)
        monkeypatch.setattr(intrinsic, "stiefel_step", recorded)
        data = _wine_shaped_fit_split()
        joint = fit_lspca_sweep(data, range(1, 12), TUNING_GAMMAS)
        iterating = len([g for g in TUNING_GAMMAS if g < math.inf])
        runs = {}  # K -> the stack heights of its calls, in call order
        for m, p, k in shapes:
            assert p == data.p and 1 <= m <= iterating
            if k in runs:  # one loop per K: its calls are consecutive
                assert k == list(runs)[-1], shapes
            runs.setdefault(k, []).append(m)
        assert list(runs) == list(range(1, 11))  # K = P = 11 does not iterate
        for k, heights in runs.items():
            assert heights[0] == iterating, k
            assert all(a >= b for a, b in zip(heights, heights[1:])), k
            # a fit takes one trial step per round until it stops
            accepted = [len(sol.objective_trace) - 1 for _, sol in joint[k]]
            assert len(heights) >= max(accepted), k

    def test_ks_may_be_any_iterable(self):
        data = _random_dataset(18, p=5)
        assert list(fit_lspca_sweep(data, iter([3, 1]), [1.0])) == [3, 1]

    def test_step_along_a_rounding_gradient(self):
        """At gamma = 1e8 the K = 1 fit starts at the top eigenvector, which
        is near its optimum: the tangent part of its gradient -2 gamma (C U -
        U U^T C U) cancels down to rounding of gamma |C U|, about 1e-8.  Its
        one accepted step moves U along that rounding, so any other rounding
        of its sums would move the projector by about 4e-8; the sweep's fit
        takes the same step as the one-K fit, bit for bit."""
        data = _random_dataset(9)
        (_, sol), = fit_lspca_sweep(data, [1, 4], [1e8])[1]
        (_, want), = fit_lspca_sweep(data, [1], [1e8])[1]
        assert sol.n_iters == want.n_iters == 1
        assert sol.objective_trace == want.objective_trace
        assert sol.basis.tobytes() == want.basis.tobytes()
        assert sol.beta.tobytes() == want.beta.tobytes()

    def test_gamma_independent_work_once_per_k(self, monkeypatch):
        """One PCA eigensolve serves every K's start, and whitened data's
        rank-1 completion is computed once per K, not once per gamma."""
        counts = {"sym_eig_topk": 0, "_rank1_completed_basis": 0}
        for name in counts:
            fn = getattr(intrinsic, name)

            def counted(*args, fn=fn, name=name):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(intrinsic, name, counted)
        fit_lspca_sweep(_random_dataset(15, p=6), [1, 2, 3, 6], TUNING_GAMMAS)
        assert counts == {"sym_eig_topk": 1, "_rank1_completed_basis": 0}
        counts["sym_eig_topk"] = 0
        fit_lspca_sweep(_whitened_dataset(16), [1, 2, 3], TUNING_GAMMAS)
        assert counts["_rank1_completed_basis"] == 3

    def test_empty_grid_and_errors(self):
        data = _random_dataset(17, p=5)
        assert fit_lspca_sweep(data, [1, 3], []) == {1: [], 3: []}
        for grid in ([1.0], []):
            with pytest.raises(ValueError, match="K=6 exceeds P=5"):
                fit_lspca_sweep(data, [2, 6, 7], grid)
        with pytest.raises(ValueError, match="positive"):
            fit_lspca_sweep(data, [1, 2], [1.0, 0.0])


def test_singular_gram_slice_falls_back_to_least_squares():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 4, 4))
    gram = a @ np.swapaxes(a, -1, -2)
    gram[1, :, 3] = gram[1, 3, :] = 0.0  # exactly singular
    rhs = rng.standard_normal((3, 4))
    beta = _solve_stack(gram, rhs)
    for i in (0, 2):
        np.testing.assert_allclose(beta[i], np.linalg.solve(gram[i], rhs[i]),
                                   rtol=1e-12)
    np.testing.assert_allclose(beta[1],
                               np.linalg.lstsq(gram[1], rhs[1], rcond=None)[0],
                               rtol=1e-12)
    # two right-hand sides per slice, as the Newton Hessian solves them
    rhs = rng.standard_normal((3, 4, 2))
    x = _solve_stack(gram, rhs)
    assert x.shape == rhs.shape
    for i in (0, 2):
        np.testing.assert_allclose(x[i], np.linalg.solve(gram[i], rhs[i]),
                                   rtol=1e-12)
    np.testing.assert_allclose(x[1],
                               np.linalg.lstsq(gram[1], rhs[1], rcond=None)[0],
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# The Newton path: every K whose Grassmann manifold has dimension
# (P - K) K <= LSPCA_NEWTON_DIM (every K at P <= 20)
# ---------------------------------------------------------------------------

def _objective(data, u, gamma):
    """The LSPCA objective at basis u, from the split's moments."""
    cov, w, yy, _ = data.moments
    gram = u.T @ cov @ u
    beta = np.linalg.lstsq(gram, u.T @ w, rcond=None)[0]
    return (yy - 2.0 * float(beta @ (u.T @ w)) + float(beta @ gram @ beta)
            + gamma * (float(np.trace(cov)) - float(np.trace(gram))))


def _starts(data, k):
    """The PCA start and the closed-form start at b = C^-1 w."""
    cov, w, _, _ = data.moments
    b = np.linalg.lstsq(cov, w, rcond=None)[0]
    return sym_eig_topk(cov, k).vectors, _rank1_completed_basis(b, cov, k)


def _duplicated_column(seed=22):
    data = _random_dataset(seed, p=6)
    return Dataset(np.column_stack([data.X, data.X[:, 0]]), data.y)


def _wide(seed=23, n=8, p=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return Dataset(x - x.mean(axis=0), y - y.mean())


def _p20(seed=28):
    """A P = 20 split: Ks 5..15 have 64 < (P - K) K <= 100."""
    return _random_dataset(seed, n=200, p=20)


@pytest.fixture(scope="module", params=["wine", "random20", "random21", "p20"])
def newton_split(request):
    if request.param == "wine":
        return _wine_shaped_fit_split()
    if request.param == "p20":
        return _p20()
    return _random_dataset(int(request.param[-2:]))


class TestNewton:
    def test_dispatch_is_on_the_grassmann_dimension(self):
        # every K at P = 20 (d at most 100), not K = 10 at P = 21 (d = 110)
        assert (20 - 10) * 10 <= intrinsic.LSPCA_NEWTON_DIM < (21 - 10) * 10
        data = _random_dataset(24, p=21)  # d = 20 at K = 1 and 80 at K = 5
        sweep = fit_lspca_sweep(data, [1, 5, 10], [1.0])
        assert {k: "start" in sweep[k][0][0].hyperparams for k in sweep} == {
            1: True, 5: True, 10: False}
        assert sweep[10][0][1].n_iters > 0  # the descent iterated

    @pytest.mark.parametrize("data", [_p20(), _wine_shaped_fit_split(6, p=20)],
                             ids=["random", "wine_shaped"])
    def test_above_the_old_cap_it_ends_at_or_below_the_descent(
            self, data, monkeypatch):
        """The Ks with 64 < d <= 100, which took the first-order descent
        under a cap of 64, converge on the Newton path and end no higher
        than the descent's fit."""
        ks = [5, 10, 15]  # d = 75, 100, 75
        newton = fit_lspca_sweep(data, ks, TUNING_GAMMAS)
        monkeypatch.setattr(intrinsic, "LSPCA_NEWTON_DIM", 64)
        descent = fit_lspca_sweep(data, ks, TUNING_GAMMAS)
        for k in ks:
            for gamma, (reducer, sol), (first, first_sol) in zip(
                    TUNING_GAMMAS, newton[k], descent[k]):
                where = f"K={k}, gamma={gamma!r}"
                assert sol.converged, where
                if math.isinf(gamma):
                    assert sol.objective_trace == first_sol.objective_trace
                    continue
                assert "start" in reducer.hyperparams, where
                assert "start" not in first.hyperparams, where
                assert sol.objective_trace[-1] <= first_sol.objective_trace[-1], where

    def test_every_fit_converges_below_both_starts(self, newton_split):
        data = newton_split
        p = data.p
        gammas = [g for g in TUNING_GAMMAS if g < math.inf]
        sweep = fit_lspca_sweep(data, range(1, p), gammas)
        for k in range(1, p):
            starts = _starts(data, k)
            for gamma, (reducer, sol) in zip(gammas, sweep[k]):
                where = f"K={k}, gamma={gamma!r}"
                assert sol.converged and reducer.hyperparams["converged"], where
                assert list(reducer.hyperparams) == [
                    "gamma", "converged", "iterations", "start"], where
                assert reducer.hyperparams["start"] in ("pca", "closed_form")
                assert reducer.hyperparams["iterations"] == sol.n_iters
                # Newton's rate: the first-order descent takes hundreds here
                assert sol.n_iters <= 25, where
                trace = np.asarray(sol.objective_trace)
                assert len(trace) == sol.n_iters + 1, where
                assert np.all(np.diff(trace) < 0), where
                for basis in starts:
                    f0 = _objective(data, basis, gamma)
                    assert trace[-1] <= f0 + 1e-12 * max(1.0, abs(f0)), where
                np.testing.assert_allclose(sol.basis.T @ sol.basis, np.eye(k),
                                           rtol=0, atol=1e-12, err_msg=where)

    def test_sweep_fit_is_the_one_k_fit_bit_for_bit(self, newton_split):
        data = newton_split
        ks = list(range(1, data.p + 1))
        joint = fit_lspca_sweep(data, ks, TUNING_GAMMAS)
        for k in ks:
            for (reducer, sol), (want_reducer, want) in zip(
                    joint[k], fit_lspca_sweep(data, [k], TUNING_GAMMAS)[k]):
                assert reducer.basis.tobytes() == want_reducer.basis.tobytes()
                assert reducer.basis.flags.c_contiguous
                assert sol.beta.tobytes() == want.beta.tobytes()
                assert sol.objective_trace == want.objective_trace
                assert reducer.hyperparams == want_reducer.hyperparams

    def test_iteration_cap_flags_unconverged(self, monkeypatch):
        monkeypatch.setattr(intrinsic, "LSPCA_MAX_ITERS", 2)
        sweep = fit_lspca_sweep(_wine_shaped_fit_split(), range(1, 11),
                                TUNING_GAMMAS)
        fits = [fit for k in sweep for fit in sweep[k]]
        capped = [(r, sol) for r, sol in fits if not sol.converged]
        assert capped and len(capped) < len(fits)
        assert all(sol.n_iters <= 2 for _, sol in fits)
        for reducer, sol in capped:
            assert sol.n_iters == 2 and reducer.hyperparams["converged"] is False

    @pytest.mark.parametrize("data", [
        _duplicated_column(), _wide(),
        # the closed-form start's projected covariance at scale 1e16
        Dataset(_random_dataset(25, p=5).X * 1e8, _random_dataset(25, p=5).y)],
        ids=["duplicated_column", "p_above_n", "scaled_1e8"])
    def test_degenerate_splits_stay_finite(self, data):
        sweep = fit_lspca_sweep(data, range(1, data.p + 1), TUNING_GAMMAS)
        for k in sweep:
            for reducer, sol in sweep[k]:
                assert np.all(np.isfinite(sol.basis)), k
                assert np.all(np.isfinite(sol.beta)), k
                assert np.all(np.isfinite(sol.objective_trace)), k
                np.testing.assert_allclose(sol.basis.T @ sol.basis, np.eye(k),
                                           rtol=0, atol=1e-10)
                assert sol.converged, k

    def test_a_stationary_start_takes_no_step(self):
        """y along the top principal direction: the PCA start (and the
        closed form, the same subspace) is the optimum at every gamma, and
        the gradient test stops it there."""
        data = _random_dataset(26)
        u1 = sym_eig_topk(data.moments.xx, 1).vectors[:, 0]
        data = Dataset(data.X, 2.0 * data.X @ u1)
        for k in (1, 2, 3):
            for reducer, sol in fit_lspca_sweep(data, [k], TUNING_GAMMAS)[k]:
                assert sol.n_iters == 0 and sol.converged
                assert reducer.hyperparams["iterations"] == 0

    def test_start_near_its_optimum(self):
        """At gamma = 1e8 and K = 1 the PCA start is within 2e-8 (relative
        tangent gradient) of its optimum, a real pull of the supervised
        term.  Either it stops there, or the kept fit ends strictly lower;
        the sweep's fit is the one-K fit bit for bit."""
        data = _random_dataset(9)
        (reducer, sol), = fit_lspca_sweep(data, [1], [1e8])[1]
        if reducer.hyperparams["start"] == "pca":
            assert sol.n_iters == 0
        else:
            pca, _ = _starts(data, 1)
            assert sol.objective_trace[-1] < _objective(data, pca, 1e8)
        (joint, joint_sol), = fit_lspca_sweep(data, [1, 4], [1e8])[1]
        assert joint.basis.tobytes() == reducer.basis.tobytes()
        assert joint_sol.objective_trace == sol.objective_trace


def _dense_newton(cov, w, u, beta, gamma, v):
    """The reference Newton model of one fit, assembled densely: the
    Riemannian gradient g and Hessian H in the coordinates X of the tangent
    vectors V X (vec X row by row), and the damping metric I (x) A.

    Hess[V X] = (I - U U^T) D grad[V X] - V X U^T grad, with D beta[V X] =
    -A^-1 M^T vec X and U^T grad = -2 gamma A (U^T r = 0 at the optimal
    beta), where A = U^T C U and M[(i, j), l] = (V^T C U)[i, l] beta[j] +
    (V^T r)[i] delta[j, l].  So H = 2 [V^T C V (x) (beta beta^T - gamma I)
    + gamma I (x) A - M A^-1 M^T], (x) the Kronecker product."""
    p, k = u.shape
    cu = cov @ u
    resid = cu @ beta - w
    g = (v.T @ (2.0 * (np.outer(resid, beta) - gamma * cu))).reshape(-1)
    gram = u.T @ cu
    eye = np.eye(k)
    mmat = ((v.T @ cu)[:, None, :] * beta[None, :, None]
            + (v.T @ resid)[:, None, None] * eye).reshape(-1, k)
    hess = ((v.T @ cov @ v)[:, None, :, None]
            * (np.outer(beta, beta) - gamma * eye)[None, :, None, :]
            + np.eye(p - k)[:, None, :, None] * (gamma * gram)[None, :, None, :])
    hess = 2.0 * (hess.reshape(g.size, -1)
                  - mmat @ _solve_stack(gram[None], mmat.T[None])[0])
    return g, hess, np.kron(np.eye(p - k), gram)


def _newton_states(seed, count):
    """(C, w, U, beta, gamma, singular) at P = 5..20, K = 1..P - 1, with the
    least-squares beta: random U, where H is indefinite, and every fifth a
    U containing a null vector of a singular C, so that A = U^T C U is
    singular."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        p = int(rng.integers(5, 21))
        k = int(rng.integers(1, p))
        singular = case % 5 == 0
        x = rng.standard_normal((3 * p, p)) * np.logspace(0, -1, p)
        u = np.linalg.qr(rng.standard_normal((p, k)))[0]
        if singular:
            x[:, 0] = 0.0
            u[0], u[:, 0] = 0.0, np.eye(p)[0]
            u[1:, 1:] = np.linalg.qr(u[1:, 1:])[0]
        cov = x.T @ x
        w = rng.standard_normal(p)
        beta = np.linalg.lstsq(u.T @ cov @ u, u.T @ w, rcond=None)[0]
        yield cov, w, u, beta, float(10 ** rng.uniform(-3, 3)), singular


class TestStructuredStep:
    """``_damped_step`` on ``_newton_parts`` against the dense reference
    ``solve(H + sigma I (x) A, -g)`` in the coordinates of the same
    complement V, sigma = mu beyond the most negative D, over mu from 1e-8
    to 1e3 of max |D|."""

    @staticmethod
    def _compare(cov, w, u, beta, gamma):
        """(verdicts, reference verdicts, worst relative step error)."""
        cu = cov @ u
        resid = cu @ beta - w
        parts = _newton_parts(cov, u[None], beta[None], cu[None],
                              np.array([gamma]), resid[None],
                              2.0 * (np.outer(resid, beta) - gamma * cu)[None])
        v = parts[0][0]
        g, hess, metric = _dense_newton(cov, w, u, beta, gamma, v)
        d = parts[3][0]
        verdicts, want, worst = [], [], 0.0
        for mu in 10.0 ** np.arange(-8, 4) * np.abs(d).max():
            x, pd = _damped_step(parts, np.array([mu]))
            shifted = hess + (mu - min(d.min(), 0.0)) * metric
            lam = np.linalg.eigvalsh(shifted)
            if abs(lam[0]) <= 1e-9 * np.abs(lam).max():
                continue  # on the boundary, where rounding decides
            verdicts.append(bool(pd[0]))
            want.append(bool(lam[0] > 0))
            if pd[0] and lam[0] > 1e-4 * lam[-1]:
                ref = v @ np.linalg.solve(shifted, -g).reshape(v.shape[1], -1)
                worst = max(worst, np.linalg.norm(x[0] - ref) / np.linalg.norm(ref))
        return verdicts, want, worst

    def test_random_states(self):
        seen = set()
        for cov, w, u, beta, gamma, singular in _newton_states(31, 250):
            verdicts, want, worst = self._compare(cov, w, u, beta, gamma)
            assert verdicts == want, (u.shape, gamma, singular)
            assert worst <= 1e-10, (u.shape, gamma, singular)
            seen.update((singular, v) for v in want)
        # both verdicts occur (not positive definite at sigma > 0: H is
        # indefinite); a singular A is never positive definite under a
        # damping that vanishes on its null space
        assert seen == {(False, False), (False, True), (True, False)}

    def test_at_converged_fits(self):
        """Near an optimum H is positive definite: every mu gives a step."""
        data = _wine_shaped_fit_split()
        cov, w, _, _ = data.moments
        for k in (1, 5, 10):
            gammas = TUNING_GAMMAS[:-1:3]
            for gamma, (_, sol) in zip(gammas, fit_lspca_sweep(data, [k], gammas)[k]):
                verdicts, want, worst = self._compare(cov, w, sol.basis,
                                                      sol.beta, gamma)
                assert verdicts == want and len(want) == 12 and all(want), (k, gamma)
                assert worst <= 1e-10, (k, gamma)


class TestSphereGridOracle:
    def test_passes(self):
        result = oracles._oracle_lspca_sphere_grid()
        assert result.ok, result.detail

    def test_first_order_descent_fails_it(self, first_order_lspca):
        # its fits stop at local minima from the PCA start
        result = oracles._oracle_lspca_sphere_grid()
        assert not result.ok
        assert "13 of 27 cases" in result.detail
