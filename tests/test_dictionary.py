import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

from blocksc.dictionary import (CHUNK, OMP_EPS, Dictionary, SupportSet,
                                batch_omp, coding_error, decorrelate_atoms,
                                ksvd, normalize_atoms, omp)
from blocksc.tensor import soft_threshold


def mutual_coherence(atoms: np.ndarray) -> float:
    gram = np.abs(atoms.T @ atoms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def fista_lasso(Y: np.ndarray, D: Dictionary, mu: float, iters: int = 2000,
                tol: float = 1e-10) -> np.ndarray:
    """Minimize 0.5 ||Y - D G||_F^2 + mu ||G||_1 columnwise with FISTA.

    The l1 sparse-coding oracle, the convex reference for OMP.  Step size
    1/L with L the top eigenvalue of D^T D (power iteration); stops when
    the relative objective change drops below tol.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    gram = D.atoms.T @ D.atoms
    dty = D.atoms.T @ Y
    L = _power_iteration_norm(gram)
    G = np.zeros((D.M, Y.shape[1]))
    Z = G.copy()
    t = 1.0
    prev_obj = _lasso_objective(Y, D.atoms, G, mu)
    for _ in range(iters):
        grad = gram @ Z - dty
        G_next = soft_threshold(Z - grad / L, mu / L)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = G_next + ((t - 1.0) / t_next) * (G_next - G)
        G, t = G_next, t_next
        obj = _lasso_objective(Y, D.atoms, G, mu)
        if abs(prev_obj - obj) <= tol * max(abs(prev_obj), 1e-30):
            break
        prev_obj = obj
    return G


def _lasso_objective(Y, atoms, G, mu):
    r = Y - atoms @ G
    return 0.5 * float((r * r).sum()) + mu * float(np.abs(G).sum())


def _power_iteration_norm(gram, iters=100, tol=1e-12, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 1.0
        v = w / nrm
        lam_new = float(v @ (gram @ v))
        if abs(lam_new - lam) < tol * max(1.0, lam_new):
            lam = lam_new
            break
        lam = lam_new
    return max(lam * (1.0 + 1e-10), 1e-12)


def random_dictionary(d, M, seed=0):
    rng = np.random.default_rng(seed)
    return Dictionary(normalize_atoms(rng.normal(size=(d, M))))


def incoherent_dictionary(d, M, seed=0, target=0.3):
    rng = np.random.default_rng(seed)
    return Dictionary(decorrelate_atoms(rng.normal(size=(d, M)), target=target))


class TestDictionaryType:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit norm"):
            Dictionary(np.eye(3) * 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atoms_rejected(self, bad):
        atoms = np.eye(3)
        atoms[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Dictionary(atoms)

    def test_undercomplete_warns(self):
        with pytest.warns(UserWarning, match="undercomplete"):
            Dictionary(np.eye(4)[:, :2])

    def test_support_strictly_increasing(self):
        with pytest.raises(ValueError):
            SupportSet(np.array([3, 1]))
        assert SupportSet(np.array([1, 3])).size == 2


class TestOmp:
    def test_identity_dictionary(self):
        D = Dictionary(np.eye(4))
        y = np.zeros(4)
        y[2] = 3.0
        support, coeffs = omp(y, D, s=1)
        assert list(support.indices) == [2]
        assert np.allclose(coeffs, [3.0])

    def test_zero_signal_empty_support(self):
        D = random_dictionary(4, 8, seed=1)
        support, coeffs = omp(np.zeros(4), D, s=2)
        assert support.size == 0 and coeffs.size == 0

    def test_noiseless_support_recovery(self):
        hits = 0
        trials = 200
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            D = incoherent_dictionary(16, 32, seed=1000 + trial)
            idx = np.sort(rng.choice(32, size=3, replace=False))
            g = rng.uniform(1.0, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            y = D.atoms[:, idx] @ g
            support, _ = omp(y, D, s=3)
            hits += list(support.indices) == list(idx)
        assert hits >= 0.95 * trials

    def test_residual_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        D = random_dictionary(10, 20, seed=2)
        y = rng.normal(size=10)
        norms = []
        for s in range(1, 9):
            support, coeffs = omp(y, D, s=s)
            fit = D.atoms[:, support.indices] @ coeffs
            norms.append(np.linalg.norm(y - fit))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_sparsity_bounds(self):
        D = random_dictionary(4, 8)
        with pytest.raises(ValueError):
            omp(np.ones(4), D, s=0)
        with pytest.raises(ValueError):
            omp(np.ones(4), D, s=5)


def per_column_batch_omp(Y, D, s, eps=1e-10):
    """Oracle: batch-OMP one column at a time through cho_factor/cho_solve."""
    gram = D.atoms.T @ D.atoms
    dty = D.atoms.T @ Y
    yty = (Y * Y).sum(axis=0)
    codes = np.zeros((D.M, Y.shape[1]))
    for j in range(Y.shape[1]):
        alpha0 = dty[:, j]
        alpha = alpha0.copy()
        err2 = float(yty[j])
        selected = []
        g = np.zeros(0)
        for _ in range(s):
            if err2 <= eps * eps:
                break
            a = np.abs(alpha)
            a[selected] = -np.inf
            selected.append(int(np.argmax(a)))
            factor = sla.cho_factor(gram[np.ix_(selected, selected)],
                                    lower=True)
            g = sla.cho_solve(factor, alpha0[selected])
            alpha = alpha0 - gram[:, selected] @ g
            err2 = float(yty[j] - alpha0[selected] @ g)
        order = np.argsort(selected)
        codes[np.asarray(selected, dtype=np.intp)[order], j] = g[order]
    return codes


class TestBatchOmp:
    def test_single_column_reduces_to_omp(self):
        rng = np.random.default_rng(3)
        D = random_dictionary(8, 16, seed=3)
        y = rng.normal(size=8)
        s_ref, c_ref = omp(y, D, s=4)
        codes = batch_omp(y[:, None], D, s=4)
        assert codes.shape == (16, 1)
        assert list(np.flatnonzero(codes[:, 0])) == list(s_ref.indices)
        assert np.abs(codes[s_ref.indices, 0] - c_ref).max() < 1e-10

    def test_matches_looped_omp_on_block(self):
        rng = np.random.default_rng(4)
        D = random_dictionary(31, 64, seed=4)
        Y = rng.normal(size=(31, 3600))
        codes = batch_omp(Y, D, s=6)
        check_cols = rng.choice(3600, size=120, replace=False)
        for j in check_cols:
            s_ref, c_ref = omp(Y[:, j], D, s=6)
            assert list(np.flatnonzero(codes[:, j])) == list(s_ref.indices)
            assert np.abs(codes[s_ref.indices, j] - c_ref).max() < 1e-10

    def test_bit_identical_to_per_column_cholesky(self):
        rng = np.random.default_rng(9)
        D = random_dictionary(16, 32, seed=9)
        Y = rng.normal(size=(16, 400))
        assert np.array_equal(batch_omp(Y, D, s=5),
                              per_column_batch_omp(Y, D, s=5))

    def test_bit_identical_when_later_picks_fit_rounding_noise(self):
        # a scaled atom is fit by its first pick; the residual left is
        # rounding noise, which decides the later picks and their ~1e-16
        # coefficients, so only identical arithmetic reproduces them
        D, Y = scaled_atom_columns()
        codes = batch_omp(Y, D, s=3)
        tiny = (codes != 0.0) & (np.abs(codes) < 1e-12)
        assert tiny.any(axis=0).sum() > 30
        assert np.array_equal(codes, per_column_batch_omp(Y, D, s=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, bad):
        D = random_dictionary(4, 8)
        Y = np.ones((4, 3))
        Y[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            batch_omp(Y, D, s=2)

    def test_zero_sparsity_forbidden(self):
        D = random_dictionary(4, 8)
        with pytest.raises(ValueError):
            batch_omp(np.ones((4, 2)), D, s=0)

    def test_sparsity_beyond_the_atom_count_rejected(self):
        # d = 8 > M = 4: once all four atoms are picked, no fifth is left
        rng = np.random.default_rng(12)
        with pytest.warns(UserWarning, match="undercomplete"):
            D = Dictionary(normalize_atoms(rng.normal(size=(8, 4))))
        Y = rng.normal(size=(8, 5))
        bounds = r"1 <= s <= min\(d, M\) = min\(8, 4\), got 6"
        with pytest.raises(ValueError, match=bounds):
            omp(Y[:, 0], D, s=6)
        with pytest.raises(ValueError, match=bounds):
            batch_omp(Y, D, s=6)
        assert np.array_equal(batch_omp(Y, D, s=4),
                              per_column_batch_omp(Y, D, s=4))


def scaled_atom_columns():
    """300 scaled atoms of a 16 x 32 dictionary: the first pick fits each
    column, so its stop falls on rounding noise after 1, 2 or 3 picks."""
    rng = np.random.default_rng(10)
    D = random_dictionary(16, 32, seed=10)
    Y = D.atoms[:, rng.integers(0, 32, 300)] * rng.uniform(0.5, 2.0, 300)
    return D, Y


class TestChunkedBatchOmp:
    """``batch_omp`` runs step by step over chunks of ``CHUNK`` columns;
    every case is bit-equal to the per-column oracle."""

    @pytest.mark.parametrize("N,s", [
        (1, 4), (CHUNK - 1, 4), (CHUNK, 4), (CHUNK + 1, 4), (3 * CHUNK + 5, 4),
        (2 * CHUNK + 3, 1),    # no later step
        (2 * CHUNK + 3, 16)])  # s = d
    def test_chunk_and_sparsity_edges(self, N, s):
        rng = np.random.default_rng(20 + N + s)
        D = random_dictionary(16, 32, seed=20)
        Y = rng.normal(size=(16, N))
        assert np.array_equal(batch_omp(Y, D, s=s),
                              per_column_batch_omp(Y, D, s=s))

    def test_columns_at_the_stop_get_zero_codes(self):
        rng = np.random.default_rng(21)
        D = random_dictionary(16, 32, seed=21)
        Y = rng.normal(size=(16, 4 * CHUNK))
        Y[:, ::3] = 0.0
        Y[:, 1::7] *= 1e-12  # yᵀy ≤ OMP_EPS² without being zero
        Y[:, CHUNK:2 * CHUNK] = 0.0  # a chunk of such columns only
        stopped = (Y * Y).sum(axis=0) <= OMP_EPS * OMP_EPS
        assert stopped.sum() < 4 * CHUNK - 20 and Y[:, stopped].any()
        codes = batch_omp(Y, D, s=3)
        assert not codes[:, stopped].any()
        assert np.array_equal(codes, per_column_batch_omp(Y, D, s=3))

    def test_one_chunk_stops_after_one_two_and_s_picks(self):
        D, Y = scaled_atom_columns()
        picks = np.count_nonzero(per_column_batch_omp(Y, D, s=3), axis=0)
        chosen = np.concatenate([np.flatnonzero(picks == k)[:CHUNK // 3]
                                 for k in (1, 2, 3)])
        Y = Y[:, np.sort(chosen)]
        assert Y.shape[1] <= CHUNK
        codes = batch_omp(Y, D, s=3)
        assert set(np.count_nonzero(codes, axis=0)) == {1, 2, 3}
        assert np.array_equal(codes, per_column_batch_omp(Y, D, s=3))


class TestBatchOmpMemory:
    def test_peak_is_its_arrays_plus_one_chunk(self):
        # KSVD's first coding in the benchmark's shape: 2000 columns of 31
        # bands, 64 atoms drawn from them, s = 3
        rng = np.random.default_rng(23)
        X = rng.normal(size=(31, 2000))
        D = Dictionary(normalize_atoms(X[:, rng.choice(2000, 64,
                                                         replace=False)]))
        batch_omp(X, D, s=3)  # numpy's one-time allocations are not its own
        tracemalloc.start()
        try:
            batch_omp(X, D, s=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M, N = D.M, X.shape[1]
        arrays = 8 * (M * N + M * M + N)  # codes, DᵀD, yᵀy; no whole DᵀY
        # the chunk's (CHUNK, M) Dᵀy rows and |α| row buffer, then 20 KB for
        # per-step gathers, numpy's iteration buffers and Python objects;
        # an (M, N) DᵀY or |α| matrix, or argmax(axis=0) over an (M, CHUNK)
        # one, exceeds it
        allowance = 2 * 8 * CHUNK * M + 20_000
        assert arrays < peak <= arrays + allowance


class TestFistaLasso:
    def test_full_shrinkage(self):
        rng = np.random.default_rng(5)
        D = random_dictionary(6, 12, seed=5)
        Y = rng.normal(size=(6, 4))
        mu = np.abs(D.atoms.T @ Y).max() * 1.01
        G = fista_lasso(Y, D, mu=mu)
        assert np.array_equal(G, np.zeros((12, 4)))

    def test_identity_closed_form(self):
        rng = np.random.default_rng(6)
        D = Dictionary(np.eye(5))
        Y = rng.normal(size=(5, 3))
        G = fista_lasso(Y, D, mu=0.3, iters=5000, tol=1e-16)
        assert np.abs(G - soft_threshold(Y, 0.3)).max() < 1e-10

    def test_long_run_oracle(self):
        rng = np.random.default_rng(7)
        D = random_dictionary(16, 32, seed=7)
        Y = rng.normal(size=(16, 8))
        mu = 0.2
        G_ref = fista_lasso(Y, D, mu=mu, iters=100_000, tol=0.0)
        G = fista_lasso(Y, D, mu=mu, iters=30_000, tol=0.0)

        def obj(G):
            r = Y - D.atoms @ G
            return 0.5 * float((r * r).sum()) + mu * float(np.abs(G).sum())

        assert abs(obj(G) - obj(G_ref)) < 1e-8

    def test_objective_not_worse_than_zero(self):
        rng = np.random.default_rng(8)
        D = random_dictionary(10, 20, seed=8)
        Y = rng.normal(size=(10, 6))
        mu = 0.1
        G = fista_lasso(Y, D, mu=mu)
        r = Y - D.atoms @ G
        obj = 0.5 * (r * r).sum() + mu * np.abs(G).sum()
        assert obj <= 0.5 * (Y * Y).sum() + 1e-12

    def test_mu_domain(self):
        D = random_dictionary(4, 8)
        with pytest.raises(ValueError):
            fista_lasso(np.ones((4, 1)), D, mu=0.0)


def planted_data(d, M, s, count, seed, target=0.3):
    rng = np.random.default_rng(seed)
    D = incoherent_dictionary(d, M, seed=seed, target=target)
    X = np.zeros((d, count))
    for j in range(count):
        idx = rng.choice(M, size=s, replace=False)
        g = rng.uniform(1.0, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
        X[:, j] = D.atoms[:, idx] @ g
    return D, X


class TestKsvd:
    def test_planted_recovery(self):
        successes = 0
        seeds = range(10)
        for seed in seeds:
            _, X = planted_data(16, 24, s=2, count=1500, seed=seed, target=0.22)
            learned, history = ksvd(X, M=24, s=2, sweeps=80, seed=seed,
                                    mutual_thresh=0.9, stop_error=1e-8)
            if history[-1] < 1e-6:
                successes += 1
        assert successes >= 0.8 * len(seeds)

    def test_zero_sweeps_returns_normalized_init(self):
        _, X = planted_data(8, 12, s=2, count=40, seed=3)
        learned, history = ksvd(X, M=12, s=2, sweeps=0, seed=3)
        assert history == []
        assert np.allclose(np.linalg.norm(learned.atoms, axis=0), 1.0)
        # initialization columns are (normalized) training vectors
        cols = X / np.maximum(np.linalg.norm(X, axis=0), 1e-300)
        for k in range(12):
            match = np.abs(cols.T @ learned.atoms[:, k]).max()
            assert match > 1.0 - 1e-9

    def test_error_non_increasing(self):
        _, X = planted_data(12, 18, s=3, count=400, seed=4)
        _, history = ksvd(X, M=18, s=3, sweeps=12, seed=4)
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-9

    def test_requires_enough_training_vectors(self):
        with pytest.raises(ValueError, match="training vectors"):
            ksvd(np.ones((4, 3)), M=8, s=1, sweeps=1)

    def test_output_atoms_unit_norm(self):
        _, X = planted_data(6, 10, s=2, count=80, seed=5)
        learned, _ = ksvd(X, M=10, s=2, sweeps=3, seed=5)
        assert np.abs(np.linalg.norm(learned.atoms, axis=0) - 1.0).max() < 1e-12


class TestCodingError:
    def test_zero_for_exact_coding(self):
        # coherence 0.3 < 1/(2s-1) for s=2 guarantees exact greedy recovery
        D, X = planted_data(8, 12, s=2, count=30, seed=6, target=0.3)
        assert mutual_coherence(D.atoms) < 1.0 / 3.0
        codes = batch_omp(X, D, s=2)
        assert coding_error(X, D.atoms, codes) < 1e-10
