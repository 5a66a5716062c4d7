import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq

from blocksc import solver as sv
from blocksc.denoiser import ModelParams, ScalarParams, denoise_vjp, \
    float32_params, init_denoiser, spectral_normalize
from blocksc.dictionary import Dictionary, SupportSet, decorrelate_atoms, \
    normalize_atoms
from blocksc.tensor import soft_threshold


def make_params(d, hidden=4, b=1.0, mu=0.3, seed=0, zero_net=False):
    den = init_denoiser(d, hidden=hidden, seed=seed)
    if zero_net:
        for w in den.weights:
            w[:] = 0.0
    else:
        spectral_normalize(den, iters=30)
    return ModelParams(den, ScalarParams.from_values(b, mu))


def identity_denoise(params, block, n=None):
    return block


# The three-split HQS sweep, kept here as the oracle for the collapsed map.

@dataclass
class HqsState:
    G: np.ndarray  # (M, N) codes
    V: np.ndarray  # (M, N) sparsity split
    Z: np.ndarray  # (d, N) denoiser split


def initial_state(ctx, Y):
    """G = 0, V = 0, Z = Y: the denoiser sees the raw block first."""
    shape = (ctx.D.shape[1], Y.shape[1])
    return HqsState(np.zeros(shape), np.zeros(shape), Y.copy())


def hqs_step_full(ctx, Y, state, params):
    """One full splitting sweep: G linear solve, V shrinkage, Z denoise.

    It solves against a Cholesky factor of its own, and looks the
    denoiser up as ``sv.denoise`` so that a monkeypatched denoiser
    reaches it.
    """
    ctx.check(params)
    b, mu = ctx.b, params.scalars.mu
    rhs = ctx.D.T @ Y + b * state.V + b * (ctx.D.T @ state.Z)
    G = cho_solve(cho_factor(map_matrix(ctx)), rhs)
    V = soft_threshold(G, mu / b)
    Z = sv.denoise(params.denoiser, ctx.D @ G)
    return HqsState(G, V, Z)


def map_matrix(ctx):
    """The map's matrix A = (1+b) D^T D + ridge I (D_S on the fast map)."""
    ridge = 1.0 if ctx.mode == "full" else sv.FAST_RIDGE
    return ((1.0 + ctx.b) * (ctx.D.T @ ctx.D)
            + ridge * np.eye(ctx.D.shape[1]))


class TestHqsStepFull:
    def test_identity_dictionary_first_update(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(4, 9))
        params = make_params(4, b=1.0, zero_net=True)
        ctx = sv.make_context(Dictionary(np.eye(4)), params, Y)
        state = HqsState(np.zeros((4, 9)), np.zeros((4, 9)), np.zeros((4, 9)))
        new = hqs_step_full(ctx, Y, state, params)
        assert np.allclose(new.G, Y / 3.0, atol=1e-14)

    def test_full_shrinkage_gives_zero_V(self):
        rng = np.random.default_rng(1)
        Y = 0.1 * rng.normal(size=(4, 9))
        params = make_params(4, b=1.0, mu=50.0, zero_net=True)
        ctx = sv.make_context(Dictionary(np.eye(4)), params, Y)
        state = initial_state(ctx, Y)
        new = hqs_step_full(ctx, Y, state, params)
        assert np.array_equal(new.V, np.zeros_like(new.V))

    def test_scalar_root_oracle_with_identity_denoiser(self, monkeypatch):
        monkeypatch.setattr(sv, "denoise", identity_denoise)
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(3, 4))
        b, mu = 1.0, 0.3
        params = make_params(3, b=b, mu=mu)
        ctx = sv.make_context(Dictionary(np.eye(3)), params, Y)
        state = initial_state(ctx, Y)
        for _ in range(400):
            state = hqs_step_full(ctx, Y, state, params)
        tau = mu / b

        def fixed_point_gap(g, y):
            return g * (2.0 + b) - y - b * soft_threshold(np.float64(g), tau) - b * g

        for y, g in zip(Y.ravel(), state.G.ravel()):
            root = brentq(fixed_point_gap, -50, 50, args=(y,), xtol=1e-14)
            assert abs(g - root) < 1e-10

    def test_stale_context(self):
        Y = np.zeros((3, 4))
        params = make_params(3, b=1.0, zero_net=True)
        ctx = sv.make_context(Dictionary(np.eye(3)), params, Y)
        changed = make_params(3, b=2.0, zero_net=True)
        with pytest.raises(sv.StaleContextError):
            sv.iteration_map(ctx, np.zeros((3, 4)), changed)


class TestIterationMapFull:
    def _setup(self, seed=3, d=6, M=10, N=9):
        rng = np.random.default_rng(seed)
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        Y = rng.normal(size=(d, N))
        params = make_params(d, hidden=4, b=0.8, mu=0.2, seed=seed)
        ctx = sv.make_context(D, params, Y)
        return ctx, D, Y, params, rng

    def test_substitution_identity(self):
        ctx, D, Y, params, rng = self._setup()
        G = rng.normal(size=(10, 9))
        from blocksc.denoiser import denoise
        state = HqsState(G, soft_threshold(G, params.scalars.mu / ctx.b),
                            denoise(params.denoiser, ctx.D @ G))
        swept = hqs_step_full(ctx, Y, state, params)
        mapped = sv.iteration_map(ctx, G, params)
        assert np.abs(swept.G - mapped).max() < 1e-12

    def test_dead_branches(self):
        rng = np.random.default_rng(4)
        d, M, N = 5, 8, 4
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        Y = rng.normal(size=(d, N))
        params = make_params(d, b=0.7, mu=1e9, zero_net=True)
        ctx = sv.make_context(D, params, Y)
        out = sv.iteration_map(ctx, np.zeros((M, N)), params)
        A = (1 + ctx.b) * (D.atoms.T @ D.atoms) + np.eye(M)
        assert np.allclose(out, np.linalg.solve(A, D.atoms.T @ Y), atol=1e-12)

    def test_one_denoiser_call_per_application(self, monkeypatch):
        ctx, D, Y, params, rng = self._setup(seed=5)
        calls = {"n": 0}
        real = sv.denoise

        def counting(p, block):
            calls["n"] += 1
            return real(p, block)

        monkeypatch.setattr(sv, "denoise", counting)
        sv.iteration_map(ctx, np.zeros((10, 9)), params)
        assert calls["n"] == 1

    def test_contraction_reported_below_one(self):
        ctx, D, Y, params, rng = self._setup(seed=6)
        est = sv.contraction_estimate(ctx, params, pairs=8, seed=6)
        assert est < 1.0


class TestSelectSupport:
    def test_identical_columns(self):
        rng = np.random.default_rng(7)
        D = Dictionary(decorrelate_atoms(rng.normal(size=(8, 16)), 0.3))
        col = D.atoms[:, 3] * 2.0
        Y = np.tile(col[:, None], (1, 6))
        sup = sv.select_support(Y, D, s=1)
        assert list(sup.indices) == [3]

    def test_planted_shared_support_recovery(self):
        hits = 0
        trials = 60
        for t in range(trials):
            rng = np.random.default_rng(900 + t)
            D = Dictionary(decorrelate_atoms(rng.normal(size=(32, 64)), 0.18,
                                             iters=80))
            idx = np.sort(rng.choice(64, size=5, replace=False))
            base = rng.uniform(1.0, 2.0, size=5) * rng.choice([-1, 1], size=5)
            coeffs = base[:, None] * (1.0 + 0.1 * rng.normal(size=(5, 25)))
            Y = D.atoms[:, idx] @ coeffs
            sup = sv.select_support(Y, D, s=5)
            hits += list(sup.indices) == list(idx)
        assert hits >= 0.95 * trials

    def test_zero_block_empty_support(self):
        D = Dictionary(np.eye(5))
        assert sv.select_support(np.zeros((5, 4)), D, s=2).size == 0


class TestIterationMapFast:
    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        D = Dictionary(q)
        Y = rng.normal(size=(6, 4))
        params = make_params(6, b=0.9, zero_net=True)
        sup = SupportSet(np.arange(6))
        ctx = sv.make_context(D, params, Y, sup)
        out = sv.iteration_map(ctx, np.zeros((6, 4)), params)
        assert np.allclose(out, (q.T @ Y) / (1 + ctx.b), atol=1e-6)

    def test_restriction_oracle_orthonormal_b1(self):
        # at b = 1 and mu -> 0 the clamped full map and the fast map share
        # their fixed point on an orthonormal dictionary
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        D = Dictionary(q)
        Y = 0.5 * rng.normal(size=(6, 9))
        params = make_params(6, hidden=4, b=1.0, mu=1e-9, seed=9)
        sup = SupportSet(np.array([0, 2, 5]))
        fast_ctx = sv.make_context(D, params, Y, sup)
        G_fast = sv.initial_codes(fast_ctx)
        for _ in range(300):
            G_fast = sv.iteration_map(fast_ctx, G_fast, params)

        full_ctx = sv.make_context(D, params, Y)
        G_full = sv.initial_codes(full_ctx)
        keep = np.zeros((6, 1))
        keep[sup.indices] = 1.0
        for _ in range(300):
            G_full = keep * sv.iteration_map(full_ctx, G_full, params)
        diff = np.abs(G_full[sup.indices] - G_fast).max()
        assert diff < 1e-5 * max(np.abs(G_fast).max(), 1e-12)

    def test_identity_denoiser_normal_equations(self, monkeypatch):
        monkeypatch.setattr(sv, "denoise", identity_denoise)
        rng = np.random.default_rng(10)
        D = Dictionary(decorrelate_atoms(rng.normal(size=(8, 16)), 0.3))
        Y = 0.05 * rng.normal(size=(8, 9))
        params = make_params(8, b=1.2)
        sup = SupportSet(np.array([1, 4, 9, 12]))
        ctx = sv.make_context(D, params, Y, sup)
        G = sv.initial_codes(ctx)
        for _ in range(2000):
            G = sv.iteration_map(ctx, G, params)
        resid = ctx.D.T @ (Y - ctx.D @ G)
        assert np.linalg.norm(resid) < 1e-8

    def test_support_size_capped_at_d(self):
        rng = np.random.default_rng(13)
        D = Dictionary(normalize_atoms(rng.normal(size=(3, 6))))
        params = make_params(3, zero_net=True)
        Y = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"\|S\| <= d"):
            sv.make_context(D, params, Y, SupportSet(np.arange(4)))
        # |S| == d is fine
        sv.make_context(D, params, Y, SupportSet(np.arange(3)))


class TestFoldedSolve:
    """The context keeps A^-1 in place of a Cholesky factor: check that it
    is accurate on the benchmark's dictionary shape, and that the folded
    map equals the factored-solve form it replaced."""

    def _contexts(self):
        rng = np.random.default_rng(21)
        D = Dictionary(decorrelate_atoms(rng.normal(size=(31, 64))))
        Y = rng.normal(size=(31, 16))
        params = make_params(31, hidden=4, b=0.8, mu=0.05, seed=21)
        sup = SupportSet(np.sort(rng.choice(64, size=10, replace=False)))
        full = sv.make_context(D, params, Y)
        fast = sv.make_context(D, params, Y, sup)
        return Y, params, full, fast, rng

    def test_inverse_is_accurate(self):
        _, _, full, fast, _ = self._contexts()
        for ctx in (full, fast):
            A = map_matrix(ctx)
            eye = np.eye(A.shape[0])
            assert np.linalg.norm(A @ ctx.Ainv - eye, 2) < 1e-13

    def test_map_equals_the_factored_solve(self):
        Y, params, full, fast, rng = self._contexts()
        for ctx in (full, fast):
            G = rng.normal(size=ctx.c0.shape)
            rhs = ctx.D.T @ Y + ctx.b * (
                ctx.D.T @ sv.denoise(params.denoiser, ctx.D @ G))
            if ctx.mode == "full":
                rhs += ctx.b * soft_threshold(G, params.scalars.mu / ctx.b)
            want = cho_solve(cho_factor(map_matrix(ctx)), rhs)
            got = sv.iteration_map(ctx, G, params)
            assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


class TestReconstruct:
    def test_zero_codes(self):
        params = make_params(3, zero_net=True)
        ctx = sv.make_context(Dictionary(np.eye(3)), params, np.zeros((3, 5)))
        assert np.array_equal(sv.reconstruct(ctx, np.zeros((3, 5))),
                              np.zeros((3, 5)))

    def test_full_fast_agree_on_support(self):
        rng = np.random.default_rng(11)
        D = Dictionary(normalize_atoms(rng.normal(size=(6, 12))))
        params = make_params(6, zero_net=True)
        sup = SupportSet(np.array([2, 5, 7]))
        Y = np.zeros((6, 4))
        full = sv.make_context(D, params, Y)
        fast = sv.make_context(D, params, Y, sup)
        G = np.zeros((12, 4))
        G[sup.indices] = rng.normal(size=(3, 4))
        assert np.allclose(sv.reconstruct(full, G),
                           sv.reconstruct(fast, G[sup.indices]), atol=1e-14)

    def test_planted_round_trip(self):
        rng = np.random.default_rng(12)
        D = Dictionary(normalize_atoms(rng.normal(size=(6, 12))))
        params = make_params(6, zero_net=True)
        ctx = sv.make_context(D, params, np.zeros((6, 7)))
        G = rng.normal(size=(12, 7))
        X = D.atoms @ G
        assert np.linalg.norm(sv.reconstruct(ctx, G) - X) < 1e-10


def fd_scalar(fn, x0, step=1e-6):
    return (fn(x0 + step) - fn(x0 - step)) / (2 * step)


class TestMapVjps:
    """Finite-difference checks of one map application's cotangents."""

    def _instance(self, mode, seed):
        rng = np.random.default_rng(seed)
        d, M, N = 6, 8, 9
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        Y = rng.normal(size=(d, N))
        params = make_params(d, hidden=3, b=0.6, mu=0.15, seed=seed)
        if mode == "full":
            ctx = sv.make_context(D, params, Y)
            G = rng.normal(size=(M, N))
        else:
            sup = SupportSet(np.sort(rng.choice(M, size=4, replace=False)))
            ctx = sv.make_context(D, params, Y, sup)
            G = rng.normal(size=(4, N))
        cot = rng.normal(size=G.shape)
        return D, Y, params, ctx, G, cot

    def _rebuild(self, D, params, Y, ctx):
        return sv.make_context(D, params, Y, ctx.support)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_cot_G_matches_fd(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=13)
        cot_G, _ = sv.map_vjp(ctx, G, params, cot)
        step = 1e-6
        rng = np.random.default_rng(14)
        for _ in range(12):
            i = rng.integers(G.shape[0])
            j = rng.integers(G.shape[1])
            Gp = G.copy()
            Gp[i, j] += step
            Gm = G.copy()
            Gm[i, j] -= step
            fd = ((sv.iteration_map(ctx, Gp, params) * cot).sum()
                  - (sv.iteration_map(ctx, Gm, params) * cot).sum()) / (2 * step)
            assert abs(cot_G[i, j] - fd) < 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_scalar_grads_match_fd(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=15)
        _, grads = sv.map_vjp(ctx, G, params, cot)

        def loss_at_raw_b(raw):
            p = params.copy()
            p.scalars.raw_b[...] = raw
            c = self._rebuild(D, p, Y, ctx)
            return float((sv.iteration_map(c, G, p) * cot).sum())

        def loss_at_raw_mu(raw):
            p = params.copy()
            p.scalars.raw_mu[...] = raw
            c = self._rebuild(D, p, Y, ctx)
            return float((sv.iteration_map(c, G, p) * cot).sum())

        fd_b = fd_scalar(loss_at_raw_b, float(params.scalars.raw_b))
        fd_mu = fd_scalar(loss_at_raw_mu, float(params.scalars.raw_mu))
        assert abs(float(grads["scalars.raw_b"]) - fd_b) < 1e-5 * max(1.0, abs(fd_b))
        assert abs(float(grads["scalars.raw_mu"]) - fd_mu) < 1e-5 * max(1.0, abs(fd_mu))

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_weight_grads_match_fd(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=16)
        _, grads = sv.map_vjp(ctx, G, params, cot)
        step = 1e-6
        rng = np.random.default_rng(17)
        for li in (1, 4):
            w = params.denoiser.weights[li - 1]
            g = grads[f"denoiser.layer{li}.weight"]
            for _ in range(6):
                idx = tuple(rng.integers(s) for s in w.shape)
                orig = w[idx]
                w[idx] = orig + step
                lp = float((sv.iteration_map(ctx, G, params) * cot).sum())
                w[idx] = orig - step
                lm = float((sv.iteration_map(ctx, G, params) * cot).sum())
                w[idx] = orig
                fd = (lp - lm) / (2 * step)
                assert abs(g[idx] - fd) < 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_linearized_transpose_equals_map_vjp(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=18)
        lin = sv.linearize_map(ctx, G, params)
        cot_G, _ = sv.map_vjp(ctx, G, params, cot)
        assert np.array_equal(lin(params, cot), cot_G)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_linearized_transpose_is_linear(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=19)
        other = np.random.default_rng(19).normal(size=cot.shape)
        lin = sv.linearize_map(ctx, G, params)
        mixed = lin(params, 2.5 * cot - other)
        expect = 2.5 * lin(params, cot) - lin(params, other)
        assert np.abs(mixed - expect).max() < 1e-12 * np.abs(expect).max()
        assert np.array_equal(lin(params, np.zeros_like(cot)),
                              np.zeros_like(cot))

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_map_vjp_reuses_linearization(self, mode):
        D, Y, params, ctx, G, cot = self._instance(mode, seed=20)
        lin = sv.linearize_map(ctx, G, params)
        cot_G, grads = sv.map_vjp(ctx, G, params, cot)
        cot_lin, grads_lin = sv.map_vjp(ctx, G, params, cot, lin=lin)
        assert np.array_equal(cot_lin, cot_G)
        assert set(grads_lin) == set(grads)
        for k in grads:
            assert np.array_equal(grads_lin[k], grads[k]), k

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("given_lin", [False, True])
    def test_stale_context_raises(self, mode, given_lin):
        # a linearization made elsewhere does not skip the context check
        D, Y, params, ctx, G, cot = self._instance(mode, seed=22)
        lin = sv.linearize_map(ctx, G, params) if given_lin else None
        changed = params.copy()
        changed.scalars.raw_b[...] += 0.5
        with pytest.raises(sv.StaleContextError):
            sv.map_vjp(ctx, G, changed, cot, lin=lin)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_linearization_holds_no_weights(self, mode):
        # the float32 copy a linearization was made on can die before the
        # reverse sweeps, which take the weights they run on
        D, Y, params, ctx, G, cot = self._instance(mode, seed=23)
        net = float32_params(params)
        lin = sv.linearize_map(ctx, G, net)
        first_weight = weakref.ref(net.denoiser.weights[0])
        del net
        assert first_weight() is None
        net = float32_params(params)  # the same weights, a new copy
        assert np.array_equal(lin(net, cot),
                              sv.linearize_map(ctx, G, net)(net, cot))


class TestMapVjpPeak:
    """``map_vjp`` adds nothing to its network VJP's memory peak.

    At these sizes (hidden 32 > M) the network's patch matrices set the
    peak, as on the training workloads.  The scalar cotangents'
    code-sized temporaries are dead before the VJP starts, and the VJP's
    input cotangent b D W is scaled in place, not held beside D W."""

    @staticmethod
    def traced_peak(fn):
        fn()  # untraced first: one-time lazy allocations stay out
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("net_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_adds_nothing_to_the_network_vjps_peak(self, mode, net_dtype):
        rng = np.random.default_rng(21)
        d, M, n = 16, 32, 12
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        params = make_params(d, hidden=32, b=0.8, mu=0.05, seed=21)
        support = (None if mode == "full"
                   else SupportSet(np.sort(rng.choice(M, 10, replace=False))))
        ctx = sv.make_context(D, params, rng.normal(size=(d, n * n)),
                              support)
        G = 0.1 * rng.normal(size=ctx.c0.shape)
        cot = rng.normal(size=G.shape)
        net = float32_params(params) if net_dtype == np.float32 else params

        def network_alone():
            lin = sv.linearize_map(ctx, G, net)
            denoise_vjp(net.denoiser, lin.den, ctx.b * (ctx.P.T @ cot))

        peak = self.traced_peak(lambda: sv.map_vjp(ctx, G, net, cot))
        assert peak <= self.traced_peak(network_alone) + 4096

    def test_scalar_branch_holds_few_codes(self, monkeypatch):
        """Up to the network VJP, the full map's scalar cotangents hold at
        most four code-sized arrays beyond what the caller passed: G_next,
        b A^-1 S and the tau cotangent are formed in place, and x's
        cotangent of the shrinkage, which nothing reads, is not formed."""
        rng = np.random.default_rng(5)
        d, M, n = 4, 64, 10  # codes far larger than the tiny network's
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        params = make_params(d, hidden=2, b=0.8, mu=0.05, seed=5)
        ctx = sv.make_context(D, params, rng.normal(size=(d, n * n)))
        G = 0.1 * rng.normal(size=ctx.c0.shape)
        cot = rng.normal(size=G.shape)
        lin = sv.linearize_map(ctx, G, params)
        peaks, real = [], sv.denoise_vjp

        def at_network_vjp(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return real(*args)

        monkeypatch.setattr(sv, "denoise_vjp", at_network_vjp)
        sv.map_vjp(ctx, G, params, cot, lin=lin)  # lazy allocations first
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            sv.map_vjp(ctx, G, params, cot, lin=lin)
        finally:
            tracemalloc.stop()
        # one fresh array per step, x's shrinkage cotangent too: about eight
        assert peaks[-1] - entry <= 4 * G.nbytes
