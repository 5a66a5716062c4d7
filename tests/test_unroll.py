import tracemalloc
import weakref

import numpy as np
import pytest

from blocksc import solver as sv
from blocksc import unroll as du
from blocksc.anderson import AndersonConfig, DivergenceError
from blocksc.deq import deq_forward
from blocksc.denoiser import ModelParams, ScalarParams, float32_params, \
    init_denoiser, spectral_normalize
from blocksc.dictionary import Dictionary, SupportSet, normalize_atoms


def make_params(d, hidden=3, b=0.6, mu=0.15, seed=0):
    den = init_denoiser(d, hidden=hidden, seed=seed)
    spectral_normalize(den, iters=30)
    return ModelParams(den, ScalarParams.from_values(b, mu))


def du_loss(ctx, G_K, X):
    """||D G_K - X||_F^2, the K-layer loss that du_backward differentiates."""
    resid = sv.reconstruct(ctx, G_K) - X
    return float((resid * resid).sum())


def instance(seed, variant="full", d=6, M=8, N=9):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
    Y = rng.normal(size=(d, N))
    X = rng.normal(size=(d, N))
    params = make_params(d, seed=seed)
    if variant == "fast":
        sup = SupportSet(np.sort(rng.choice(M, size=4, replace=False)))
        ctx = sv.make_context(D, params, Y, sup)
    else:
        ctx = sv.make_context(D, params, Y)
    return D, Y, X, params, ctx


class TestDuForward:
    def test_K1_is_one_map_application(self):
        D, Y, X, params, ctx = instance(0)
        out, trace = du.du_forward(ctx, params, 1)
        direct = sv.iteration_map(ctx, sv.initial_codes(ctx), params)
        assert np.array_equal(out, direct)
        assert len(trace) == 2

    def test_composition(self):
        D, Y, X, params, ctx = instance(1)
        g4, _ = du.du_forward(ctx, params, 4)
        g5a = sv.iteration_map(ctx, g4, params)
        g5b, _ = du.du_forward(ctx, params, 5)
        assert np.array_equal(g5a, g5b)

    def test_layerwise_equals_deq_map(self):
        D, Y, X, params, ctx = instance(2)
        _, trace = du.du_forward(ctx, params, 6)
        g = sv.initial_codes(ctx)
        for k in range(1, 7):
            g = sv.iteration_map(ctx, g, params)
            assert np.abs(trace[k] - g).max() < 1e-12

    def test_large_K_approaches_deq_fixed_point(self):
        D, Y, X, params, ctx = instance(3, variant="fast")
        g50, _ = du.du_forward(ctx, params, 50)
        rep = deq_forward(ctx, params,
                          AndersonConfig(m=6, max_iters=200, tol=1e-13))
        rel = np.linalg.norm(g50 - rep.solution) / \
            max(np.linalg.norm(rep.solution), 1e-30)
        assert rel < 1e-3

    def test_K0_forbidden(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            du.UnrollConfig(K=0)

    def test_non_finite_iterate_raises(self):
        D, Y, X, params, ctx = instance(4)
        for w in params.denoiser.weights:
            w *= 1e80  # N(0) = 0 as the biases are zero; N(D G_1) overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            du.du_forward(ctx, params, 3)
        assert exc.value.iteration == 2


class TestDuBackward:
    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_K1_gradient_matches_finite_differences(self, variant):
        D, Y, X, params, ctx = instance(4, variant)
        cfg = du.UnrollConfig(K=1, variant=variant)
        _, trace = du.du_forward(ctx, params, cfg.K)
        _, grads = du.du_backward(ctx, trace, X, params)

        def loss_with(p):
            c = sv.make_context(D, p, Y, ctx.support)
            G_K, _ = du.du_forward(c, p, cfg.K)
            return du_loss(c, G_K, X)

        pdict = params.as_dict()
        rng = np.random.default_rng(5)
        step = 1e-6
        checks = [("scalars.raw_b", ()), ("scalars.raw_mu", ())]
        for li in (1, 3):
            w = params.denoiser.weights[li - 1]
            for _ in range(4):
                checks.append((f"denoiser.layer{li}.weight",
                               tuple(rng.integers(s) for s in w.shape)))
        for name, sel in checks:
            arr = pdict[name]
            orig = float(arr[sel])
            arr[sel] = orig + step
            lp = loss_with(params)
            arr[sel] = orig - step
            lm = loss_with(params)
            arr[sel] = orig
            fd = (lp - lm) / (2 * step)
            got = float(np.asarray(grads[name])[sel])
            assert abs(got - fd) < 1e-5 * max(abs(got), abs(fd), 1e-6), name

    def test_exact_target_zero_gradient(self):
        D, Y, X, params, ctx = instance(6)
        cfg = du.UnrollConfig(K=3)
        G_K, trace = du.du_forward(ctx, params, cfg.K)
        loss, grads = du.du_backward(ctx, trace, sv.reconstruct(ctx, G_K),
                                     params)
        assert loss == 0.0
        for g in grads.values():
            assert np.abs(g).max() == 0.0

    def test_multilayer_gradient_matches_finite_differences(self):
        D, Y, X, params, ctx = instance(7)
        cfg = du.UnrollConfig(K=4)
        _, trace = du.du_forward(ctx, params, cfg.K)
        _, grads = du.du_backward(ctx, trace, X, params)

        def loss_with():
            G_K, _ = du.du_forward(
                sv.make_context(D, params, Y), params, cfg.K)
            return du_loss(ctx, G_K, X)

        step = 1e-6
        w = params.denoiser.weights[1]
        g = grads["denoiser.layer2.weight"]
        rng = np.random.default_rng(8)
        for _ in range(4):
            idx = tuple(rng.integers(s) for s in w.shape)
            orig = w[idx]
            w[idx] = orig + step
            lp = loss_with()
            w[idx] = orig - step
            lm = loss_with()
            w[idx] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(g[idx] - fd) < 1e-5 * max(abs(fd), 1e-6)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_float32_net_returns_float64_gradients(self, variant):
        D, Y, X, params, ctx = instance(11, variant)
        _, trace = du.du_forward(ctx, params, 3)
        loss64, want = du.du_backward(ctx, list(trace), X, params)
        loss, grads = du.du_backward(ctx, trace, X, float32_params(params))
        assert loss == loss64 and set(grads) == set(want)
        for k, g in grads.items():
            assert g.dtype == np.float64, k
            assert np.abs(g - want[k]).max() <= 1e-5 * np.abs(want[k]).max(), k

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_consumes_its_trace(self, monkeypatch, variant):
        """The trace is emptied, each iterate is dead by the next layer's
        ``map_vjp``, and the result is bit for bit a run's on copies."""
        D, Y, X, params, ctx = instance(12, variant)
        trace = du.du_forward(ctx, params, 4)[1]
        want = du.du_backward(ctx, [g.copy() for g in trace], X, params)
        refs, alive = [weakref.ref(g) for g in trace], []
        real_vjp = du.map_vjp

        def vjp(*args, **kwargs):
            alive.append([k for k, ref in enumerate(refs)
                          if ref() is not None])
            return real_vjp(*args, **kwargs)

        monkeypatch.setattr(du, "map_vjp", vjp)
        loss, grads = du.du_backward(ctx, trace, X, params)
        assert trace == []
        # layer k reads iterate k - 1; iterates k..K are dead by then
        assert alive == [list(range(k)) for k in range(4, 0, -1)]
        assert loss == want[0] and set(grads) == set(want[1])
        for k, g in grads.items():
            assert np.array_equal(g, want[1][k]), k

    def test_trace_memory_linear_in_K(self):
        D, Y, X, params, ctx = instance(10)
        sizes = {}
        for K in (2, 4, 8):
            _, trace = du.du_forward(ctx, params, K)
            sizes[K] = sum(g.nbytes for g in trace)
        growth_low = sizes[4] - sizes[2]
        growth_high = sizes[8] - sizes[4]
        assert abs(growth_high / growth_low - 2.0) <= 0.2 * 2.0


class TestDuTrain:
    @staticmethod
    def _dataset(seed=0, count=8, d=6, M=12, N=16):
        rng = np.random.default_rng(seed)
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        pairs = []
        for _ in range(count):
            G = np.zeros((M, N))
            sup = rng.choice(M, size=3, replace=False)
            G[sup] = rng.uniform(0.5, 1.0, size=(3, N))
            clean = D.atoms @ G
            pairs.append((clean + 0.1 * rng.normal(size=clean.shape), clean))
        return D, pairs

    def test_loss_decreases(self):
        D, pairs = self._dataset()
        params0 = make_params(6, hidden=4, b=0.8, mu=0.05, seed=11)
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=4, variant="fast"),
                               support_size=3, epochs=6, lr=3e-3,
                               batch_size=4, seed=0, val_fraction=0.0)
        _, history, _ = du.du_train(pairs, D, params0, cfg)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_log_carries_engine_field(self, tmp_path):
        import json
        D, pairs = self._dataset(count=4)
        params0 = make_params(6, hidden=4, seed=12)
        log = tmp_path / "train.jsonl"
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2, variant="full"),
                               epochs=1, lr=1e-3, batch_size=2, seed=0,
                               val_fraction=0.0, log_path=str(log))
        du.du_train(pairs, D, params0, cfg)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records and all(r["engine"] == "du-full" for r in records)
        assert all({"epoch", "step", "loss", "fwd_iters", "bwd_iters",
                    "grad_norm", "wall_ms"} <= set(r) for r in records)

    def test_reports_no_nonconvergence(self):
        D, pairs = self._dataset(count=4)
        params0 = make_params(6, hidden=4, seed=13)
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=1, variant="full"),
                               epochs=1, lr=1e-3, batch_size=2, seed=0,
                               val_fraction=0.0)
        _, history, _ = du.du_train(pairs, D, params0, cfg)
        assert history[0]["fwd_nonconverged"] == 0
        assert history[0]["adj_nonconverged"] == 0

    def test_val_psnr_is_mean_block_psnr(self):
        # validation scores the served path: float32 network, shared N(0)
        from blocksc.metrics import block_psnr
        from blocksc.pipeline import ModelBundle, denoise_block
        from blocksc.training import split_validation
        D, pairs = self._dataset(seed=3, count=6)
        params = make_params(6, hidden=4, seed=17)
        _, val = split_validation(pairs, 0.5, 0)
        assert len(val) == 3

        # one epoch per run, so the returned params are the ones validated
        adam = None
        for epoch in range(2):
            cfg = du.DuTrainConfig(
                unroll=du.UnrollConfig(K=3, variant="fast"), support_size=3,
                epochs=1, lr=1e-3, batch_size=2, seed=0, val_fraction=0.5)
            params, history, adam = du.du_train(pairs, D, params, cfg,
                                                adam=adam, start_epoch=epoch)
            bundle = ModelBundle(D, params, "du", "fast", K=3, support_size=3)
            expected = np.mean([block_psnr(denoise_block(bundle, noisy), clean)
                                for noisy, clean in val])
            assert history[0]["val_psnr"] == expected

    def test_resume_is_bitwise_reproducible(self):
        D, pairs = self._dataset(count=6)
        params0 = make_params(6, hidden=4, seed=14)

        def cfg(epochs):
            return du.DuTrainConfig(
                unroll=du.UnrollConfig(K=3, variant="fast"), support_size=3,
                epochs=epochs, lr=1e-3, batch_size=3, seed=5,
                val_fraction=0.0)

        one_shot, full_history, full_adam = du.du_train(pairs, D, params0,
                                                        cfg(4))
        mid, _, adam = du.du_train(pairs, D, params0, cfg(2))
        resumed, history, adam = du.du_train(pairs, D, mid, cfg(2),
                                             adam=adam, start_epoch=2)
        assert adam.t == full_adam.t == 8
        assert history == full_history[2:]
        a = one_shot.as_dict()
        b = resumed.as_dict()
        for k in a:
            assert np.array_equal(a[k], b[k]), k
            assert np.array_equal(adam.m[k], full_adam.m[k]), k

    def test_divergent_blocks_are_skipped(self):
        D, pairs = self._dataset(count=4)
        params0 = make_params(6, hidden=4, seed=15)
        for w in params0.denoiser.weights:
            w *= 1e80
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2), epochs=1,
                               lr=1e-3, batch_size=2, seed=0,
                               val_fraction=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            _, history, adam = du.du_train(pairs, D, params0, cfg)
        assert history[0]["skipped"] == 4 and adam.t == 0
        assert np.isnan(history[0]["loss"])  # not 0.0, a perfect fit

    def test_zero_block_trains(self):
        # OMP picks no atom for an all-zero block: an empty fast support
        D, pairs = self._dataset(count=4)
        pairs[0] = (np.zeros_like(pairs[0][0]), pairs[0][1])
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2, variant="fast"),
                               support_size=3, epochs=1, lr=1e-3,
                               batch_size=2, seed=0, val_fraction=0.0)
        _, history, adam = du.du_train(pairs, D, make_params(6, seed=16), cfg)
        assert history[0]["skipped"] == 0 and adam.t == 2


class TestDuTrainPrecisionSplit:
    """``du_train`` runs each block's forward trace and its backward on one
    ``float32_params`` copy; the gradients come back float64 for the layer
    sums and Adam.  The fixture is that of
    ``test_deq.TestTrainPrecisionSplit``."""

    @staticmethod
    def train(variant):
        D, pairs = TestDuTrain._dataset(seed=14, count=4)
        params0 = make_params(6, hidden=4, b=0.8, mu=0.05, seed=14)
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=3, variant=variant),
                               support_size=3, epochs=2, lr=1e-3,
                               batch_size=2, seed=0, val_fraction=0.0)
        return du.du_train(pairs, D, params0, cfg)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_forward_and_backward_convs_float32(self, monkeypatch, conv_spy,
                                                variant):
        seen, in_phase = conv_spy
        for name, label in (("du_forward", "forward"),
                            ("du_backward", "backward")):
            monkeypatch.setattr(du, name, in_phase(label, getattr(du, name)))
        self.train(variant)
        # no validation split, so no other pass: outside the phases runs
        # only each optimizer step's float32 N(0) (2 steps in each epoch)
        assert seen[None] == [("conv2d", {np.dtype(np.float32)})] * (4 * 4)
        fwd, bwd = seen["forward"], seen["backward"]
        # K = 3 map applications per block and epoch (8), 4 layers each,
        # but the first takes the step's N(0) and the last linearizes; the
        # backward re-linearizes the other K - 1 and sweeps all K in
        # reverse, forming each layer's weight cotangent, then its input's
        assert [name for name, _ in fwd] == ["conv2d"] * (4 * 2 * 8)
        assert sorted(name for name, _ in bwd) == (
            ["conv2d"] * (4 * 2 * 8) + ["conv2d_transpose"] * (4 * 3 * 8)
            + ["conv2d_vjp"] * (4 * 3 * 8))
        assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in fwd + bwd)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_matches_a_float64_forward(self, monkeypatch, variant):
        got = self.train(variant)[0].as_dict()
        monkeypatch.setattr(du, "float32_params", lambda params: params)
        expect = self.train(variant)[0].as_dict()
        assert not all(np.array_equal(got[k], expect[k]) for k in expect)
        for k in expect:
            np.testing.assert_allclose(got[k], expect[k], rtol=1e-6,
                                       atol=0, err_msg=k)


class TestKeptLinearization:
    """``du_train`` keeps the linearization that its forward's last map
    step makes at G_{K-1}, so its backward re-linearizes only the other
    K - 1 trace points; the served DU path linearizes none."""

    @staticmethod
    def count_linearizations(monkeypatch):
        """(counts by phase, in_phase): every network linearization the
        map code runs, listed under the innermost open phase."""
        phase, counts = [None], {}
        real = sv.denoise_linearize

        def spy(*args):
            counts[phase[-1]] = counts.get(phase[-1], 0) + 1
            return real(*args)

        def in_phase(label, fn):
            def run(*args, **kwargs):
                phase.append(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return run

        monkeypatch.setattr(sv, "denoise_linearize", spy)
        return counts, in_phase

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_backward_relinearizes_k_minus_one_points(self, monkeypatch,
                                                      variant):
        counts, in_phase = self.count_linearizations(monkeypatch)
        for name in ("du_forward", "du_backward"):
            monkeypatch.setattr(du, name, in_phase(name, getattr(du, name)))
        TestDuTrainPrecisionSplit.train(variant)  # K = 3, 8 blocks
        assert counts == {"du_forward": 8, "du_backward": 2 * 8}

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_served_path_linearizes_none(self, monkeypatch, variant):
        from blocksc.pipeline import ModelBundle, denoise_block
        counts, _ = self.count_linearizations(monkeypatch)
        D, pairs = TestDuTrain._dataset(seed=14, count=1)
        bundle = ModelBundle(D, make_params(6, hidden=4, seed=14), "du",
                             variant, K=3, support_size=3)
        denoise_block(bundle, pairs[0][0])
        denoise_block(bundle, pairs[0][0], budgets=[1, 3])
        assert counts == {}

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_kept_linearization_changes_no_bit(self, variant, K):
        D, Y, X, params, ctx = instance(13, variant)
        net = float32_params(params)
        G_K, trace = du.du_forward(ctx, net, K)
        want = du.du_backward(ctx, trace, X, net)
        lins = []
        kept_G_K, trace = du.du_forward(ctx, net, K, lins=lins)
        assert len(lins) == 1 and np.array_equal(kept_G_K, G_K)
        loss, grads = du.du_backward(ctx, trace, X, net, lins)
        assert lins == [] and loss == want[0] and list(grads) == list(want[1])
        for k, g in grads.items():
            assert np.array_equal(g, want[1][k]), k


class TestBackwardMemory:
    """``du_backward`` holds one float64 gradient sum: every layer adds its
    cotangents into it as the network VJP forms them, with no per-layer
    dict or float64 copy of one beside it."""

    def test_holds_one_gradient_sum(self):
        rng = np.random.default_rng(3)
        d, M, n = 31, 64, 20  # one full-variant training block
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        params = make_params(d, hidden=64, b=0.8, mu=0.05, seed=3)
        ctx = sv.make_context(D, params, rng.normal(size=(d, n * n)))
        X = rng.normal(size=(d, n * n))
        net = float32_params(params)
        G = du.du_forward(ctx, net, 3)[1][-2]
        cot = rng.normal(size=G.shape)

        def above_entry(fn, make_args):
            """fn's traced peak above its entry, on arguments made first,
            as training makes the trace that ``du_backward`` consumes."""
            fn(*make_args())  # one-time lazy allocations stay out
            tracemalloc.start()
            try:
                args = make_args()
                tracemalloc.reset_peak()
                entry = tracemalloc.get_traced_memory()[0]
                fn(*args)
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        # one layer's working set with no parameter cotangents at all
        layer = above_entry(lambda: sv.linearize_map(ctx, G, net)(net, cot),
                            tuple)
        peak = above_entry(
            lambda trace: du.du_backward(ctx, trace, X, net),
            lambda: (du.du_forward(ctx, net, 3)[1],))
        grad_sum = sum(v.size for v in params.as_dict().values()) * 8
        weight_cot = max(w.size for w in net.denoiser.weights) * 4
        # a per-layer gradient dict and its float64 copy held beside the sum
        # read about 1.55 sums above ``layer``
        assert peak <= layer + grad_sum + weight_cot
