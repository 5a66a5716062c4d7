import numpy as np
import pytest

from blocksc import denoiser as dn
from blocksc import tensor as T
from blocksc import training
from blocksc.training import PretrainConfig, pretrain


def tiny_params(d=3, hidden=5, seed=0, bias_scale=0.1):
    params = dn.init_denoiser(d, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for b in params.biases:
        b[:] = bias_scale * rng.normal(size=b.shape)
    return params


def converge_normalization(params, rounds=200):
    for _ in range(rounds):
        dn.spectral_normalize(params, iters=3)
    return params


class TestScalarParams:
    def test_softplus_round_trip(self):
        sp = dn.ScalarParams.from_values(1.0, 0.05)
        assert sp.b == pytest.approx(1.0, rel=1e-12)
        assert sp.mu == pytest.approx(0.05, rel=1e-12)

    def test_positive(self):
        sp = dn.ScalarParams(np.float64(-30.0), np.float64(-30.0))
        assert sp.b > 0 and sp.mu > 0

    def test_grad_chain_equals_expit_bitwise(self):
        from scipy.special import expit

        raw = np.concatenate([
            [0.0, 709.8, -709.8, 745.2, -745.2, 1000.0, -1000.0],
            np.linspace(-800.0, 800.0, 4001),
            np.random.default_rng(0).normal(scale=20.0, size=2000)])
        got = [dn.ScalarParams(r, -r).grad_chain() for r in raw]
        assert np.array_equal(np.array(got), np.stack([expit(raw),
                                                       expit(-raw)], axis=1))

    def test_grad_chain_at_large_negative_raw_is_zero(self):
        assert dn.ScalarParams(-1000.0, 0.0).grad_chain() == (0.0, 0.5)


class TestDenoise:
    def test_zero_weights_zero_output(self):
        params = dn.init_denoiser(4, hidden=6, seed=0)
        for w in params.weights:
            w[:] = 0.0
        block = np.random.default_rng(0).normal(size=(4, 9))
        assert np.array_equal(dn.denoise(params, block), np.zeros((4, 9)))

    def test_shape_contract_and_finite(self):
        params = dn.init_denoiser(5, hidden=8, seed=1)
        block = np.random.default_rng(1).normal(size=(5, 16))
        out = dn.denoise(params, block)
        assert out.shape == (5, 16)
        assert np.all(np.isfinite(out))

    def test_non_square_N_rejected(self):
        params = dn.init_denoiser(3, hidden=4, seed=2)
        with pytest.raises(ValueError, match="perfect square"):
            dn.denoise(params, np.ones((3, 10)))

    def test_lipschitz_sampling(self):
        params = converge_normalization(tiny_params(d=4, hidden=12, seed=3))
        rng = np.random.default_rng(4)
        for _ in range(100):
            x1 = rng.normal(size=(4, 25))
            x2 = rng.normal(size=(4, 25))
            num = np.linalg.norm(dn.denoise(params, x1) - dn.denoise(params, x2))
            den = np.linalg.norm(x1 - x2)
            assert num <= (1.0 + 1e-3) * den


class TestDenoiseDtype:
    def _as_float32(self, params):
        model = dn.ModelParams(params, dn.ScalarParams(0.0, 0.0))
        return dn.float32_params(model).denoiser

    def test_float32_weights_keep_the_block_dtype(self, monkeypatch):
        params = converge_normalization(tiny_params(d=4, hidden=12, seed=7))
        block = np.random.default_rng(7).normal(size=(4, 36))
        out64 = dn.denoise(params, block)
        seen = []

        def spy(x, weight, bias):
            seen.append(x.dtype)
            return T.conv2d(x, weight, bias)

        monkeypatch.setattr(dn, "conv2d", spy)
        out32 = dn.denoise(self._as_float32(params), block)
        assert seen == [np.float32] * 4  # every layer runs in float32
        assert out32.dtype == np.float64
        # relative to the output's scale: single entries may sit near zero
        assert np.abs(out32 - out64).max() <= 1e-5 * np.abs(out64).max()

    def test_float32_weights_run_the_transpose_in_float32(self, monkeypatch):
        params = converge_normalization(tiny_params(d=4, hidden=12, seed=9))
        rng = np.random.default_rng(9)
        block, cot = rng.normal(size=(2, 4, 36))
        lin = dn.denoise_linearize(params, block)
        out64 = lin.transpose(params, cot)
        seen = []

        def spy(weight, c):
            seen.append({weight.dtype, c.dtype})
            return T.conv2d_transpose(weight, c)

        monkeypatch.setattr(dn, "conv2d_transpose", spy)
        out32 = lin.transpose(self._as_float32(params), cot)
        assert seen == [{np.dtype(np.float32)}] * 4  # every layer
        assert out32.dtype == cot.dtype == np.float64
        assert np.abs(out32 - out64).max() <= 1e-5 * np.abs(out64).max()

    def test_float64_weights_run_the_float64_stack(self):
        params = tiny_params(d=4, hidden=6, seed=8)
        block = np.random.default_rng(8).normal(size=(4, 25))
        h = block.reshape(4, 5, 5)
        for i in range(3):
            h = np.maximum(T.conv2d(h, params.weights[i], params.biases[i]),
                           0.0)
        h = T.conv2d(h, params.weights[3], params.biases[3])
        out = dn.denoise(params, block)
        assert out.dtype == np.float64
        assert np.array_equal(out, h.reshape(4, 25))


class TestLinearizeVjpDtype:
    """``denoise_linearize`` and ``denoise_vjp`` run in the weights' dtype
    and return the block's and the cotangent's: ``out``, ``cot_block`` and
    every gradient come back float64 from float32 weights, and the casts
    change nothing on float64 weights."""

    @staticmethod
    def reference(params, block, cot):
        """The float64 forward and reverse sweep, written out."""
        inputs, h = [], block.reshape(4, 6, 6)
        for i in range(4):
            inputs.append(h)
            h = T.conv2d(h, params.weights[i], params.biases[i])
            h = np.maximum(h, 0.0) if i < 3 else h
        grads, c = {}, cot.reshape(h.shape)
        for i in reversed(range(4)):
            if i < 3:
                c = c * (inputs[i + 1] > 0.0)
            cw, cb = T.conv2d_vjp(inputs[i], c)
            c = T.conv2d_transpose(params.weights[i], c)
            grads[f"denoiser.layer{i + 1}.weight"] = cw
            grads[f"denoiser.layer{i + 1}.bias"] = cb
        return h.reshape(block.shape), c.reshape(cot.shape), grads

    @staticmethod
    def pairs(params, case):
        """(got, float64 reference) for ``out``, ``cot_block`` and each
        gradient, ``params`` running the sweep on ``case``'s block."""
        _, block, cot = case
        lin = dn.denoise_linearize(params, block)
        cot_block, grads = dn.denoise_vjp(params, lin, cot)
        out64, cot64, grads64 = TestLinearizeVjpDtype.reference(*case)
        assert set(grads) == set(grads64)
        return [(lin.out, out64), (cot_block, cot64)] + [
            (grads[k], grads64[k]) for k in grads64]

    @pytest.fixture
    def case(self):
        params = converge_normalization(tiny_params(d=4, hidden=12, seed=30))
        block, cot = np.random.default_rng(30).normal(size=(2, 4, 36))
        return params, block, cot

    def test_float64_weights_equal_the_float64_sweep(self, case):
        for got, want in self.pairs(case[0], case):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_float32_weights_return_float64(self, case):
        p32 = dn.float32_params(
            dn.ModelParams(case[0], dn.ScalarParams(0.0, 0.0))).denoiser
        assert dn.denoise_linearize(p32, case[1]).inputs[0].dtype == np.float32
        # the linearization's output stays float32, as its layer inputs do;
        # the cotangent and the gradients come back float64
        for i, (got, want) in enumerate(self.pairs(p32, case)):
            assert got.dtype == (np.float32 if i == 0 else np.float64)
            # float32 rounding, relative to the array's scale
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestSpectralNormalize:
    def _unfolded_sigma(self, w):
        return np.linalg.svd(w.reshape(w.shape[0], -1), compute_uv=False)[0]

    def test_expansive_layer_pulled_to_unit(self):
        params = tiny_params(d=3, hidden=5, seed=5)
        params.weights[1] *= 3.0 / self._unfolded_sigma(params.weights[1])
        converge_normalization(params)
        est = dn.estimated_spectral_norms(params)[1]
        exact = self._unfolded_sigma(params.weights[1])
        assert 0.99 <= est <= 1.0
        assert exact <= 1.0 + 1e-6

    def test_contractive_layer_unchanged(self):
        params = tiny_params(d=3, hidden=5, seed=6)
        params.weights[2] *= 0.5 / self._unfolded_sigma(params.weights[2])
        before = params.weights[2].copy()
        dn.spectral_normalize(params, iters=5)
        assert np.array_equal(params.weights[2], before)

    def test_idempotent_after_convergence(self):
        params = tiny_params(d=3, hidden=5, seed=7)
        params.weights[0] *= 4.0
        converge_normalization(params)
        before = [w.copy() for w in params.weights]
        dn.spectral_normalize(params)
        for w0, w1 in zip(before, params.weights):
            assert np.abs(w1 - w0).max() <= 1e-6 * max(np.abs(w0).max(), 1e-30)

    def test_estimate_bounded_after_call(self):
        params = tiny_params(d=4, hidden=6, seed=8)
        for w in params.weights:
            w *= 2.5
        dn.spectral_normalize(params)
        for est in dn.estimated_spectral_norms(params):
            assert est <= 1.0 + 1e-6


class TestDenoiseVjp:
    def test_zero_cotangent(self):
        params = tiny_params()
        block = np.random.default_rng(9).normal(size=(3, 16))
        cot_block, grads = dn.denoise_vjp(
            params, dn.denoise_linearize(params, block), np.zeros((3, 16)))
        assert np.array_equal(cot_block, np.zeros((3, 16)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_linearity(self):
        params = tiny_params(seed=10)
        rng = np.random.default_rng(10)
        block = rng.normal(size=(3, 16))
        cot = rng.normal(size=(3, 16))
        lin = dn.denoise_linearize(params, block)
        cb1, g1 = dn.denoise_vjp(params, lin, cot)
        cb2, g2 = dn.denoise_vjp(params, lin, 2.0 * cot)
        assert np.abs(cb2 - 2 * cb1).max() < 1e-12
        for k in g1:
            assert np.abs(g2[k] - 2 * g1[k]).max() < 1e-12

    def test_finite_differences(self):
        params = tiny_params(d=3, hidden=5, seed=11)
        rng = np.random.default_rng(11)
        block = rng.normal(size=(3, 16))
        cot = rng.normal(size=(3, 16))
        cot_block, grads = dn.denoise_vjp(
            params, dn.denoise_linearize(params, block), cot)
        step = 1e-6

        def loss():
            return float((dn.denoise(params, block) * cot).sum())

        def loss_at_block(b):
            return float((dn.denoise(params, b) * cot).sum())

        fd_block = np.zeros_like(block)
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                bp = block.copy()
                bp[i, j] += step
                bm = block.copy()
                bm[i, j] -= step
                fd_block[i, j] = (loss_at_block(bp) - loss_at_block(bm)) / (2 * step)
        scale = max(np.abs(fd_block).max(), 1e-30)
        assert np.abs(cot_block - fd_block).max() / scale < 1e-5

        for li, w in enumerate(params.weights, start=1):
            g = grads[f"denoiser.layer{li}.weight"]
            it = np.nditer(w, flags=["multi_index"])
            fd = np.zeros_like(w)
            while not it.finished:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + step
                lp = loss()
                w[idx] = orig - step
                lm = loss()
                w[idx] = orig
                fd[idx] = (lp - lm) / (2 * step)
                it.iternext()
            scale = max(np.abs(fd).max(), np.abs(g).max(), 1e-30)
            assert np.abs(g - fd).max() / scale < 1e-5


def fd_grad(loss, x, step=1e-6):
    """Central finite differences of a scalar loss w.r.t. array x."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (loss(xp) - loss(xm)) / (2 * step)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() / denom


class TestLayerStack:
    def test_relu_conv_chain_matches_finite_differences(self):
        # layers 2-4 are identity convs, so the stack computes relu(conv(x))
        rng = np.random.default_rng(12)
        d = 3
        params = dn.init_denoiser(d, hidden=d, seed=0)
        w = rng.normal(size=(d, d, 3, 3))
        b = rng.normal(size=d)
        params.weights[0][:] = w
        params.biases[0][:] = b
        for i in (1, 2, 3):
            params.weights[i][:] = 0.0
            params.weights[i][:, :, 1, 1] = np.eye(d)
            params.biases[i][:] = 0.0
        x = rng.normal(size=(d, 4, 4))
        cot = rng.normal(size=(d, 4, 4))

        def chain(v, w=w, b=b):
            return T.relu(T.conv2d(v, w, b))

        lin = dn.denoise_linearize(params, x.reshape(d, 16))
        assert np.array_equal(lin.out, chain(x).reshape(d, 16))
        cot_x = lin.transpose(params, cot.reshape(d, 16)).reshape(x.shape)
        fx = fd_grad(lambda v: float((chain(v) * cot).sum()), x)
        assert rel_err(cot_x, fx) < 1e-5

        cot_block, grads = dn.denoise_vjp(params, lin, cot.reshape(d, 16))
        assert np.array_equal(cot_block, cot_x.reshape(d, 16))
        assert set(grads) == {f"denoiser.layer{i}.{kind}" for i in range(1, 5)
                              for kind in ("weight", "bias")}
        fw = fd_grad(lambda v: float((chain(x, w=v) * cot).sum()), w)
        fb = fd_grad(lambda v: float((chain(x, b=v) * cot).sum()), b)
        assert rel_err(grads["denoiser.layer1.weight"], fw) < 1e-5
        assert rel_err(grads["denoiser.layer1.bias"], fb) < 1e-5

    def test_forward_equals_denoise(self):
        params = tiny_params(d=4, hidden=6, seed=20)
        block = np.random.default_rng(20).normal(size=(4, 25))
        lin = dn.denoise_linearize(params, block)
        assert np.array_equal(lin.out, dn.denoise(params, block))

    def test_transpose_equals_vjp_block_cotangent(self):
        params = tiny_params(d=4, hidden=6, seed=21)
        rng = np.random.default_rng(21)
        block = rng.normal(size=(4, 25))
        cot = rng.normal(size=(4, 25))
        lin = dn.denoise_linearize(params, block)
        cot_block, grads = dn.denoise_vjp(
            params, dn.denoise_linearize(params, block), cot)
        assert np.array_equal(lin.transpose(params, cot), cot_block)
        cot_lin, grads_lin = dn.denoise_vjp(params, lin, cot)
        assert np.array_equal(cot_lin, cot_block)
        for k in grads:
            assert np.array_equal(grads_lin[k], grads[k])

    def test_cache_is_layer_inputs(self):
        d, hidden, N = 4, 16, 64
        params = dn.init_denoiser(d, hidden=hidden, seed=22)
        block = np.random.default_rng(22).normal(size=(d, N))
        lin = dn.denoise_linearize(params, block)
        assert [x.shape for x in lin.inputs] == \
            [(d, 8, 8)] + [(hidden, 8, 8)] * 3
        cached = sum(a.nbytes for a in lin.inputs)
        one_patch_matrix = 9 * hidden * N * 8
        assert cached < one_patch_matrix

    def test_relu_output_gives_the_mask(self):
        # the reverse sweeps read layer i's ReLU mask off inputs[i + 1]
        h = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-300, np.inf])
        assert np.array_equal(dn.relu(h) > 0.0, h > 0.0)


def param_count(d: int, hidden: int = 64):
    """(weight count, bias count) for the 4-layer plan."""
    weights = sum(9 * c_out * c_in
                  for c_out, c_in in dn.channel_plan(d, hidden))
    biases = sum(c_out for c_out, _ in dn.channel_plan(d, hidden))
    return weights, biases


class TestParamCount:
    def test_formula_matches_arrays(self):
        for d, hidden in [(31, 64), (16, 32), (3, 5)]:
            params = dn.init_denoiser(d, hidden=hidden, seed=0)
            weights = sum(w.size for w in params.weights)
            biases = sum(b.size for b in params.biases)
            fw, fb = param_count(d, hidden)
            assert (weights, biases) == (fw, fb)
            assert fw == 9 * (d * hidden + 2 * hidden * hidden + hidden * d)
            assert fb == 3 * hidden + d

    def test_paper_scale_bias_count(self):
        _, fb = param_count(31, 64)
        assert fb == 223


class TestPretrain:
    def test_identity_pair_loss_decreases(self):
        rng = np.random.default_rng(12)
        block = rng.uniform(0, 1, size=(4, 16))
        cfg = PretrainConfig(epochs=60, lr=3e-3, batch_size=1, hidden=6,
                             seed=0, val_fraction=0.0)
        _, history = pretrain([(block, block)], cfg)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_loss_non_negative(self):
        rng = np.random.default_rng(13)
        pairs = [(rng.normal(size=(3, 9)), rng.normal(size=(3, 9)))
                 for _ in range(4)]
        cfg = PretrainConfig(epochs=3, lr=1e-3, batch_size=2, hidden=4,
                             seed=1, val_fraction=0.25)
        _, history = pretrain(pairs, cfg)
        assert all(h["loss"] >= 0.0 for h in history)

    def test_spectral_norms_bounded_after_training(self):
        rng = np.random.default_rng(14)
        pairs = [(rng.normal(size=(3, 16)), rng.normal(size=(3, 16)))
                 for _ in range(6)]
        cfg = PretrainConfig(epochs=4, lr=1e-3, batch_size=3, hidden=5,
                             seed=2, val_fraction=0.0)
        params, _ = pretrain(pairs, cfg)
        for est in dn.estimated_spectral_norms(params):
            assert est <= 1.0 + 1e-6

    def test_divergent_block_is_skipped(self, monkeypatch):
        rng = np.random.default_rng(15)
        pairs = [(rng.normal(size=(3, 9)), rng.normal(size=(3, 9)))
                 for _ in range(4)]
        real = training.denoise_linearize
        calls = []

        def first_block_diverges(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise FloatingPointError("overflow in the first block")
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "denoise_linearize",
                            first_block_diverges)
        cfg = PretrainConfig(epochs=2, lr=1e-3, batch_size=2, hidden=4,
                             seed=3, val_fraction=0.0)
        params, history = pretrain(pairs, cfg)
        assert len(calls) == 8
        assert [h["skipped"] for h in history] == [1, 0]
        assert all(np.isfinite(h["loss"]) for h in history)
        assert all(np.all(np.isfinite(w)) for w in params.weights)

    def test_returns_the_epoch_with_the_best_val_psnr(self, monkeypatch):
        rng = np.random.default_rng(16)
        clean = [rng.uniform(0, 1, size=(3, 16)) for _ in range(6)]
        pairs = [(c + 0.1 * rng.normal(size=c.shape), c) for c in clean]
        validated = []  # the network each validation block ran through
        real = training.denoise

        def spy(params, block):
            validated.append(params.copy())
            return real(params, block)

        monkeypatch.setattr(training, "denoise", spy)
        cfg = PretrainConfig(epochs=6, lr=0.1, batch_size=3, hidden=4,
                             seed=4, val_fraction=0.5)
        best, history = pretrain(pairs, cfg)
        assert len(validated) == 3 * len(history)
        epoch = int(np.argmax([h["val_psnr"] for h in history]))
        # a best epoch that is also the last would not tell the two apart
        assert 0 < epoch < len(history) - 1
        chosen = validated[3 * epoch]
        for got, want in zip(best.weights + best.biases,
                             chosen.weights + chosen.biases):
            assert np.array_equal(got, want)

    def test_a_nan_validation_epoch_is_not_best(self, monkeypatch):
        # the data of the test above; the last epoch validates to NaN,
        # which scored the 100 dB cap before and so won
        rng = np.random.default_rng(16)
        clean = [rng.uniform(0, 1, size=(3, 16)) for _ in range(6)]
        pairs = [(c + 0.1 * rng.normal(size=c.shape), c) for c in clean]
        cfg = PretrainConfig(epochs=6, lr=0.1, batch_size=3, hidden=4,
                             seed=4, val_fraction=0.5)
        validated = []
        real = training.denoise

        def spy(params, block):
            validated.append(params.copy())
            out = real(params, block)
            return out * np.nan if len(validated) > 3 * 5 else out

        monkeypatch.setattr(training, "denoise", spy)
        best, history = pretrain(pairs, cfg)
        scores = [h["val_psnr"] for h in history]
        assert len(validated) == 3 * 6
        assert np.isnan(scores[-1]) and np.all(np.isfinite(scores[:-1]))
        chosen = validated[3 * int(np.argmax(scores[:-1]))]
        for got, want in zip(best.weights + best.biases,
                             chosen.weights + chosen.biases):
            assert np.array_equal(got, want)
