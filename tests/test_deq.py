import json
import tracemalloc
import weakref

import numpy as np
import pytest

from blocksc import deq as dq
from blocksc import solver as sv
from blocksc import denoiser as dn
from blocksc.anderson import AndersonConfig, DivergenceError, anderson_solve
from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser, \
    spectral_normalize
from blocksc.dictionary import Dictionary, normalize_atoms
from blocksc.training import EndToEndConfig, PretrainConfig, pretrain
from blocksc.unroll import DuTrainConfig, UnrollConfig, du_train


def make_params(d, hidden=3, b=0.6, mu=0.15, seed=0, zero_net=False):
    den = init_denoiser(d, hidden=hidden, seed=seed)
    if zero_net:
        for w in den.weights:
            w[:] = 0.0
    else:
        spectral_normalize(den, iters=30)
    return ModelParams(den, ScalarParams.from_values(b, mu))


def tiny_instance(seed, variant="full", d=6, M=8, N=9):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
    Y = rng.normal(size=(d, N))
    X = rng.normal(size=(d, N))
    params = make_params(d, seed=seed)
    if variant == "fast":
        sup = sv.SupportSet(np.sort(rng.choice(M, size=4, replace=False)))
        ctx = sv.make_context(D, params, Y, sup)
    else:
        ctx = sv.make_context(D, params, Y)
    return D, Y, X, params, ctx


TIGHT = AndersonConfig(m=6, beta=1.0, max_iters=300, tol=1e-13)


class TestDeqForward:
    def test_affine_map_single_effective_solve(self):
        rng = np.random.default_rng(0)
        d, M, N = 5, 8, 4
        D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
        Y = rng.normal(size=(d, N))
        params = make_params(d, b=0.7, mu=1e9, zero_net=True)
        ctx = sv.make_context(D, params, Y)
        report = dq.deq_forward(ctx, params, AndersonConfig(max_iters=20,
                                                            tol=1e-12))
        A = (1 + ctx.b) * (D.atoms.T @ D.atoms) + np.eye(M)
        expect = np.linalg.solve(A, D.atoms.T @ Y)
        assert report.converged and report.iterations <= 2
        assert np.abs(report.solution - expect).max() < 1e-12

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_doubling_budget_after_convergence(self, variant):
        D, Y, X, params, ctx = tiny_instance(1, variant)
        a = dq.deq_forward(ctx, params,
                           AndersonConfig(m=5, max_iters=40, tol=1e-10))
        b = dq.deq_forward(ctx, params,
                           AndersonConfig(m=5, max_iters=80, tol=1e-10))
        assert a.converged
        rel = np.linalg.norm(a.solution - b.solution) / \
            max(np.linalg.norm(b.solution), 1e-30)
        assert rel < 1e-6

    def test_callback_hook(self):
        D, Y, X, params, ctx = tiny_instance(2)
        seen = []
        dq.deq_forward(ctx, params, AndersonConfig(max_iters=10, tol=0.0),
                       callback=lambda k, g: seen.append(k))
        assert seen == list(range(1, 11))


class TestDeqBackward:
    def test_exact_reconstruction_gives_zero_gradients(self):
        D, Y, _, params, ctx = tiny_instance(3)
        fwd = dq.deq_forward(ctx, params, TIGHT)
        X = sv.reconstruct(ctx, fwd.solution)
        grads, _ = dq.deq_backward(ctx, fwd.solution, X, params, TIGHT)
        for g in grads.values():
            assert np.abs(g).max() == 0.0

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_gradient_linearity_in_loss_scale(self, variant):
        D, Y, X, params, ctx = tiny_instance(4, variant)
        fwd = dq.deq_forward(ctx, params, TIGHT)
        g_star = fwd.solution
        grads1, _ = dq.deq_backward(ctx, g_star, X, params, TIGHT)
        # doubling the residual D g* - X doubles the loss gradient
        X2 = 2.0 * X - sv.reconstruct(ctx, g_star)
        grads2, _ = dq.deq_backward(ctx, g_star, X2, params, TIGHT)
        for k in grads1:
            scale = max(np.abs(grads1[k]).max(), 1e-30)
            assert np.abs(grads2[k] - 2.0 * grads1[k]).max() / scale < 1e-10

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_implicit_gradient_matches_finite_differences(self, variant):
        # spot check here; the acceptance suite sweeps every parameter
        D, Y, X, params, ctx = tiny_instance(5, variant)
        fwd = dq.deq_forward(ctx, params, TIGHT)
        grads, _ = dq.deq_backward(ctx, fwd.solution, X, params, TIGHT)

        def loss_with(p):
            c = sv.make_context(D, p, Y, ctx.support)
            rep = dq.deq_forward(c, p, TIGHT)
            return dq.deq_loss(c, rep.solution, X)

        step = 1e-5
        rng = np.random.default_rng(6)
        checks = [("scalars.raw_b", None), ("scalars.raw_mu", None)]
        for li in (1, 4):
            w = params.denoiser.weights[li - 1]
            for _ in range(3):
                checks.append((f"denoiser.layer{li}.weight",
                               tuple(rng.integers(s) for s in w.shape)))
        pdict = params.as_dict()
        for name, idx in checks:
            arr = pdict[name]
            sel = idx if idx is not None else ()
            orig = float(arr[sel])
            arr[sel] = orig + step
            lp = loss_with(params)
            arr[sel] = orig - step
            lm = loss_with(params)
            arr[sel] = orig
            fd = (lp - lm) / (2 * step)
            got = float(np.asarray(grads[name])[sel])
            assert abs(got - fd) < 1e-3 * max(abs(got), abs(fd), 1e-8), name

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_grads_equal_adjoint_built_from_map_vjp(self, variant):
        D, Y, X, params, ctx = tiny_instance(11, variant)
        g_star = dq.deq_forward(ctx, params, TIGHT).solution
        seed = ctx.D.T @ (ctx.D @ g_star - X)
        cfg = AndersonConfig(m=6, max_iters=60, tol=1e-12)

        def adjoint_map(gamma):
            cot_g, _ = sv.map_vjp(ctx, g_star, params, gamma)
            return cot_g + seed

        expect_report = anderson_solve(adjoint_map, np.zeros_like(g_star), cfg)
        _, expect = sv.map_vjp(ctx, g_star, params, expect_report.solution)
        grads, report = dq.deq_backward(ctx, g_star, X, params, cfg)
        assert report.iterations == expect_report.iterations
        assert np.array_equal(report.solution, expect_report.solution)
        assert set(grads) == set(expect)
        for k in expect:
            assert np.array_equal(grads[k], expect[k]), k

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_one_denoiser_forward_whatever_the_adjoint_iterations(
            self, monkeypatch, variant):
        D, Y, X, params, ctx = tiny_instance(12, variant)
        g_star = dq.deq_forward(ctx, params, TIGHT).solution
        convs = []
        real = dn.conv2d

        def counting(x, weight, bias):
            convs.append(1)
            return real(x, weight, bias)

        monkeypatch.setattr(dn, "conv2d", counting)
        seen = {}
        for iters in (2, 12):
            convs.clear()
            cfg = AndersonConfig(m=5, max_iters=iters, tol=0.0)
            _, report = dq.deq_backward(ctx, g_star, X, params, cfg)
            seen[report.iterations] = len(convs)
        # 4 conv layers: one network forward, at any adjoint iteration count
        assert seen == {2: 4, 12: 4}

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_adjoint_skips_its_known_first_step(self, monkeypatch, variant):
        # the adjoint map is linear: its value at gamma = 0 is the seed
        D, Y, X, params, ctx = tiny_instance(13, variant)
        g_star = dq.deq_forward(ctx, params, TIGHT).solution
        cfg = AndersonConfig(m=5, max_iters=60, tol=1e-12)
        calls = []
        real_call = sv.MapLinearization.__call__

        def counting(self, net, cot):
            calls.append(1)
            return real_call(self, net, cot)

        def without_f0(f, g0, cfg, callback=None, f0=None):
            return anderson_solve(f, g0, cfg, callback)

        monkeypatch.setattr(sv.MapLinearization, "__call__", counting)
        grads, report = dq.deq_backward(ctx, g_star, X, params, cfg)
        assert report.iterations > 2
        assert len(calls) == report.iterations - 1
        calls.clear()
        monkeypatch.setattr(dq, "anderson_solve", without_f0)
        expect, ref = dq.deq_backward(ctx, g_star, X, params, cfg)
        assert len(calls) == ref.iterations == report.iterations
        assert np.array_equal(report.solution, ref.solution)
        assert set(grads) == set(expect)
        for k in expect:
            assert np.array_equal(grads[k], expect[k]), k

    def test_divergence_advice(self, monkeypatch):
        D, Y, X, params, ctx = tiny_instance(7)
        fwd = dq.deq_forward(ctx, params, TIGHT)

        def blow_up(f, g0, cfg, callback=None, f0=None):
            raise DivergenceError("boom", iteration=3)

        monkeypatch.setattr(dq, "anderson_solve", blow_up)
        with pytest.raises(DivergenceError, match="smaller beta"):
            dq.deq_backward(ctx, fwd.solution, X, params, TIGHT)


class TestZeroStarts:
    """The forward and the adjoint solve start from a zero code that holds
    one float: a read-only zero-stride view, not a code-sized array."""

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_no_code_sized_zero_start(self, monkeypatch, variant):
        D, Y, X, params, ctx = tiny_instance(12, variant, M=12, N=400)
        starts = []

        def spy(f, g0, cfg, **kwargs):
            starts.append((g0, tracemalloc.get_traced_memory()[0]))
            return anderson_solve(f, g0, cfg, **kwargs)

        monkeypatch.setattr(dq, "anderson_solve", spy)
        cfg = AndersonConfig(max_iters=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fwd = dq.deq_forward(ctx, params, cfg)
            dq.deq_backward(ctx, fwd.solution, X, params, cfg)
        finally:
            tracemalloc.stop()
        (g0, at_forward), (gamma0, _) = starts
        code = fwd.solution.nbytes
        # the forward holds only f(g0) when its solve starts
        assert at_forward - base < code + code // 4
        for start in (g0, gamma0):
            assert start.shape == fwd.solution.shape
            assert not start.flags.writeable and not start.any()
            lo, hi = np.lib.array_utils.byte_bounds(start)
            assert hi - lo == start.itemsize


def micro_dataset(seed=0, count=10, d=6, M=12, N=16):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
    pairs = []
    for _ in range(count):
        G = np.zeros((M, N))
        sup = rng.choice(M, size=3, replace=False)
        G[sup] = rng.uniform(0.5, 1.0, size=(3, N))
        clean = D.atoms @ G
        noisy = clean + 0.1 * rng.normal(size=clean.shape)
        pairs.append((noisy, clean))
    return D, pairs


class TestDeqTrain:
    def test_loss_decreases(self):
        D, pairs = micro_dataset(8)
        params0 = make_params(6, hidden=4, b=0.8, mu=0.05, seed=8)
        cfg = dq.DeqTrainConfig(
            variant="fast", support_size=3, epochs=6, lr=3e-3, batch_size=5,
            seed=0, val_fraction=0.0,
            anderson=AndersonConfig(m=5, max_iters=15, tol=1e-6))
        params, history, _ = dq.deq_train(pairs, D, params0, cfg)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_zero_lr_keeps_parameters(self):
        D, pairs = micro_dataset(9, count=4)
        params0 = make_params(6, hidden=4, seed=9)
        cfg = dq.DeqTrainConfig(
            variant="full", epochs=1, lr=0.0, batch_size=2, seed=0,
            val_fraction=0.0,
            anderson=AndersonConfig(m=5, max_iters=10, tol=1e-6))
        params, _, _ = dq.deq_train(pairs, D, params0, cfg)
        before = params0.as_dict()
        after = params.as_dict()
        # the optimizer applies no update; the post-step spectral projection
        # may still polish weights within its own convergence tolerance
        for k in before:
            assert np.abs(np.asarray(after[k]) - np.asarray(before[k])).max() < 1e-5
        assert float(after["scalars.raw_b"]) == float(before["scalars.raw_b"])
        assert float(after["scalars.raw_mu"]) == float(before["scalars.raw_mu"])

    def test_divergent_block_is_skipped(self, monkeypatch):
        D, pairs = micro_dataset(11, count=4)
        params0 = make_params(6, hidden=4, seed=11)
        real = dq.deq_backward
        calls = []

        def first_block_diverges(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise DivergenceError("adjoint solve diverged", iteration=2)
            return real(*args, **kwargs)

        monkeypatch.setattr(dq, "deq_backward", first_block_diverges)
        cfg = dq.DeqTrainConfig(
            variant="fast", support_size=3, epochs=2, lr=1e-3, batch_size=2,
            seed=0, val_fraction=0.0,
            anderson=AndersonConfig(m=5, max_iters=10, tol=1e-6))
        _, history, adam = dq.deq_train(pairs, D, params0, cfg)
        assert len(calls) == 8
        # the first epoch lost one block; the count restarts each epoch
        assert [h["skipped"] for h in history] == [1, 0]
        assert all(np.isfinite(h["loss"]) for h in history)
        # the batch that lost a block still took its step
        assert adam.t == 4

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_nonconvergence_is_counted(self, variant, tmp_path):
        import json
        D, pairs = micro_dataset(12, count=4)
        params0 = make_params(6, hidden=4, seed=12)

        def train(anderson, log):
            cfg = dq.DeqTrainConfig(
                variant=variant, support_size=3, epochs=2, lr=1e-3,
                batch_size=2, seed=0, val_fraction=0.0, log_path=str(log),
                anderson=anderson)
            _, history, _ = dq.deq_train(pairs, D, params0, cfg)
            steps = [json.loads(line) for line in log.read_text().splitlines()]
            return history, steps

        history, steps = train(AndersonConfig(max_iters=1, tol=1e-14),
                               tmp_path / "capped.jsonl")
        assert [h["skipped"] for h in history] == [0, 0]
        for key in ("fwd_nonconverged", "adj_nonconverged"):
            assert [h[key] for h in history] == [4, 4]
            assert [r[key] for r in steps] == [2, 2, 2, 2]
        history, steps = train(AndersonConfig(), tmp_path / "default.jsonl")
        for key in ("fwd_nonconverged", "adj_nonconverged"):
            assert [h[key] for h in history] == [0, 0]
            assert [r[key] for r in steps] == [0, 0, 0, 0]

    def test_step_averages_over_the_blocks_kept(self, monkeypatch, tmp_path):
        import json
        from blocksc.training import Adam
        D, pairs = micro_dataset(11, count=2)
        params0 = make_params(6, hidden=4, seed=11)
        real_backward, real_loss = dq.deq_backward, dq.deq_loss
        real_step = Adam.step
        calls, survivor, stepped = [], {}, []

        def first_block_diverges(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise DivergenceError("adjoint solve diverged", iteration=2)
            grads, report = real_backward(*args, **kwargs)
            survivor["grads"] = {k: np.copy(v) for k, v in grads.items()}
            return grads, report

        def recording_loss(*args):
            survivor["loss"] = real_loss(*args)
            return survivor["loss"]

        def spy_step(self, params, grads):
            stepped.append({k: np.copy(v) for k, v in grads.items()})
            return real_step(self, params, grads)

        monkeypatch.setattr(dq, "deq_backward", first_block_diverges)
        monkeypatch.setattr(dq, "deq_loss", recording_loss)
        monkeypatch.setattr(Adam, "step", spy_step)
        log = tmp_path / "train.jsonl"
        cfg = dq.DeqTrainConfig(
            variant="fast", support_size=3, epochs=1, lr=1e-3, batch_size=2,
            seed=0, val_fraction=0.0, log_path=str(log),
            anderson=AndersonConfig(m=5, max_iters=10, tol=1e-6))
        _, history, _ = dq.deq_train(pairs, D, params0, cfg)
        assert len(calls) == 2 and history[0]["skipped"] == 1
        # one batch of two blocks, one skipped: the step sees the survivor
        assert len(stepped) == 1
        assert set(stepped[0]) == set(survivor["grads"])
        for k, g in survivor["grads"].items():
            assert np.array_equal(stepped[0][k], g), k
        (record,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert record["loss"] == survivor["loss"]
        assert history[0]["loss"] == survivor["loss"]

    def test_val_psnr_is_mean_block_psnr(self):
        # validation scores the served path: float32 network, shared N(0)
        from blocksc.metrics import block_psnr
        from blocksc.pipeline import ModelBundle, denoise_block
        from blocksc.training import split_validation
        D, pairs = micro_dataset(13, count=6)
        params = make_params(6, hidden=4, seed=13)
        anderson = AndersonConfig(m=5, max_iters=10, tol=1e-6)
        _, val = split_validation(pairs, 0.5, 0)
        assert len(val) == 3

        def infer(noisy, p):
            bundle = ModelBundle(D, p, "deq", "fast", anderson=anderson,
                                 support_size=3)
            return denoise_block(bundle, noisy)

        # one epoch per run, so the returned params are the ones validated
        adam = None
        for epoch in range(2):
            cfg = dq.DeqTrainConfig(
                variant="fast", support_size=3, epochs=1, lr=1e-3,
                batch_size=2, seed=0, val_fraction=0.5, anderson=anderson)
            params, history, adam = dq.deq_train(pairs, D, params, cfg,
                                                 adam=adam, start_epoch=epoch)
            expected = np.mean([block_psnr(infer(noisy, params), clean)
                                for noisy, clean in val])
            assert history[0]["val_psnr"] == expected

    def test_resume_is_bitwise_reproducible(self):
        D, pairs = micro_dataset(10, count=6)
        params0 = make_params(6, hidden=4, seed=10)
        anderson = AndersonConfig(m=5, max_iters=10, tol=1e-6)

        cfg_full = dq.DeqTrainConfig(variant="fast", support_size=3, epochs=4,
                                     lr=1e-3, batch_size=3, seed=5,
                                     val_fraction=0.0, anderson=anderson)
        one_shot, _, _ = dq.deq_train(pairs, D, params0, cfg_full)

        cfg_a = dq.DeqTrainConfig(variant="fast", support_size=3, epochs=2,
                                  lr=1e-3, batch_size=3, seed=5,
                                  val_fraction=0.0, anderson=anderson)
        mid, _, adam = dq.deq_train(pairs, D, params0, cfg_a)
        cfg_b = dq.DeqTrainConfig(variant="fast", support_size=3, epochs=2,
                                  lr=1e-3, batch_size=3, seed=5,
                                  val_fraction=0.0, anderson=anderson)
        resumed, _, _ = dq.deq_train(pairs, D, mid, cfg_b, adam=adam,
                                     start_epoch=2)
        a = one_shot.as_dict()
        b = resumed.as_dict()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_zero_block_trains(self):
        # OMP picks no atom for an all-zero block: an empty fast support
        D, pairs = micro_dataset(15, count=4)
        pairs[0] = (np.zeros_like(pairs[0][0]), pairs[0][1])
        cfg = dq.DeqTrainConfig(variant="fast", support_size=3, epochs=1,
                                lr=1e-3, batch_size=2, seed=0,
                                val_fraction=0.0)
        _, history, adam = dq.deq_train(pairs, D, make_params(6, seed=15), cfg)
        assert history[0]["skipped"] == 0 and adam.t == 2

    def test_epoch_with_every_block_skipped_has_nan_loss(self, monkeypatch):
        D, pairs = micro_dataset(12, count=4)

        def diverges(*args, **kwargs):
            raise DivergenceError("adjoint solve diverged", iteration=2)

        monkeypatch.setattr(dq, "deq_backward", diverges)
        cfg = dq.DeqTrainConfig(variant="fast", support_size=3, epochs=1,
                                lr=1e-3, batch_size=2, seed=0,
                                val_fraction=0.0)
        _, history, adam = dq.deq_train(pairs, D, make_params(6, seed=12),
                                        cfg)
        assert history[0]["skipped"] == 4 and adam.t == 0
        assert np.isnan(history[0]["loss"])  # not 0.0, a perfect fit


class TestTrainConfig:
    @pytest.mark.parametrize("cls", [EndToEndConfig, dq.DeqTrainConfig,
                                     DuTrainConfig, PretrainConfig])
    @pytest.mark.parametrize("name,value", [
        ("epochs", 0), ("batch_size", 0), ("lr", -1e-3), ("lr", np.nan),
        ("val_fraction", 1.0), ("val_fraction", -0.1)])
    def test_bad_field_is_named(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            cls(**{name: value})

    @pytest.mark.parametrize("variant", ["full", "fast"])
    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_support_size_below_one_is_named(self, engine, variant):
        # refused at construction, not at the first block's OMP or bundle
        with pytest.raises(ValueError, match="^support_size must be >= 1"):
            if engine == "deq":
                dq.DeqTrainConfig(variant=variant, support_size=0)
            else:
                DuTrainConfig(unroll=UnrollConfig(variant=variant),
                              support_size=0)

    @pytest.mark.parametrize("entry", ["deq_train", "du_train", "pretrain"])
    def test_no_pairs_is_refused(self, entry):
        D, _ = micro_dataset(0, count=1)
        params0 = make_params(6, hidden=4)
        run = {"deq_train": lambda: dq.deq_train([], D, params0,
                                                 dq.DeqTrainConfig()),
               "du_train": lambda: du_train([], D, params0, DuTrainConfig()),
               "pretrain": lambda: pretrain([], PretrainConfig())}[entry]
        with pytest.raises(ValueError, match=r"needs at least one \(noisy, "
                                             r"clean\) pair"):
            run()


class TestTrainPrecisionSplit:
    """``deq_train`` runs each block's forward solve, its linearization at g*
    and its adjoint products on one ``float32_params`` copy, and forms the
    parameter VJP on the float64 weights."""

    @staticmethod
    def train(variant, log=None):
        D, pairs = micro_dataset(14, count=4)
        params0 = make_params(6, hidden=4, b=0.8, mu=0.05, seed=14)
        cfg = dq.DeqTrainConfig(
            variant=variant, support_size=3, epochs=2, lr=1e-3, batch_size=2,
            seed=0, val_fraction=0.0, log_path=log and str(log),
            anderson=AndersonConfig())
        return dq.deq_train(pairs, D, params0, cfg)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_forward_convs_float32_backward_convs_float64(self, monkeypatch,
                                                          conv_spy, variant):
        """Of the backward's convs, only the parameter VJP's run float64."""
        seen, in_phase = conv_spy
        for name, label in (("deq_forward", "forward"),
                            ("deq_backward", "backward"),
                            ("map_vjp", "parameter VJP")):
            monkeypatch.setattr(dq, name, in_phase(label, getattr(dq, name)))
        self.train(variant)
        # no validation split, so no other solve: outside the phases runs
        # only each optimizer step's float32 N(0) (2 steps in each epoch)
        assert seen[None] == [("conv2d", {np.dtype(np.float32)})] * (4 * 4)
        fwd, bwd = seen["forward"], seen["backward"]
        assert {name for name, _ in fwd} == {"conv2d"}
        assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in fwd)
        by_name = {name: [dtypes for n, dtypes in bwd if n == name]
                   for name in ("conv2d", "conv2d_transpose")}
        assert {name for name, _ in bwd} == set(by_name)
        # one float32 linearization at g* per block and epoch (8), adjoint
        # products in float32, and one float64 parameter VJP: each layer's
        # weight cotangent, then its input's transposed conv
        assert len(by_name["conv2d"]) == 4 * 8
        for name, dtype in (("conv2d", np.float32),
                            ("conv2d_transpose", np.float32)):
            assert all(d == {np.dtype(dtype)} for d in by_name[name]), name
        assert seen["parameter VJP"] == [
            ("conv2d_vjp", {np.dtype(np.float64)}),
            ("conv2d_transpose", {np.dtype(np.float64)})] * (4 * 8)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_float32_copy_is_dead_before_the_backward(self, monkeypatch,
                                                      variant):
        """One float32 copy per block, dead at the parameter VJP."""
        real_copy, real_vjp = dq.float32_params, dq.map_vjp
        copies, alive = [], []

        def tracked_copy(params):
            net = real_copy(params)
            copies.append([weakref.ref(net), *map(
                weakref.ref, net.denoiser.weights + net.denoiser.biases)])
            return net

        def vjp(*args, **kwargs):
            alive.append(any(ref() is not None
                             for refs in copies for ref in refs))
            return real_vjp(*args, **kwargs)

        monkeypatch.setattr(dq, "float32_params", tracked_copy)
        monkeypatch.setattr(dq, "map_vjp", vjp)
        self.train(variant)
        # one copy and one parameter VJP per block and epoch
        assert len(copies) == len(alive) == 8
        assert not any(alive)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_matches_a_float64_forward(self, monkeypatch, variant, tmp_path):
        keys = ("fwd_iters", "bwd_iters", "fwd_nonconverged",
                "adj_nonconverged")

        def run(log):
            params, history, _ = self.train(variant, log)
            steps = [json.loads(line) for line in log.read_text().splitlines()]
            return (params.as_dict(), [[r[k] for k in keys] for r in steps],
                    [[h[k] for k in keys[2:]] for h in history])

        got, got_steps, got_epochs = run(tmp_path / "float32.jsonl")
        monkeypatch.setattr(dq, "float32_params", lambda params: params)
        expect, steps, epochs = run(tmp_path / "float64.jsonl")
        assert got_steps == steps and got_epochs == epochs == [[0, 0]] * 2
        assert not all(np.array_equal(got[k], expect[k]) for k in expect)
        for k in expect:
            np.testing.assert_allclose(got[k], expect[k], rtol=1e-6,
                                       atol=0, err_msg=k)
