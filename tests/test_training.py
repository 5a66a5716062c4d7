"""The shared training loop's contract with the engines.

Each ``block_grad_fn`` reports counts under the log's own field names;
``end_to_end_train`` sums them per step into one JSONL record, a step
that skipped every block included, and each epoch's history row is built
from that epoch's records.
"""

import inspect
import json
import weakref

import numpy as np
import pytest

from blocksc import denoiser as dn
from blocksc import deq as dq
from blocksc import pipeline, training
from blocksc import unroll as du
from blocksc.anderson import AndersonConfig, DivergenceError
from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser, \
    spectral_normalize
from blocksc.dictionary import Dictionary, normalize_atoms
from blocksc.training import (COUNTS, EndToEndConfig, PretrainConfig,
                              end_to_end_train, pretrain)


def make_params(d=6, hidden=4, seed=0):
    den = init_denoiser(d, hidden=hidden, seed=seed)
    spectral_normalize(den, iters=30)
    return ModelParams(den, ScalarParams.from_values(0.8, 0.05))


def dataset(seed=0, count=8, d=6, M=12, N=16):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(d, M))))
    pairs = []
    for _ in range(count):
        G = np.zeros((M, N))
        G[rng.choice(M, size=3, replace=False)] = rng.uniform(
            0.5, 1.0, size=(3, N))
        clean = D.atoms @ G
        pairs.append((clean + 0.1 * rng.normal(size=clean.shape), clean))
    return D, pairs


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def assert_history_sums_records(history, records):
    """Each history row is the mean loss of its epoch's JSONL records that
    kept a block, and their summed skipped and non-converged counts."""
    assert {r["epoch"] for r in records} <= {h["epoch"] for h in history}
    for h in history:
        rows = [r for r in records if r["epoch"] == h["epoch"]]
        assert rows, h
        losses = [r["loss"] for r in rows if r["loss"] is not None]
        if losses:
            assert h["loss"] == sum(losses) / len(losses)
        else:
            assert np.isnan(h["loss"])
        for key in ("skipped", "fwd_nonconverged", "adj_nonconverged"):
            assert h[key] == sum(r[key] for r in rows), key


class TestStubEngine:
    """``end_to_end_train`` with a ``block_grad_fn`` whose loss and counts
    are fixed per pair: pair i has loss i and counts derived from i."""

    @staticmethod
    def counts(i):
        every = {"fwd_iters": 3 * i + 1, "bwd_iters": 7 * i,
                 "fwd_nonconverged": i % 2,
                 "adj_nonconverged": int(i % 3 == 0),
                 "fwd_residual": 1e-5 * (i + 1), "adj_residual": 0.3 ** i}
        # a pair that leaves out a field: it counts 0
        return {k: v for k, v in every.items()
                if not (i == 4 and k == "bwd_iters")}

    def run(self, tmp_path, skip=(), epochs=2):
        params0 = make_params()
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(7)]
        calls = []

        def block_grad(noisy, clean, params):
            i = int(noisy[0, 0])
            calls.append(i)
            if i in skip:
                raise DivergenceError("stub divergence", iteration=1)
            grads = {k: np.full(np.shape(v), 1e-3 * (i + 1))
                     for k, v in params.as_dict().items()}
            return float(i), grads, self.counts(i)

        log = tmp_path / "train.jsonl"
        cfg = EndToEndConfig(epochs=epochs, lr=1e-3, batch_size=3, seed=2,
                             val_fraction=0.0, log_path=str(log))
        _, history, _ = end_to_end_train(pairs, params0, cfg, block_grad,
                                         lambda noisy, params: noisy, "stub")
        return calls, history, read_log(log)

    def test_counts_are_summed_per_record_and_per_epoch(self, tmp_path):
        calls, history, records = self.run(tmp_path, skip={5})
        # 7 pairs in batches of 3: steps of 3, 3 and 1 blocks per epoch
        steps = [calls[7 * epoch + a:7 * epoch + b] for epoch in range(2)
                 for a, b in ((0, 3), (3, 6), (6, 7))]
        assert len(records) == len(steps)  # an all-skipped step too
        for rec, step in zip(records, steps):
            blocks = [i for i in step if i != 5]
            assert rec["skipped"] == len(step) - len(blocks)
            for key in COUNTS:
                assert rec[key] == sum(self.counts(i).get(key, 0)
                                       for i in blocks), key
            if blocks:
                assert rec["loss"] == sum(blocks) / len(blocks)
            else:  # no optimizer step
                assert rec["loss"] is rec["grad_norm"] is None
        assert [h["skipped"] for h in history] == [1, 1]
        assert_history_sums_records(history, records)
        assert any(h["fwd_nonconverged"] and h["adj_nonconverged"]
                   for h in history)

    def test_records_keep_their_schema(self, tmp_path):
        _, history, records = self.run(tmp_path, epochs=1)
        assert all(set(r) == {"engine", "epoch", "step", "loss", "skipped",
                              *COUNTS, "grad_norm", "wall_ms"}
                   for r in records)
        assert list(history[0]) == ["epoch", "loss", "val_psnr", "skipped",
                                    "fwd_nonconverged", "adj_nonconverged"]

    def test_step_sum_is_the_mean_of_the_kept_blocks(self, monkeypatch):
        """The step's gradient is bit for bit sum(g / len(batch)) over the
        kept blocks in batch order, times len(batch) / kept, both for
        arrays and for 0-d float64 scalars as the engines return them."""
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(3)]
        kept = []  # (copies of) each kept block's gradients, in call order

        def block_grad(noisy, clean, params):
            i = int(noisy[0, 0])
            if i == 1:
                raise DivergenceError("stub divergence", iteration=1)
            rng = np.random.default_rng(i)
            grads = {k: rng.normal(size=np.shape(v)) if np.ndim(v)
                     else np.float64(rng.normal())
                     for k, v in params.as_dict().items()}
            kept.append({k: np.copy(v) for k, v in grads.items()})
            return 1.0, grads, {}

        stepped, real_step = [], training.Adam.step

        def step(adam, params, grads):
            stepped.append({k: np.copy(v) for k, v in grads.items()})
            real_step(adam, params, grads)

        monkeypatch.setattr(training.Adam, "step", step)
        cfg = EndToEndConfig(epochs=1, batch_size=3, val_fraction=0.0)
        end_to_end_train(pairs, make_params(), cfg, block_grad, None, "stub")
        want = {k: v / 3 for k, v in kept[0].items()}
        for k in want:
            want[k] += kept[1][k] / 3
        want = {k: v * (3 / 2) for k, v in want.items()}
        assert len(stepped) == 1 and list(stepped[0]) == list(want)
        for k, v in want.items():
            assert np.array_equal(stepped[0][k], v), k

    def test_a_non_finite_loss_or_gradient_is_skipped(self, tmp_path):
        params0 = make_params()
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(3)]

        def block_grad(noisy, clean, params):
            i = int(noisy[0, 0])
            grads = {k: np.zeros(np.shape(v))
                     for k, v in params.as_dict().items()}
            if i == 1:
                grads["scalars.raw_b"] = np.array(np.inf)
            return (np.nan if i == 2 else 1.0), grads, {"fwd_iters": 1}

        log = tmp_path / "train.jsonl"
        cfg = EndToEndConfig(epochs=1, batch_size=3, val_fraction=0.0,
                             log_path=str(log))
        _, history, adam = end_to_end_train(
            pairs, params0, cfg, block_grad, lambda noisy, params: noisy,
            "stub")
        (record,) = read_log(log)
        assert history[0]["skipped"] == 2 and adam.t == 1
        assert record["fwd_iters"] == 1 and record["loss"] == 1.0
        assert record["skipped"] == 2

    def test_a_divergent_validation_epoch_is_not_best(self):
        params0 = make_params()
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(6)]
        validated = []

        def block_grad(noisy, clean, params):
            grads = {k: np.ones(np.shape(v))
                     for k, v in params.as_dict().items()}
            return 1.0, grads, {}

        def infer(params):
            def block(noisy):
                validated.append(params.copy())
                if len(validated) > 3:  # the second epoch's validation
                    raise DivergenceError("stub divergence", iteration=1)
                return np.zeros_like(noisy)
            return block

        cfg = EndToEndConfig(epochs=2, lr=1e-2, batch_size=3,
                             val_fraction=0.5)
        best, history, _ = end_to_end_train(pairs, params0, cfg, block_grad,
                                            infer, "stub")
        assert len(validated) == 6
        assert np.isfinite(history[0]["val_psnr"])
        assert np.isnan(history[1]["val_psnr"])
        want = validated[0].as_dict()
        assert not np.array_equal(want["denoiser.layer1.weight"],
                                  validated[3].as_dict()[
                                      "denoiser.layer1.weight"])
        for k, v in best.as_dict().items():
            assert np.array_equal(v, want[k]), k

    @pytest.mark.parametrize("split", ["empty", "all-NaN"])
    def test_no_scoring_epoch_returns_a_fresh_copy_of_params0(self, split):
        """With an empty split every block is skipped, so the last epoch's
        params are ``params0``'s values; with an all-NaN split training
        moves the params and no epoch is the best."""
        params0 = make_params()
        want = {k: v.copy() for k, v in params0.as_dict().items()}
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(6)]

        def block_grad(noisy, clean, params):
            if split == "empty":
                raise DivergenceError("stub divergence", iteration=1)
            return 1.0, {k: np.ones(np.shape(v))
                         for k, v in params.as_dict().items()}, {}

        def infer(params):
            def block(noisy):
                raise DivergenceError("stub divergence", iteration=1)
            return block

        cfg = EndToEndConfig(epochs=2, lr=1e-2, batch_size=3,
                             val_fraction=0.0 if split == "empty" else 0.5)
        best, history, adam = end_to_end_train(pairs, params0, cfg,
                                               block_grad, infer, "stub")
        assert adam.t == (0 if split == "empty" else 2)
        psnrs = [h["val_psnr"] for h in history]
        assert (psnrs == [None, None] if split == "empty"
                else np.isnan(psnrs).all())
        for k, v in params0.as_dict().items():
            assert np.array_equal(v, want[k]), k  # params0 left unchanged
            assert np.array_equal(best.as_dict()[k], v), k
            assert not np.shares_memory(best.as_dict()[k], v), k

    @pytest.mark.parametrize("side", ["noisy", "clean"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_pair_is_named(self, side, value):
        pairs = [(np.ones((6, 16)), np.ones((6, 16))) for _ in range(4)]
        pairs[2][("noisy", "clean").index(side)][1, 3] = value
        called = []
        with pytest.raises(ValueError,
                           match=rf"^stub pair 2: non-finite {side} block$"):
            end_to_end_train(pairs, make_params(), EndToEndConfig(),
                             lambda *args: called.append(1), None, "stub")
        assert called == []


class TestEngineRecords:
    """For every engine the history row of each epoch is the mean loss and
    the summed non-converged counts of that epoch's JSONL records."""

    @pytest.mark.parametrize("variant", ["full", "fast"])
    @pytest.mark.parametrize("max_iters", [2, 50])
    def test_deq_train(self, tmp_path, variant, max_iters):
        D, pairs = dataset(1, count=6)
        log = tmp_path / "train.jsonl"
        cfg = dq.DeqTrainConfig(
            variant=variant, support_size=3, epochs=2, lr=1e-3, batch_size=2,
            val_fraction=0.0, log_path=str(log),
            anderson=AndersonConfig(m=5, max_iters=max_iters, tol=1e-6))
        _, history, _ = dq.deq_train(pairs, D, make_params(seed=1), cfg)
        records = read_log(log)
        assert_history_sums_records(history, records)
        if max_iters == 2:  # every solve stops at the cap
            assert all(h["fwd_nonconverged"] == h["adj_nonconverged"] == 6
                       for h in history)
            assert all(r["fwd_iters"] == r["bwd_iters"] == 4
                       for r in records)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_du_train(self, tmp_path, variant):
        D, pairs = dataset(2, count=6)
        log = tmp_path / "train.jsonl"
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=3, variant=variant),
                               support_size=3, epochs=2, lr=1e-3,
                               batch_size=4, val_fraction=0.0,
                               log_path=str(log))
        _, history, _ = du.du_train(pairs, D, make_params(seed=2), cfg)
        records = read_log(log)
        assert_history_sums_records(history, records)
        # batches of 4 and 2 blocks, K = 3 layers each way
        assert [r["fwd_iters"] for r in records] == [12, 6] * 2
        assert [r["bwd_iters"] for r in records] == [12, 6] * 2

    @pytest.mark.parametrize("variant", ["full", "fast"])
    def test_du_train_logs_every_skipped_step(self, tmp_path, variant):
        D, pairs = dataset(5, count=6)
        params0 = make_params(seed=5)
        for w in params0.denoiser.weights:
            w *= 1e80
        log = tmp_path / "train.jsonl"
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2, variant=variant),
                               support_size=3, epochs=2, lr=1e-3,
                               batch_size=4, val_fraction=0.0,
                               log_path=str(log))
        with np.errstate(over="ignore", invalid="ignore"):
            _, history, adam = du.du_train(pairs, D, params0, cfg)
        records = read_log(log)
        assert adam.t == 0
        # batches of 4 and 2 blocks, every block skipped: one record each
        assert [(r["epoch"], r["skipped"]) for r in records] == [
            (0, 4), (0, 2), (1, 4), (1, 2)]
        assert all(r["step"] == 0 and r["loss"] is r["grad_norm"] is None
                   and all(r[k] == 0 for k in COUNTS) for r in records)
        assert [h["skipped"] for h in history] == [6, 6]
        assert_history_sums_records(history, records)

    def test_pretrain_rows_carry_zero_counts(self, tmp_path):
        _, pairs = dataset(3, count=5)
        log = tmp_path / "train.jsonl"
        cfg = PretrainConfig(epochs=3, lr=1e-3, batch_size=2, hidden=4,
                             val_fraction=0.0, log_path=str(log))
        _, history = pretrain(pairs, cfg)
        records = read_log(log)
        assert len(records) == 9
        assert all(r[key] == 0 for r in records for key in COUNTS)
        assert_history_sums_records(history, records)


class TestParameterCopies:
    """Through every block solve the loop holds one float64 parameter copy,
    its working ``params``: none for the best epoch before an epoch has
    scored, and none at all with an empty validation split."""

    @staticmethod
    def train(entry):
        D, pairs = dataset(6, count=4)
        common = dict(epochs=2, lr=1e-3, batch_size=2, val_fraction=0.0)
        if entry == "deq_train":
            cfg = dq.DeqTrainConfig(variant="fast", support_size=3, **common)
            dq.deq_train(pairs, D, make_params(seed=6), cfg)
        elif entry == "du_train":
            cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2),
                                   support_size=3, **common)
            du.du_train(pairs, D, make_params(seed=6), cfg)
        else:
            pretrain(pairs, PretrainConfig(hidden=4, **common))

    @pytest.mark.parametrize("entry", ["deq_train", "du_train", "pretrain"])
    def test_one_copy_lives_through_each_block_solve(self, monkeypatch,
                                                     entry):
        real_copy, real_loop = ModelParams.copy, training.end_to_end_train
        copies, alive = [], []

        def tracked_copy(params):
            out = real_copy(params)
            copies.append([weakref.ref(out), *map(
                weakref.ref, out.denoiser.weights + out.denoiser.biases)])
            return out

        def loop(pairs, params0, cfg, block_grad_fn, *args, **kwargs):
            def block_grad(noisy, clean, params):
                alive.append(sum(any(ref() is not None for ref in refs)
                                 for refs in copies))
                return block_grad_fn(noisy, clean, params)
            return real_loop(pairs, params0, cfg, block_grad, *args,
                             **kwargs)

        monkeypatch.setattr(ModelParams, "copy", tracked_copy)
        for module in (training, dq, du):
            monkeypatch.setattr(module, "end_to_end_train", loop)
        self.train(entry)
        assert alive == [1] * 8  # 4 blocks in each of 2 epochs


class TestDivergentValidation:
    """A validation block that diverges scores NaN; training completes."""

    @staticmethod
    def train(engine, params0, epochs):
        D, pairs = dataset(4, count=4)
        if engine == "deq":
            cfg = dq.DeqTrainConfig(
                variant="fast", support_size=3, epochs=epochs, lr=1e-2,
                batch_size=2, val_fraction=0.5,
                anderson=AndersonConfig(m=5, max_iters=10, tol=1e-6))
            return dq.deq_train(pairs, D, params0, cfg)
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2, variant="fast"),
                               support_size=3, epochs=epochs, lr=1e-2,
                               batch_size=2, val_fraction=0.5)
        return du.du_train(pairs, D, params0, cfg)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_overflowing_weights_complete_with_nan_val_psnr(self, engine):
        params0 = make_params(seed=4)
        for w in params0.denoiser.weights:
            w *= 1e80
        with np.errstate(over="ignore", invalid="ignore"):
            best, history, adam = self.train(engine, params0, epochs=2)
        assert adam.t == 0
        assert [h["skipped"] for h in history] == [2, 2]
        assert all(np.isnan(h["val_psnr"]) and np.isnan(h["loss"])
                   for h in history)
        for k, v in params0.as_dict().items():  # no epoch is the best
            assert np.array_equal(best.as_dict()[k], v), k

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_a_finite_epoch_beats_a_diverged_one(self, monkeypatch, engine):
        # validation solves through pipeline.denoise_block, so pipeline's
        # binding of the engine's forward sees validation blocks only
        name = {"deq": "deq_forward", "du": "du_forward"}[engine]
        real = getattr(pipeline, name)
        validations = []

        def second_validation_diverges(ctx, params, *args, **kwargs):
            validations.append(1)
            if len(validations) > 2:
                raise DivergenceError("validation diverged", iteration=3)
            return real(ctx, params, *args, **kwargs)

        one_epoch, first, _ = self.train(engine, make_params(seed=4), 1)
        monkeypatch.setattr(pipeline, name, second_validation_diverges)
        best, history, _ = self.train(engine, make_params(seed=4), 2)
        assert len(validations) == 4
        assert history[0]["val_psnr"] == first[0]["val_psnr"]
        assert np.isnan(history[1]["val_psnr"])
        for k, v in one_epoch.as_dict().items():
            assert np.array_equal(best.as_dict()[k], v), k


class TestStepNetwork:
    """Each optimizer step makes one float32 network copy and one N(0) per
    block shape, and every block of the step solves on both; no earlier
    step's copy is alive at a later step's blocks."""

    @staticmethod
    def train(engine, variant):
        D, pairs = dataset(14, count=4)
        common = dict(support_size=3, epochs=2, lr=1e-3, batch_size=2,
                      val_fraction=0.0)
        if engine == "deq":
            cfg = dq.DeqTrainConfig(variant=variant, **common)
            return dq.deq_train(pairs, D, make_params(seed=14), cfg)
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=3, variant=variant),
                               **common)
        return du.du_train(pairs, D, make_params(seed=14), cfg)

    @pytest.mark.parametrize("variant", ["full", "fast"])
    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_one_network_per_optimizer_step(self, monkeypatch, engine,
                                            variant):
        real_copy, real_denoise = dn.float32_params, dn.denoise
        module, name = {"deq": (dq, "deq_forward"),
                        "du": (du, "du_forward")}[engine]
        real_forward = getattr(module, name)
        copies, responses, blocks = [], [], []

        def copy(params):
            net = real_copy(params)
            copies.append([weakref.ref(net), *map(
                weakref.ref, net.denoiser.weights + net.denoiser.biases)])
            return net

        def n0(den, block):  # every network call in training is an N(0)
            out = real_denoise(den, block)
            responses.append((weakref.ref(out), not block.any()))
            return out

        def forward(ctx, net, *args, **kwargs):
            zero = inspect.signature(real_forward).bind(
                ctx, net, *args, **kwargs).arguments["n0"]
            blocks.append((len(copies), net is copies[-1][0](),
                           zero is responses[-1][0](),
                           any(ref() is not None for refs in copies[:-1]
                               for ref in refs)))
            return real_forward(ctx, net, *args, **kwargs)

        monkeypatch.setattr(dn, "float32_params", copy)
        monkeypatch.setattr(dn, "denoise", n0)
        monkeypatch.setattr(module, name, forward)
        self.train(engine, variant)
        # 2 steps in each of 2 epochs, 2 blocks in each step
        assert len(copies) == 4
        assert [on_zeros for _, on_zeros in responses] == [True] * 4
        assert blocks == [(step, True, True, False)
                          for step in (1, 1, 2, 2, 3, 3, 4, 4)]


class TestValidationNetwork:
    """A validation pass makes one float32 network copy and one N(0) for
    all its blocks, and scores them as blocks solved one by one would."""

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_one_network_per_validation_pass(self, monkeypatch, engine):
        real_network = pipeline.shared_network
        copies, zero_blocks, blocks = [], [], []

        def network(params, shape):  # N(0) is the network on zeros
            copies.append(1)
            net, n0 = real_network(params, shape)
            zero_blocks.append(np.array_equal(n0, dn.denoise(
                net.denoiser, np.zeros(shape, np.float32))))
            return net, n0

        monkeypatch.setattr(pipeline, "shared_network", network)
        real_block = pipeline.denoise_block
        monkeypatch.setattr(pipeline, "denoise_block", lambda *args: (
            blocks.append(1), real_block(*args))[1])
        _, history, _ = TestDivergentValidation.train(
            engine, make_params(seed=4), epochs=2)
        assert len(blocks) == 4  # 2 validation blocks in each of 2 passes
        assert len(copies) == 2 and zero_blocks == [True, True]

        monkeypatch.setattr(pipeline, "block_solver", lambda bundle: (
            lambda Y: real_block(bundle, Y)))  # a network per block
        _, per_block, _ = TestDivergentValidation.train(
            engine, make_params(seed=4), epochs=2)
        assert len(copies) == 6
        assert ([h["val_psnr"] for h in history]
                == [h["val_psnr"] for h in per_block])


@pytest.mark.parametrize("engine", ["deq", "du"])
def test_a_saved_bundle_scores_the_same_val_psnr(tmp_path, engine):
    # val_psnr measures what a bundle written after training serves
    from blocksc.metrics import block_psnr
    D, pairs = dataset(5, count=4)
    if engine == "deq":
        anderson = AndersonConfig(m=5, max_iters=10, tol=1e-6)
        cfg = dq.DeqTrainConfig(variant="full", anderson=anderson, epochs=1,
                                lr=1e-3, batch_size=2, val_fraction=0.5)
        params, history, adam = dq.deq_train(pairs, D, make_params(seed=5),
                                             cfg)
        bundle = pipeline.ModelBundle(D, params, "deq", "full",
                                      anderson=anderson)
    else:
        cfg = du.DuTrainConfig(unroll=du.UnrollConfig(K=2, variant="full"),
                               epochs=1, lr=1e-3, batch_size=2,
                               val_fraction=0.5)
        params, history, adam = du.du_train(pairs, D, make_params(seed=5),
                                            cfg)
        bundle = pipeline.ModelBundle(D, params, "du", "full", K=2)
    path = tmp_path / "model.dqc"
    pipeline.save_model_bundle(path, bundle, adam.state_entries())
    loaded, _ = pipeline.load_model_bundle(path)
    _, val = training.split_validation(pairs, 0.5, cfg.seed)
    assert len(val) == 2
    served = np.mean([block_psnr(pipeline.denoise_block(loaded, noisy), clean)
                      for noisy, clean in val])
    assert history[0]["val_psnr"] == served
