"""The shared training loop's contract with the engines.

Each ``block_grad_fn`` reports counts under the log's own field names;
``end_to_end_train`` sums them per optimizer step into one JSONL record,
and each epoch's history row is built from that epoch's records.
"""

import json

import numpy as np
import pytest

from blocksc import deq as dq
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
    """Each history row is the mean loss and the summed non-converged
    counts of its epoch's JSONL records."""
    assert {r["epoch"] for r in records} <= {h["epoch"] for h in history}
    for h in history:
        rows = [r for r in records if r["epoch"] == h["epoch"]]
        assert rows, h
        assert h["loss"] == sum(r["loss"] for r in rows) / len(rows)
        for key in ("fwd_nonconverged", "adj_nonconverged"):
            assert h[key] == sum(r[key] for r in rows), key


class TestStubEngine:
    """``end_to_end_train`` with a ``block_grad_fn`` whose loss and counts
    are fixed per pair: pair i has loss i and counts derived from i."""

    @staticmethod
    def counts(i):
        every = {"fwd_iters": 3 * i + 1, "bwd_iters": 7 * i,
                 "fwd_nonconverged": i % 2,
                 "adj_nonconverged": int(i % 3 == 0)}
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
        kept = [[i for i in step if i != 5] for step in steps]
        kept_steps = [k for k in kept if k]  # an all-skipped step logs none
        assert len(records) == len(kept_steps)
        for rec, blocks in zip(records, kept_steps):
            for key in COUNTS:
                assert rec[key] == sum(self.counts(i).get(key, 0)
                                       for i in blocks), key
            assert rec["loss"] == sum(blocks) / len(blocks)
        assert [h["skipped"] for h in history] == [1, 1]
        assert_history_sums_records(history, records)
        assert any(h["fwd_nonconverged"] and h["adj_nonconverged"]
                   for h in history)

    def test_records_keep_their_schema(self, tmp_path):
        _, history, records = self.run(tmp_path, epochs=1)
        assert all(set(r) == {"engine", "epoch", "step", "loss", *COUNTS,
                              "grad_norm", "wall_ms"} for r in records)
        assert list(history[0]) == ["epoch", "loss", "val_psnr", "skipped",
                                    "fwd_nonconverged", "adj_nonconverged"]

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

    def test_a_divergent_validation_epoch_is_not_best(self):
        params0 = make_params()
        pairs = [(np.full((6, 16), float(i)), np.zeros((6, 16)))
                 for i in range(6)]
        validated = []

        def block_grad(noisy, clean, params):
            grads = {k: np.ones(np.shape(v))
                     for k, v in params.as_dict().items()}
            return 1.0, grads, {}

        def infer(noisy, params):
            validated.append(params.copy())
            if len(validated) > 3:  # the second epoch's validation
                raise DivergenceError("stub divergence", iteration=1)
            return np.zeros_like(noisy)

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
        module, name = {"deq": (dq, "deq_forward"),
                        "du": (du, "du_forward")}[engine]
        real = getattr(module, name)
        validations = []

        def second_validation_diverges(ctx, params, *args, **kwargs):
            # training solves run the float32 copy, validation float64
            if params.denoiser.weights[0].dtype == np.float64:
                validations.append(1)
                if len(validations) > 2:
                    raise DivergenceError("validation diverged", iteration=3)
            return real(ctx, params, *args, **kwargs)

        one_epoch, first, _ = self.train(engine, make_params(seed=4), 1)
        monkeypatch.setattr(module, name, second_validation_diverges)
        best, history, _ = self.train(engine, make_params(seed=4), 2)
        assert len(validations) == 4
        assert history[0]["val_psnr"] == first[0]["val_psnr"]
        assert np.isnan(history[1]["val_psnr"])
        for k, v in one_epoch.as_dict().items():
            assert np.array_equal(best.as_dict()[k], v), k

