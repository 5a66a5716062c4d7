"""Adam optimizer and the one minibatch loop every training stage runs.

``end_to_end_train`` trains the equilibrium and unrolled engines, and
``pretrain`` runs the denoiser-only stage on the same loop, so all three
share its validation split, divergence skipping, counters, JSONL log and
best-checkpoint choice (mean validation block PSNR).  Training is
deterministic given the master seed: batch order is derived from
(seed, epoch), gradients are accumulated in a fixed order, and spectral
normalization runs once after every optimizer step, whose blocks share
one float32 network (``step_network``).
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .anderson import DivergenceError
from .denoiser import (ModelParams, ScalarParams, denoise, denoise_linearize,
                       denoise_vjp, init_denoiser, shared_network,
                       spectral_normalize)
from .metrics import block_psnr


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and eps
# The per-step sums a ``block_grad_fn`` reports, under their log fields:
# the residuals are each solve's last, ``FixedPointReport.residuals[-1]``.
COUNTS = ("fwd_iters", "bwd_iters", "fwd_nonconverged", "adj_nonconverged",
          "fwd_residual", "adj_residual")
_DIVERGED = (FloatingPointError, DivergenceError)  # a divergent block raises


class Adam:
    """Standard Adam over a dict of named parameter arrays (updated in place)."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, g in grads.items():
            p = params[name]
            for moments in (self.m, self.v):
                if name not in moments:  # allocate once, not every step
                    moments[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            p[...] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def state_entries(self) -> dict:
        return {"optimizer.t": np.float64(self.t),
                **{f"optimizer.m.{k}": m for k, m in self.m.items()},
                **{f"optimizer.v.{k}": v for k, v in self.v.items()}}

    def load_state_entries(self, entries: dict) -> None:
        """Restore ``state_entries`` output, also from pre-0-d-fix files.

        Those files hold ``optimizer.t`` and the moments of the 0-d
        ``scalars.*`` parameters with shape ``(1,)``; both load back 0-d.
        """
        self.t = int(np.reshape(entries.get("optimizer.t", 0), ()))
        for key, arr in entries.items():
            for prefix, moments in (("optimizer.m.", self.m),
                                    ("optimizer.v.", self.v)):
                if key.startswith(prefix):
                    name = key[len(prefix):]
                    shape = () if name.startswith("scalars.") else np.shape(arr)
                    moments[name] = np.array(arr).reshape(shape)


def step_network(adam: Adam):
    """``network(params, shape)``: ``shared_network(params, shape)``, built
    by the first block of each optimizer step of ``adam`` (and shape) and
    reused by the rest; the one held before is dropped first."""
    held = {}

    def network(params: ModelParams, shape) -> tuple:
        key = (adam.t, shape)
        if key not in held:
            held.clear()
            held[key] = shared_network(params, shape)
        return held[key]
    return network


def _append_jsonl(path, record: dict) -> None:
    """Append ``record`` as one JSON line to ``path``; no-op for no path."""
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _block_matrix(block) -> np.ndarray:
    return block.matrix if hasattr(block, "matrix") else np.asarray(block)


def _pair_matrices(pairs, engine: str) -> list:
    """The (noisy, clean) matrices; ValueError for none or a non-finite one."""
    if not pairs:
        raise ValueError(f"{engine} needs at least one (noisy, clean) pair")
    data = [(_block_matrix(a), _block_matrix(b)) for a, b in pairs]
    for i, pair in enumerate(data):
        for side, block in zip(("noisy", "clean"), pair):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{engine} pair {i}: non-finite {side} block")
    return data


def _epoch_order(count, seed, epoch):
    rng = np.random.default_rng((seed, 0xE90C, epoch))
    return rng.permutation(count)


def split_validation(pairs, val_fraction, seed):
    """Deterministic train/validation split; validation may be empty."""
    rng = np.random.default_rng((seed, 0x5917))
    order = rng.permutation(len(pairs))
    n_val = int(len(pairs) * val_fraction)
    val_idx = set(order[:n_val].tolist())
    train = [p for i, p in enumerate(pairs) if i not in val_idx]
    val = [p for i, p in enumerate(pairs) if i in val_idx]
    return train, val


@dataclass
class EndToEndConfig:
    epochs: int = 100
    lr: float = 1e-4
    batch_size: int = 16
    seed: int = 0
    val_fraction: float = 0.1
    log_path: str | None = None
    _POSITIVE = ("epochs", "batch_size")  # must be >= 1; subclasses add more

    def __post_init__(self):  # val_fraction 1 would leave nothing to train
        for name, ok, want in (
                *((n, getattr(self, n) >= 1, ">= 1") for n in self._POSITIVE),
                ("lr", 0 <= self.lr < math.inf, ">= 0 and finite"),
                ("val_fraction", 0 <= self.val_fraction < 1, "in [0, 1)")):
            if not ok:  # also for NaN, which fails every comparison
                raise ValueError(
                    f"{name} must be {want}, got {getattr(self, name)}")


def end_to_end_train(pairs, params0: ModelParams, cfg: EndToEndConfig,
                     block_grad_fn, infer_fn, engine: str,
                     adam: Adam | None = None, start_epoch: int = 0):
    """Shared minibatch loop for the engines and denoiser pretraining.

    ``block_grad_fn(noisy, clean, params)`` returns (loss, grads dict,
    counts dict), counts keyed by their log fields in ``COUNTS`` (one left
    out counts 0), its gradients the loop's to scale and sum in place;
    ``infer_fn(params)``, called once per validation pass so that what it
    builds from the params serves all the pass's blocks, returns a function
    from a noisy block to its reconstruction.  A block is skipped when
    ``block_grad_fn`` raises ``FloatingPointError`` or ``DivergenceError``
    or gives a non-finite loss or gradient; a validation block that raises
    either scores NaN.  Each step averages loss and gradients over the
    blocks it kept and logs one JSONL record with the sums of their counts
    and the number of blocks it ``skipped``; a step that kept none takes no
    optimizer step and logs ``loss`` and ``grad_norm`` null.  Each epoch's
    history row holds the mean loss of its records that kept a block (NaN
    for none), their summed ``skipped`` and ``*_nonconverged`` counts and
    ``val_psnr``, the mean validation block PSNR.  Returns (best params,
    history, optimizer): the params of the epoch with the highest
    ``val_psnr``, of the last epoch when the validation split is empty, or
    a fresh copy of ``params0`` when every ``val_psnr`` is NaN.  Its block
    solves see one parameter copy, plus the best epoch's once one scored.
    Raises ValueError for no pairs or a non-finite one.
    """
    data = _pair_matrices(pairs, engine)
    params = params0.copy()
    pdict = params.as_dict()
    adam = adam or Adam(cfg.lr)
    adam.lr = cfg.lr
    train, val = split_validation(data, cfg.val_fraction, cfg.seed)

    def validate():  # mean block PSNR of one pass
        infer, scores = infer_fn(params), []
        for noisy, clean in val:
            try:
                scores.append(block_psnr(infer(noisy), clean))
            except _DIVERGED:
                scores.append(math.nan)
        return float(np.mean(scores))

    best, best_psnr = None, -np.inf  # no copy held until an epoch scores
    history = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        order = _epoch_order(len(train), cfg.seed, epoch)
        records = []
        for start in range(0, len(train), cfg.batch_size):
            batch = [train[i] for i in order[start:start + cfg.batch_size]]
            t0 = time.perf_counter()
            step = Counter(dict.fromkeys(("loss", "skipped") + COUNTS, 0))
            kept, grads = 0, None
            for noisy, clean in batch:
                try:
                    loss, g, counts = block_grad_fn(noisy, clean, params)
                except _DIVERGED:
                    loss, g = math.nan, {}
                if not np.isfinite(loss) or any(
                        not np.all(np.isfinite(v)) for v in g.values()):
                    step["skipped"] += 1
                    del g  # not held through the next block's gradient
                    continue
                step.update(counts, loss=loss)
                kept += 1
                for k in g:  # in place; the first kept block's is the sum
                    g[k] /= len(batch)
                    if grads is not None:
                        grads[k] += g[k]
                grads = g if grads is None else grads
                del g
            loss = gnorm = None  # no block kept: no optimizer step
            if kept:
                if kept < len(batch):  # average over the kept blocks only
                    for k in grads:
                        grads[k] *= len(batch) / kept
                adam.step(pdict, grads)
                spectral_normalize(params.denoiser)
                loss = step["loss"] / kept
                gnorm = float(np.sqrt(sum(float((g * g).sum())
                                          for g in grads.values())))
            records.append({
                "engine": engine, "epoch": epoch, "step": adam.t, **step,
                "loss": loss, "grad_norm": gnorm,
                "wall_ms": 1e3 * (time.perf_counter() - t0)})
            _append_jsonl(cfg.log_path, records[-1])
        psnr = validate() if val else None
        losses = [r["loss"] for r in records if r["loss"] is not None]
        history.append({
            "epoch": epoch,
            "loss": sum(losses) / len(losses) if losses else math.nan,
            "val_psnr": psnr,
            **{k: sum(r[k] for r in records)
               for k in ("skipped", "fwd_nonconverged", "adj_nonconverged")}})
        if psnr is None or psnr > best_psnr:  # NaN is never the best
            best_psnr, best = psnr, params if psnr is None else params.copy()
    return params0.copy() if best is None else best, history, adam


@dataclass
class PretrainConfig(EndToEndConfig):
    epochs: int = 150
    lr: float = 1e-3
    hidden: int = 64


def pretrain(pairs, cfg: PretrainConfig):
    """Train the denoiser alone on (noisy, clean) block pairs.

    Starts from a fresh ``init_denoiser``, spectral-normalized once, and
    runs ``end_to_end_train`` on the squared Frobenius error of the
    denoised block; the penalty scalars ride along in the ``ModelParams``
    and never receive a gradient.
    Returns (best denoiser params, history).
    """
    noisy0 = _pair_matrices(pairs, "pretrain")[0][0]  # no pairs: ValueError
    den = init_denoiser(noisy0.shape[0], hidden=cfg.hidden, seed=cfg.seed)
    spectral_normalize(den)

    def block_grad(noisy, clean, params):
        lin = denoise_linearize(params.denoiser, noisy)
        resid = lin.out - clean
        grads = denoise_vjp(params.denoiser, lin, 2.0 * resid,
                            block_cot=False)[1]
        return float((resid * resid).sum()), grads, {}

    def infer(params):
        return lambda noisy: denoise(params.denoiser, noisy)

    best, history, _ = end_to_end_train(
        pairs, ModelParams(den, ScalarParams(0.0, 0.0)), cfg, block_grad,
        infer, engine="pretrain")
    return best.denoiser, history
