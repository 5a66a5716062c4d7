"""Adam optimizer and the one minibatch loop every training stage runs.

``end_to_end_train`` trains the equilibrium and unrolled engines, and
``pretrain`` runs the denoiser-only stage on the same loop, so all three
share its validation split, divergence skipping, counters, JSONL log and
best-checkpoint choice (mean validation block PSNR).  Training is
deterministic given the master seed: batch order is derived from
(seed, epoch), gradients are accumulated in a fixed order, and spectral
normalization runs once after every optimizer step.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .anderson import DivergenceError
from .denoiser import (ModelParams, ScalarParams, denoise, denoise_linearize,
                       denoise_vjp, init_denoiser, spectral_normalize)
from .metrics import block_psnr


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and eps


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


def _append_jsonl(path, record: dict) -> None:
    """Append ``record`` as one JSON line to ``path``; no-op for no path."""
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _require_pairs(pairs, engine: str) -> None:
    if not pairs:
        raise ValueError(f"{engine} needs at least one (noisy, clean) pair")


def _block_matrix(block) -> np.ndarray:
    return block.matrix if hasattr(block, "matrix") else np.asarray(block)


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

    def __post_init__(self):  # val_fraction 1 would leave nothing to train
        for name, ok, want in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
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
    info dict); ``infer_fn(noisy, params)`` returns a reconstructed block
    for validation PSNR.  Divergent blocks (a ``FloatingPointError`` or
    ``DivergenceError`` from ``block_grad_fn``, or a non-finite loss or
    gradient) are skipped and counted per epoch in each history entry's
    ``skipped``; each step averages loss and gradients over the blocks
    kept, and an epoch that kept no block records ``loss`` NaN.  Kept
    blocks whose info reports ``fwd_converged`` or ``adj_converged`` False
    are counted per step in the log and per epoch in ``fwd_nonconverged``
    / ``adj_nonconverged``.  Returns (best params, history, optimizer);
    the best params are those of the epoch with the highest mean
    validation block PSNR, or of the last epoch when the validation split
    is empty.  Raises ValueError for no pairs.
    """
    _require_pairs(pairs, engine)
    data = [(_block_matrix(a), _block_matrix(b)) for a, b in pairs]
    params = params0.copy()
    pdict = params.as_dict()
    adam = adam or Adam(cfg.lr)
    adam.lr = cfg.lr
    train, val = split_validation(data, cfg.val_fraction, cfg.seed)

    def val_psnr():
        if not val:
            return None
        return float(np.mean([block_psnr(infer_fn(noisy, params), clean)
                              for noisy, clean in val]))

    best = params.copy()
    best_psnr = -np.inf
    history = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        order = _epoch_order(len(train), cfg.seed, epoch)
        epoch_loss = 0.0
        steps = skipped = epoch_fwd_nc = epoch_adj_nc = 0
        for start in range(0, len(train), cfg.batch_size):
            batch = [train[i] for i in order[start:start + cfg.batch_size]]
            t0 = time.perf_counter()
            loss = 0.0
            grads = None
            kept = fwd_iters = bwd_iters = fwd_nc = adj_nc = 0
            for noisy, clean in batch:
                try:
                    blk_loss, g, info = block_grad_fn(noisy, clean, params)
                except (FloatingPointError, DivergenceError):
                    skipped += 1
                    continue
                if not np.isfinite(blk_loss) or any(
                        not np.all(np.isfinite(v)) for v in g.values()):
                    skipped += 1
                    del g  # not held through the next block's gradient
                    continue
                loss += blk_loss
                kept += 1
                fwd_iters += info.get("fwd_iters", 0)
                bwd_iters += info.get("bwd_iters", 0)
                fwd_nc += not info.get("fwd_converged", True)
                adj_nc += not info.get("adj_converged", True)
                if grads is None:
                    grads = {k: v / len(batch) for k, v in g.items()}
                else:
                    for k in g:
                        grads[k] += g[k] / len(batch)
                del g
            if grads is None:
                continue
            if kept < len(batch):  # average over the kept blocks only
                grads = {k: v * (len(batch) / kept) for k, v in grads.items()}
            adam.step(pdict, grads)
            spectral_normalize(params.denoiser)
            gnorm = float(np.sqrt(sum(float((g * g).sum())
                                      for g in grads.values())))
            loss /= kept
            epoch_loss += loss
            steps += 1
            epoch_fwd_nc += fwd_nc
            epoch_adj_nc += adj_nc
            _append_jsonl(cfg.log_path, {
                "engine": engine, "epoch": epoch, "step": adam.t,
                "loss": loss, "fwd_iters": fwd_iters, "bwd_iters": bwd_iters,
                "fwd_nonconverged": fwd_nc, "adj_nonconverged": adj_nc,
                "grad_norm": gnorm,
                "wall_ms": 1e3 * (time.perf_counter() - t0)})
        psnr = val_psnr()
        history.append({"epoch": epoch,
                        "loss": epoch_loss / steps if steps else math.nan,
                        "val_psnr": psnr, "skipped": skipped,
                        "fwd_nonconverged": epoch_fwd_nc,
                        "adj_nonconverged": epoch_adj_nc})
        if psnr is None:
            best = params.copy()
        elif psnr > best_psnr:
            best_psnr = psnr
            best = params.copy()
    return best, history, adam


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
    _require_pairs(pairs, "pretrain")  # before pairs[0] sizes the denoiser
    den = init_denoiser(_block_matrix(pairs[0][0]).shape[0],
                        hidden=cfg.hidden, seed=cfg.seed)
    spectral_normalize(den)

    def block_grad(noisy, clean, params):
        lin = denoise_linearize(params.denoiser, noisy)
        resid = lin.out - clean
        _, grads = denoise_vjp(params.denoiser, noisy, 2.0 * resid, lin=lin)
        return float((resid * resid).sum()), grads, {}

    def infer(noisy, params):
        return denoise(params.denoiser, noisy)

    best, history, _ = end_to_end_train(
        pairs, ModelParams(den, ScalarParams(0.0, 0.0)), cfg, block_grad,
        infer, engine="pretrain")
    return best.denoiser, history
