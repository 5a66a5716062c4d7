"""Unrolled engine: K applications of the iteration map as a K-layer net.

The forward pass keeps the whole iterate trace; the backward pass chains
the map VJP through all K layers, so memory grows linearly with K (the
price the unrolled variant pays that the equilibrium engine avoids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import ModelParams, denoise, denoise_linearize, denoise_vjp
from .dictionary import Dictionary
from .solver import (SolverContext, initial_codes, iteration_map,
                     make_context, map_vjp, reconstruct, select_support)
from .training import Adam, EndToEndConfig, end_to_end_train


@dataclass
class UnrollConfig:
    K: int = 10
    variant: str = "full"  # or "fast"
    loss_target: str = "recon"  # "z" reads off the denoiser output (fast only)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"layer count K must be >= 1, got {self.K}")
        if self.variant not in ("full", "fast"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.loss_target not in ("recon", "z"):
            raise ValueError(f"unknown loss target {self.loss_target!r}")
        if self.loss_target == "z" and self.variant != "fast":
            raise ValueError("the z loss target is a fast-variant option")


def du_forward(ctx: SolverContext, params: ModelParams, K: int):
    """K map applications from G0 = 0; returns (G_K, full iterate trace)."""
    trace = [initial_codes(ctx)]
    for _ in range(K):
        trace.append(iteration_map(ctx, trace[-1], params))
    return trace[-1], trace


def trace_nbytes(trace) -> int:
    return sum(g.nbytes for g in trace)


def du_loss(ctx: SolverContext, G_K: np.ndarray, X: np.ndarray,
            params: ModelParams, cfg: UnrollConfig) -> float:
    if cfg.loss_target == "z":
        resid = denoise(params.denoiser, ctx.D @ G_K) - X
    else:
        resid = reconstruct(ctx, G_K) - X
    return float((resid * resid).sum())


def du_backward(ctx: SolverContext, trace, X: np.ndarray,
                params: ModelParams, cfg: UnrollConfig):
    """Exact reverse-mode of the K-layer loss ||D G_K - X||_F^2.

    Returns (loss, grads dict) with gradients for theta and the raw
    penalty scalars, accumulated across all layers.
    """
    G_K = trace[-1]
    grads = None
    if cfg.loss_target == "z":
        T = ctx.D @ G_K
        lin = denoise_linearize(params.denoiser, T)
        resid = lin.out - X
        loss = float((resid * resid).sum())
        cot_T, grads = denoise_vjp(params.denoiser, T, 2.0 * resid, lin=lin)
        cot = ctx.D.T @ cot_T
        grads["scalars.raw_b"] = np.float64(0.0)
        grads["scalars.raw_mu"] = np.float64(0.0)
    else:
        resid = reconstruct(ctx, G_K) - X
        loss = float((resid * resid).sum())
        cot = 2.0 * (ctx.D.T @ resid)
    for k in range(len(trace) - 1, 0, -1):
        cot, layer_grads = map_vjp(ctx, trace[k - 1], params, cot)
        if grads is None:
            grads = layer_grads
        else:
            for key in layer_grads:
                grads[key] = grads[key] + layer_grads[key]
    return loss, grads


@dataclass
class DuTrainConfig:
    unroll: UnrollConfig = None
    support_size: int = 10
    support_eps: float = 1e-10
    epochs: int = 100
    lr: float = 1e-4
    batch_size: int = 16
    seed: int = 0
    val_fraction: float = 0.1
    log_path: str | None = None

    def __post_init__(self):
        if self.unroll is None:
            self.unroll = UnrollConfig()


def du_train(pairs, D: Dictionary, params0: ModelParams, cfg: DuTrainConfig,
             adam: Adam | None = None, start_epoch: int = 0):
    """End-to-end training of the unrolled model; K is fixed at train time."""

    def context(noisy, params):
        support = (select_support(noisy, D, cfg.support_size, cfg.support_eps)
                   if cfg.unroll.variant == "fast" else None)
        return make_context(D, params, noisy, support)

    def block_grad(noisy, clean, params):
        ctx = context(noisy, params)
        _, trace = du_forward(ctx, params, cfg.unroll.K)
        loss, grads = du_backward(ctx, trace, clean, params, cfg.unroll)
        return loss, grads, {"fwd_iters": cfg.unroll.K,
                             "bwd_iters": cfg.unroll.K}

    def infer(noisy, params):
        ctx = context(noisy, params)
        G_K, _ = du_forward(ctx, params, cfg.unroll.K)
        if cfg.unroll.loss_target == "z":
            return denoise(params.denoiser, ctx.D @ G_K)
        return reconstruct(ctx, G_K)

    loop_cfg = EndToEndConfig(epochs=cfg.epochs, lr=cfg.lr,
                              batch_size=cfg.batch_size, seed=cfg.seed,
                              val_fraction=cfg.val_fraction,
                              log_path=cfg.log_path)
    return end_to_end_train(pairs, params0, loop_cfg, block_grad, infer,
                            engine=f"du-{cfg.unroll.variant}", adam=adam,
                            start_epoch=start_epoch)
