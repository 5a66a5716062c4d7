"""Unrolled engine: K applications of the iteration map as a K-layer net.

The forward pass keeps the whole iterate trace; the backward pass chains
the map VJP through all K layers, so memory grows linearly with K (the
price the unrolled variant pays that the equilibrium engine avoids).
Like the equilibrium engine, it is trained and served on the
reconstructed block D G_K.  Which pass runs in which precision: see
``denoiser``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anderson import DivergenceError
from .denoiser import ModelParams, float32_params
from .dictionary import Dictionary
from .solver import (SolverContext, initial_codes, iteration_map,
                     make_context, map_vjp, reconstruct, select_support)
from .training import Adam, EndToEndConfig, end_to_end_train


@dataclass
class UnrollConfig:
    K: int = 10
    variant: str = "full"  # or "fast"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"layer count K must be >= 1, got {self.K}")
        if self.variant not in ("full", "fast"):
            raise ValueError(f"unknown variant {self.variant!r}")


def du_forward(ctx: SolverContext, params: ModelParams, K: int,
               n0: np.ndarray | None = None):
    """K map applications from G0 = 0; returns (G_K, full iterate trace).

    ``n0``, the network's output N(0) on an all-zero block, replaces the
    network call of the first application, as in ``deq.deq_forward``.
    Raises DivergenceError on a non-finite iterate, as Anderson does.
    """
    trace = [initial_codes(ctx)]
    for k in range(1, K + 1):
        trace.append(iteration_map(ctx, trace[-1], params,
                                   n0 if k == 1 else None))
        if not np.all(np.isfinite(trace[-1])):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
    return trace[-1], trace


def du_backward(ctx: SolverContext, trace, X: np.ndarray,
                params: ModelParams):
    """Exact reverse-mode of the K-layer loss ||D G_K - X||_F^2.

    Each layer's ``map_vjp`` re-linearizes the map on ``params`` at its
    trace point, whichever network made the trace.  Returns (loss, grads
    dict) with gradients for theta and the raw penalty scalars,
    accumulated in place across all layers.
    """
    resid = reconstruct(ctx, trace[-1]) - X
    loss = float((resid * resid).sum())
    cot = 2.0 * (ctx.D.T @ resid)
    grads = None
    for k in range(len(trace) - 1, 0, -1):
        cot, layer_grads = map_vjp(ctx, trace[k - 1], params, cot)
        if grads is None:
            grads = layer_grads
        else:
            for key in grads:
                grads[key] += layer_grads[key]
        del layer_grads
    return loss, grads


@dataclass
class DuTrainConfig(EndToEndConfig):
    unroll: UnrollConfig = field(default_factory=UnrollConfig)
    support_size: int = 10


def du_train(pairs, D: Dictionary, params0: ModelParams, cfg: DuTrainConfig,
             adam: Adam | None = None, start_epoch: int = 0):
    """End-to-end training of the unrolled model; K is fixed at train time.

    Precision of each pass: see ``denoiser``.
    """

    def context(noisy, params):
        support = (select_support(noisy, D, cfg.support_size)
                   if cfg.unroll.variant == "fast" else None)
        return make_context(D, params, noisy, support)

    def block_grad(noisy, clean, params):
        ctx = context(noisy, params)
        _, trace = du_forward(ctx, float32_params(params), cfg.unroll.K)
        loss, grads = du_backward(ctx, trace, clean, params)
        return loss, grads, {"fwd_iters": cfg.unroll.K,
                             "bwd_iters": cfg.unroll.K}

    def infer(noisy, params):
        ctx = context(noisy, params)
        G_K, _ = du_forward(ctx, params, cfg.unroll.K)
        return reconstruct(ctx, G_K)

    return end_to_end_train(pairs, params0, cfg, block_grad, infer,
                            engine=f"du-{cfg.unroll.variant}", adam=adam,
                            start_epoch=start_epoch)
