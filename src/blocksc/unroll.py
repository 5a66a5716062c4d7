"""Unrolled engine: K applications of the iteration map as a K-layer net.

The forward pass keeps the whole iterate trace, so memory grows linearly with
K (the price the unrolled variant pays that the equilibrium engine avoids),
and in training its last map step's linearization, for the backward's first
layer.  The backward chains the map VJP through all K layers, each adding its
cotangents into one float64 gradient sum as it forms them.  Like the
equilibrium engine, it is trained and served on the reconstructed block
D G_K.  Which pass runs in which precision: see ``denoiser``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anderson import DivergenceError
from .denoiser import ModelParams, float32_params
from .dictionary import Dictionary
from .solver import SolverContext, initial_codes, iteration_map, \
    linearize_map, map_vjp, reconstruct
from .training import Adam, EndToEndConfig, end_to_end_train, \
    step_zero_response


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
               n0: np.ndarray | None = None, lins: list | None = None):
    """K map applications from G0 = 0; returns (G_K, full iterate trace).

    ``n0``, the network's output N(0) on an all-zero block, replaces the
    network call of the first application, as in ``deq.deq_forward``.
    Given a list ``lins``, the last application runs from the linearization
    it makes at G_{K-1} (for K = 1, in place of ``n0``), appended there for
    ``du_backward``.  Raises DivergenceError on a non-finite iterate.
    """
    trace = [initial_codes(ctx)]
    for k in range(1, K + 1):
        net_out = n0 if k == 1 else None
        if lins is not None and k == K:
            lins.append(linearize_map(ctx, trace[-1], params))
            net_out = lins[-1].den.out
        trace.append(iteration_map(ctx, trace[-1], params, net_out))
        if not np.all(np.isfinite(trace[-1])):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
    return trace[-1], trace


def du_backward(ctx: SolverContext, trace, X: np.ndarray,
                params: ModelParams, lins: list | None = None):
    """Exact reverse-mode of the K-layer loss ||D G_K - X||_F^2.

    Consumes ``trace``, the list ``du_forward`` returned: each iterate is
    popped when its layer runs, so the list is empty on return and no
    iterate outlives its layer.  Each layer's ``map_vjp`` re-linearizes
    the map on ``params`` at its trace point, so ``params`` should be the
    network that made the trace, but the first pops the forward's one at
    G_{K-1} from ``lins`` when it holds one.  Returns (loss, grads dict),
    one float64 sum per parameter that every layer adds into as it goes.
    """
    resid = reconstruct(ctx, trace.pop()) - X
    loss = float((resid * resid).sum())
    cot = 2.0 * (ctx.D.T @ resid)
    del resid
    grads = None
    while trace:
        cot, grads = map_vjp(ctx, trace.pop(), params, cot,
                             lins.pop() if lins else None, grads)
    return loss, grads


@dataclass
class DuTrainConfig(EndToEndConfig):
    unroll: UnrollConfig = field(default_factory=UnrollConfig)
    support_size: int = 10
    _POSITIVE = EndToEndConfig._POSITIVE + ("support_size",)


def du_train(pairs, D: Dictionary, params0: ModelParams, cfg: DuTrainConfig,
             adam: Adam | None = None, start_epoch: int = 0):
    """End-to-end training of the unrolled model; K is fixed at train time.

    Each block trains on its own ``float32_params`` copy (see ``denoiser``);
    the forward traces of one optimizer step share one N(0), made on the
    step's first block.  Validation scores the served
    ``pipeline.block_solver``.
    """
    from .pipeline import ModelBundle, block_context, block_solver

    def bundle(params):  # the served model at the live params
        return ModelBundle(D, params, "du", cfg.unroll.variant, K=cfg.unroll.K,
                           support_size=cfg.support_size)

    adam = adam or Adam(cfg.lr)
    n0 = step_zero_response(adam)

    def block_grad(noisy, clean, params):
        ctx, net = block_context(bundle(params), noisy), float32_params(params)
        lins = []  # the forward's last linearization, for the backward
        _, trace = du_forward(ctx, net, cfg.unroll.K, n0(net, noisy.shape),
                              lins)
        loss, grads = du_backward(ctx, trace, clean, net, lins)
        return loss, grads, {"fwd_iters": cfg.unroll.K,
                             "bwd_iters": cfg.unroll.K}

    return end_to_end_train(pairs, params0, cfg, block_grad,
                            lambda p: block_solver(bundle(p)),
                            f"du-{cfg.unroll.variant}", adam, start_epoch)
