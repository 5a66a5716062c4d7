"""Equilibrium engine: Anderson forward solve, implicit adjoint backward.

The forward pass finds g* = f(g*, Y) for the HQS iteration map by
Anderson from g0 = 0, whose first step may take a precomputed network
output N(0) (shared by every block of a cube, see ``pipeline``).  The
backward pass never unrolls the forward trajectory: it seeds the adjoint
with D^T (D g* - x), solves the fixed point

    gamma = (df/dg)^T gamma + seed

with the same Anderson machinery, and contracts gamma* against the
parameter VJP.  The adjoint map is linear, so its step from gamma = 0 is
``seed``.  The map is linearized once at g*, so each adjoint iteration is
a transposed product on the cached denoiser state (no network forward, no
parameter cotangents); the single parameter VJP after convergence reuses
that state too.  Which pass runs in which precision: see ``denoiser``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .anderson import AndersonConfig, DivergenceError, FixedPointReport, \
    anderson_solve
from .denoiser import ModelParams, float32_params
from .dictionary import Dictionary
from .solver import (SolverContext, initial_codes, iteration_map,
                     linearize_map, make_context, map_vjp, reconstruct,
                     select_support)
from .training import Adam, EndToEndConfig, end_to_end_train


def deq_forward(ctx: SolverContext, params: ModelParams, cfg: AndersonConfig,
                callback=None, n0: np.ndarray | None = None
                ) -> FixedPointReport:
    """Solve the code fixed point from g0 = 0.

    The first map step runs the network on D g0 = 0.  ``n0``, the
    network's output N(0) on an all-zero block, replaces that call: it is
    the same for every block, so ``pipeline`` computes it once per cube.
    """
    g0 = initial_codes(ctx)
    return anderson_solve(lambda g: iteration_map(ctx, g, params), g0, cfg,
                          callback=callback,
                          f0=iteration_map(ctx, g0, params, n0))


def deq_backward(ctx: SolverContext, g_star: np.ndarray, X: np.ndarray,
                 params: ModelParams, cfg: AndersonConfig,
                 adjoint_net: ModelParams | None = None):
    """Implicit gradients of 0.5 ||D g* - x||^2 w.r.t. theta and (raw_b, raw_mu).

    The map is linearized at g* on ``params``, and the parameter VJP runs
    there too.  The adjoint's transposed products run on ``adjoint_net``'s
    weights (``deq_train`` hands in ``float32_params(params)``), at the
    masks of that linearization, or on ``params`` when it is None; no
    reference to ``adjoint_net`` outlives the adjoint solve.  Returns
    (grads dict, adjoint FixedPointReport).
    """
    seed = ctx.D.T @ (ctx.D @ g_star - X)
    lin = adj = linearize_map(ctx, g_star, params)
    if adjoint_net is not None:
        adj = replace(lin, den=replace(lin.den, params=adjoint_net.denoiser))
        del adjoint_net
    try:
        report = anderson_solve(lambda gamma: adj(gamma) + seed,
                                np.zeros_like(g_star), cfg, f0=seed)
    except DivergenceError as exc:
        raise DivergenceError(
            f"adjoint solve diverged at iteration {exc.iteration}; "
            "try a smaller beta or a larger ridge",
            iteration=exc.iteration) from exc
    del adj  # the float32 weights are dead before the float64 VJP
    _, grads = map_vjp(ctx, g_star, params, report.solution, lin=lin)
    return grads, report


def deq_loss(ctx: SolverContext, g_star: np.ndarray, X: np.ndarray) -> float:
    resid = reconstruct(ctx, g_star) - X
    return 0.5 * float((resid * resid).sum())


@dataclass
class DeqTrainConfig(EndToEndConfig):
    variant: str = "full"  # or "fast"
    anderson: AndersonConfig = field(default_factory=AndersonConfig)
    support_size: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.variant not in ("full", "fast"):
            raise ValueError(f"unknown variant {self.variant!r}")


def deq_train(pairs, D: Dictionary, params0: ModelParams, cfg: DeqTrainConfig,
              adam: Adam | None = None, start_epoch: int = 0):
    """End-to-end training of the equilibrium model (full or fast variant).

    Precision of each pass: see ``denoiser``.  Returns (best params,
    history, optimizer) so training can resume.
    """

    def context(noisy, params):
        support = (select_support(noisy, D, cfg.support_size)
                   if cfg.variant == "fast" else None)
        return make_context(D, params, noisy, support)

    def block_grad(noisy, clean, params):
        ctx = context(noisy, params)
        fwd = deq_forward(ctx, float32_params(params), cfg.anderson)
        grads, bwd = deq_backward(ctx, fwd.solution, clean, params,
                                  cfg.anderson, float32_params(params))
        return deq_loss(ctx, fwd.solution, clean), grads, {
            "fwd_iters": fwd.iterations, "bwd_iters": bwd.iterations,
            "fwd_nonconverged": int(not fwd.converged),
            "adj_nonconverged": int(not bwd.converged)}

    def infer(noisy, params):
        ctx = context(noisy, params)
        fwd = deq_forward(ctx, params, cfg.anderson)
        return reconstruct(ctx, fwd.solution)

    return end_to_end_train(pairs, params0, cfg, block_grad, infer,
                            engine=f"deq-{cfg.variant}", adam=adam,
                            start_epoch=start_epoch)
