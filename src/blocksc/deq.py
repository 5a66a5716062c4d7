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
a transposed product at its cached activations (no network forward, no
parameter cotangents), as is the one parameter VJP after convergence.
Each sweep takes the weights it runs on, so training runs all but that
VJP on the float32 network that every block of its optimizer step shares
(see ``denoiser``).  That VJP forms the parameter cotangents alone: no
code cotangent is read after it.

``deq_train`` solves each block's adjoint to ``ADJOINT_TOL_FACTOR`` times
the forward's tol (separate thresholds, as in Bai et al., arXiv
1909.01377); ``deq_backward`` solves to whatever config it is given, and
the forward solve, validation and served bundle keep the configured tol.
The gradient stops changing well before the forward's tol: at 1e-3
against 1e-4 (perfbench ``train_deq`` input set 2) the adjoint takes 8.0
instead of 10.875 iterations a block, each step's gradient keeps cosine
above 1 - 2e-9 and norm ratio 0.99999 over 6 epochs, and one epoch's
loss moves at most 1.8e-7 relative over the 32 input sets (rtol 1e-6).
A ratio keeps a tighter training tol tightening the gradient, and tol 0
running both solves to ``max_iters``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .anderson import AndersonConfig, DivergenceError, FixedPointReport, \
    anderson_solve
from .denoiser import ModelParams
from .dictionary import Dictionary
from .solver import (SolverContext, initial_codes, iteration_map,
                     linearize_map, map_vjp, reconstruct)
from .training import Adam, EndToEndConfig, end_to_end_train, step_network

# deq_train's adjoint tol over its forward's (see the module docstring)
ADJOINT_TOL_FACTOR = 10.0


def deq_forward(ctx: SolverContext, params: ModelParams, cfg: AndersonConfig,
                callback=None, n0: np.ndarray | None = None
                ) -> FixedPointReport:
    """Solve the code fixed point from g0 = 0.

    The first map step runs the network on D g0 = 0.  ``n0``, the
    network's output N(0) on an all-zero block, replaces that call: it is
    the same for every block, so ``pipeline`` computes it once per cube and
    ``deq_train`` once per optimizer step.  g0 is ``initial_codes``, a
    read-only view that holds no code matrix.
    """
    g0 = initial_codes(ctx)
    return anderson_solve(lambda g: iteration_map(ctx, g, params), g0, cfg,
                          callback=callback,
                          f0=iteration_map(ctx, g0, params, n0))


def deq_backward(ctx: SolverContext, g_star: np.ndarray, X: np.ndarray,
                 params: ModelParams, cfg: AndersonConfig,
                 net: ModelParams | None = None):
    """Implicit gradients of 0.5 ||D g* - x||^2 w.r.t. theta and (raw_b, raw_mu).

    The map is linearized at g* on ``net`` (``deq_train`` hands in its
    optimizer step's float32 network), or on ``params`` when it is None,
    and the adjoint's transposed products run on ``net``.  The
    linearization holds activations only: the parameter VJP runs on
    ``params``' weights, and the adjoint's seed is dead there.  The adjoint
    runs to ``cfg``'s tol.
    Returns (grads dict, adjoint FixedPointReport).
    """
    net = params if net is None else net
    seed = ctx.D.T @ (ctx.D @ g_star - X)
    lin = linearize_map(ctx, g_star, net)

    def adjoint_map(gamma):
        out = lin(net, gamma)
        out += seed
        return out

    try:  # from the zero code, as the forward: a view that holds no memory
        report = anderson_solve(adjoint_map, initial_codes(ctx), cfg, f0=seed)
    except DivergenceError as exc:
        raise DivergenceError(
            f"adjoint solve diverged at iteration {exc.iteration}; "
            "try a smaller beta or a larger ridge",
            iteration=exc.iteration) from exc
    del seed
    grads = map_vjp(ctx, g_star, params, report.solution, lin=lin,
                    code_cot=False)[1]
    return grads, report


def deq_loss(ctx: SolverContext, g_star: np.ndarray, X: np.ndarray) -> float:
    resid = reconstruct(ctx, g_star) - X
    return 0.5 * float((resid * resid).sum())


@dataclass
class DeqTrainConfig(EndToEndConfig):
    """``anderson`` configures the forward solve and the served bundle; the
    adjoint takes ``ADJOINT_TOL_FACTOR`` times its tol (module docstring)."""

    variant: str = "full"  # or "fast"
    anderson: AndersonConfig = field(default_factory=AndersonConfig)
    support_size: int = 10
    _POSITIVE = EndToEndConfig._POSITIVE + ("support_size",)

    def __post_init__(self):
        super().__post_init__()
        if self.variant not in ("full", "fast"):
            raise ValueError(f"unknown variant {self.variant!r}")


def deq_train(pairs, D: Dictionary, params0: ModelParams, cfg: DeqTrainConfig,
              adam: Adam | None = None, start_epoch: int = 0):
    """End-to-end training of the equilibrium model (full or fast variant).

    Each block solves from its optimizer step's N(0) and runs its adjoint
    on the step's float32 network (``step_network``), to
    ``ADJOINT_TOL_FACTOR`` times ``cfg.anderson.tol``; the parameter VJP
    runs on the float64 weights (see ``denoiser``).  Each step's log record
    adds the blocks' final forward and adjoint residuals (``fwd_residual``,
    ``adj_residual``) to their iteration counts.  Validation scores the
    served ``pipeline.block_solver``.
    Returns (best params, history, optimizer) to resume from.
    """
    from .pipeline import ModelBundle, block_context, block_solver

    def bundle(params):  # the served model at the live params
        return ModelBundle(D, params, "deq", cfg.variant, anderson=cfg.anderson,
                           support_size=cfg.support_size)

    adam = adam or Adam(cfg.lr)
    network = step_network(adam)
    adjoint = replace(cfg.anderson,
                      tol=ADJOINT_TOL_FACTOR * cfg.anderson.tol)

    def block_grad(noisy, clean, params):
        ctx = block_context(bundle(params), noisy)
        net, n0 = network(params, noisy.shape)
        fwd = deq_forward(ctx, net, cfg.anderson, n0=n0)
        grads, bwd = deq_backward(ctx, fwd.solution, clean, params, adjoint,
                                  net)
        return deq_loss(ctx, fwd.solution, clean), grads, {
            "fwd_iters": fwd.iterations, "bwd_iters": bwd.iterations,
            "fwd_nonconverged": int(not fwd.converged),
            "adj_nonconverged": int(not bwd.converged),
            "fwd_residual": fwd.residuals[-1],
            "adj_residual": bwd.residuals[-1]}

    return end_to_end_train(pairs, params0, cfg, block_grad,
                            lambda p: block_solver(bundle(p)),
                            f"deq-{cfg.variant}", adam, start_epoch)
