"""Anderson-accelerated fixed-point iteration.

Keeps the m most recent iterates g_i and residuals u_i = f(g_i) - g_i as
rows of two preallocated ring buffers, mixes them with coefficients alpha
minimizing the combined residual norm subject to sum(alpha) = 1, and
damps the update with beta:

    g+ = sum_i alpha_i (g_i + beta u_i)

The constrained least-squares is solved by eliminating the constraint:
(U^T U + ridge I) w = 1, alpha = w / sum(w); each iteration updates the
Gram matrix U^T U by the one row it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """An iterate went non-finite; ``iteration`` is the offending index."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass
class AndersonConfig:
    m: int = 5
    beta: float = 1.0
    max_iters: int = 20
    tol: float = 1e-4
    ridge: float = 1e-10

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("memory depth m must be >= 1")
        if not 0 < self.beta < math.inf:  # False for NaN too
            raise ValueError(
                f"damping beta must be positive and finite, got {self.beta}")
        if self.max_iters < 1:
            raise ValueError("iteration cap max_iters must be >= 1")
        for name in ("tol", "ridge"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, "
                                 f"got {getattr(self, name)}")


@dataclass
class FixedPointReport:
    solution: np.ndarray
    iterations: int
    residuals: list
    converged: bool


def _rel_residual(prev, cur):
    num = np.linalg.norm(cur - prev)
    denom = max(np.linalg.norm(prev), np.linalg.norm(cur), 1e-30)
    return float(num / denom)


def anderson_solve(f, g0: np.ndarray, cfg: AndersonConfig,
                   callback=None, f0: np.ndarray | None = None
                   ) -> FixedPointReport:
    """Run the accelerated iteration from g0 until tol or max_iters.

    ``callback(k, g)`` is invoked after every update with the iterate so
    callers can log per-iteration quality.  ``f0``, when given, is f(g0)
    and takes the place of the first call.  No ``f(g)`` is held past its
    iteration.  Raises DivergenceError on a non-finite iterate.
    """
    g = np.asarray(g0, dtype=np.float64)
    shape = g.shape
    X = np.empty((cfg.m, g.size))  # ring buffers: one iterate per row
    U = np.empty((cfg.m, g.size))  # and its residual f(g) - g
    gram = np.empty((cfg.m, cfg.m))
    residuals = []
    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        fg, f0 = (f(g) if f0 is None else f0), None  # not held past use
        fg = np.asarray(fg, dtype=np.float64)
        if not np.all(np.isfinite(fg)):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
        j, c = (k - 1) % cfg.m, min(k, cfg.m)  # row j: the oldest, once full
        X[j] = g.ravel()
        np.subtract(fg.ravel(), X[j], out=U[j])
        gram[j, :c] = gram[:c, j] = U[:c] @ U[j]
        if c == 1:
            g_next = fg  # plain step: first iteration, or m = 1
        else:
            utu = gram[:c, :c]
            # ridge is relative to the residual scale so late iterations
            # keep refining instead of degenerating to plain averaging
            scale = max(float(np.trace(utu)) / c, 1e-300)
            h = utu + cfg.ridge * scale * np.eye(c)
            try:
                w = np.linalg.solve(h, np.ones(c))
            except np.linalg.LinAlgError:
                w = None
            if w is None or abs(w.sum()) < 1e-300:
                g_next = fg
            else:
                alpha = w / w.sum()
                mix = alpha @ X[:c] + cfg.beta * (alpha @ U[:c])
                g_next = mix.reshape(shape)
        del fg  # dead before the next map call, unless it is g_next
        res = _rel_residual(g, g_next)
        residuals.append(res)
        g = g_next
        if callback is not None:
            callback(k, g)
        if res < cfg.tol:
            converged = True
            break
    return FixedPointReport(g, k, residuals, converged)
