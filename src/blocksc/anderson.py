"""Anderson-accelerated fixed-point iteration.

Keeps the m most recent iterates g and map values f(g), mixes them with
coefficients alpha minimizing the combined residual norm subject to
sum(alpha) = 1, and damps the update with beta:

    g+ = (1 - beta) sum_i alpha_i g_i + beta sum_i alpha_i f(g_i)

The constrained least-squares is solved by eliminating the constraint:
(U^T U + ridge I) w = 1, alpha = w / sum(w), with U the residual matrix.
"""

from __future__ import annotations

from collections import deque
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
        if self.beta <= 0:
            raise ValueError("damping beta must be positive")


@dataclass
class FixedPointReport:
    solution: np.ndarray
    iterations: int
    residuals: list
    converged: bool
    alpha: np.ndarray | None = None  # last mixing coefficients
    beta: float = 1.0


def _rel_residual(prev, cur):
    num = np.linalg.norm(cur - prev)
    denom = max(np.linalg.norm(prev), np.linalg.norm(cur), 1e-30)
    return float(num / denom)


def anderson_solve(f, g0: np.ndarray, cfg: AndersonConfig,
                   callback=None) -> FixedPointReport:
    """Run the accelerated iteration from g0 until tol or max_iters.

    ``callback(k, g)`` is invoked after every update with the iterate so
    callers can log per-iteration quality.  Raises DivergenceError on a
    non-finite iterate.
    """
    g = np.asarray(g0, dtype=np.float64)
    shape = g.shape
    iterates: deque = deque(maxlen=cfg.m)
    values: deque = deque(maxlen=cfg.m)
    residuals = []
    alpha = None
    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        fg = np.asarray(f(g), dtype=np.float64)
        if not np.all(np.isfinite(fg)):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
        iterates.append(g.ravel().copy())
        values.append(fg.ravel())
        if len(iterates) == 1:
            g_next = fg  # plain first step
        else:
            X = np.stack(iterates, axis=1)
            F = np.stack(values, axis=1)
            U = F - X
            utu = U.T @ U
            # ridge is relative to the residual scale so late iterations
            # keep refining instead of degenerating to plain averaging
            scale = max(float(np.trace(utu)) / utu.shape[0], 1e-300)
            h = utu + cfg.ridge * scale * np.eye(U.shape[1])
            try:
                w = np.linalg.solve(h, np.ones(U.shape[1]))
            except np.linalg.LinAlgError:
                w = None
            if w is None or abs(w.sum()) < 1e-300:
                g_next = fg
                alpha = None
            else:
                alpha = w / w.sum()
                mix = (1.0 - cfg.beta) * (X @ alpha) + cfg.beta * (F @ alpha)
                g_next = mix.reshape(shape)
        res = _rel_residual(g, g_next)
        residuals.append(res)
        g = g_next
        if callback is not None:
            callback(k, g)
        if res < cfg.tol:
            converged = True
            break
    return FixedPointReport(g, k, residuals, converged, alpha, cfg.beta)
