"""Anderson-accelerated fixed-point iteration.

Keeps the m most recent iterates g_i and residuals u_i = f(g_i) - g_i as
rows of two preallocated ring buffers, mixes them with coefficients alpha
minimizing the combined residual norm subject to sum(alpha) = 1, and
damps the update with beta:

    g+ = sum_i alpha_i (g_i + beta u_i)

The constrained least-squares is solved by eliminating the constraint:
(U^T U + ridge I) w = 1, alpha = w / sum(w); each iteration updates the
Gram matrix U^T U by the one row it writes.

One iteration allocates, beyond what ``f`` returns, only what a mixed step
must: the new iterate ``alpha X`` and one temporary ``alpha U``, scaled,
added and then reused for the difference the relative residual takes.  A
plain step (the first, m = 1, or a singular Gram matrix) takes f(g) as the
iterate and U's new row as that difference, and allocates nothing
code-sized.  The iterate is written to X's row, so the ring holds it while
the step runs and the previous one is not kept; ||g|| is carried from the
step that made g.  Finiteness is read from the new Gram diagonal u.u: it
is finite exactly when u is and no square overflows, so only a non-finite
u.u pays the elementwise scan of f(g) that decides.
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


def anderson_solve(f, g0: np.ndarray, cfg: AndersonConfig,
                   callback=None, f0: np.ndarray | None = None
                   ) -> FixedPointReport:
    """Run the accelerated iteration from g0 until tol or max_iters.

    ``callback(k, g)`` is invoked after every update with the iterate so
    callers can log per-iteration quality.  ``f0``, when given, is f(g0)
    and takes the place of the first call.  No ``f(g)`` is held past its
    iteration, and g0 is only read, so it may be a read-only view (a zero
    start as ``np.broadcast_to(0.0, shape)``).  Raises DivergenceError on
    a non-finite f(g).
    """
    g = np.asarray(g0, dtype=np.float64)
    shape = g.shape
    X = np.empty((cfg.m, g.size))  # ring buffers: one iterate per row
    U = np.empty((cfg.m, g.size))  # and its residual f(g) - g
    gram = np.empty((cfg.m, cfg.m))
    residuals = []
    converged = False
    g_norm = None  # ||g||, carried from the step that made g
    k = 0
    for k in range(1, cfg.max_iters + 1):
        fg, f0 = (f(g) if f0 is None else f0), None  # not held past use
        fg = np.asarray(fg, dtype=np.float64)
        j, c = (k - 1) % cfg.m, min(k, cfg.m)  # row j: the oldest, once full
        x, u = X[j], U[j]
        x.reshape(shape)[...] = g
        del g  # x holds it
        np.subtract(fg.ravel(), x, out=u)
        gram[j, :c] = gram[:c, j] = U[:c] @ u
        if not math.isfinite(gram[j, j]) and not np.all(np.isfinite(fg)):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
        if g_norm is None:
            g_norm = np.linalg.norm(x)
        alpha = _mix_weights(gram[:c, :c], cfg.ridge) if c > 1 else None
        if alpha is None:
            g, diff = fg, u  # plain step: u is exactly f(g) - g
        else:
            del fg  # dead before the mix allocates
            g = alpha @ X[:c]
            diff = alpha @ U[:c]
            diff *= cfg.beta
            g += diff
            np.subtract(g, x, out=diff)
            g = g.reshape(shape)
        g_next_norm = np.linalg.norm(g)
        res = float(np.linalg.norm(diff) / max(g_norm, g_next_norm, 1e-30))
        del diff
        g_norm = g_next_norm
        residuals.append(res)
        if callback is not None:
            callback(k, g)
        if res < cfg.tol:
            converged = True
            break
    return FixedPointReport(g, k, residuals, converged)


def _mix_weights(utu: np.ndarray, ridge: float):
    """alpha minimizing ||U alpha|| with sum(alpha) = 1, from the Gram
    matrix; None when the ridged system is singular or sums to ~0."""
    c = len(utu)
    # ridge is relative to the residual scale so late iterations keep
    # refining instead of degenerating to plain averaging
    scale = max(float(np.trace(utu)) / c, 1e-300)
    try:
        w = np.linalg.solve(utu + ridge * scale * np.eye(c), np.ones(c))
    except np.linalg.LinAlgError:
        return None
    if abs(w.sum()) < 1e-300:
        return None
    return w / w.sum()
