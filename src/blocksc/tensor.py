"""Dense tensor ops and the hand-written VJPs the iteration map needs.

Arrays are plain numpy arrays, and every op keeps its input's dtype: the
gradient paths run in float64, while inference may run the 3x3 convs in
float32.  ``conv2d_vjp``, ``conv2d_transpose`` and ``soft_threshold_vjp``
give the cotangents that the denoiser and map VJPs chain, so no general
autograd graph is needed.
"""

from __future__ import annotations

import re

import numpy as np
from scipy import linalg as _sla


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class UnsupportedKernelError(ValueError):
    """conv2d only supports 3x3 kernels."""


class FactorizationError(RuntimeError):
    """Cholesky failed; ``pivot`` is the 1-based failing leading minor."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


# ---------------------------------------------------------------------------
# conv2d: 3x3 kernels, stride 1, zero padding 1, "same" output size


def _im2col3(x: np.ndarray) -> np.ndarray:
    """(c, h, w) -> (c*9, h*w) patch matrix for a 3x3/pad-1 window."""
    c, h, w = x.shape
    xp = np.zeros((c, h + 2, w + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((c, 9, h, w), dtype=x.dtype)
    k = 0
    for ki in range(3):
        for kj in range(3):
            cols[:, k] = xp[:, ki:ki + h, kj:kj + w]
            k += 1
    return cols.reshape(c * 9, h * w)


def _col2im3(cols: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _im2col3: scatter-add patch columns back to an image."""
    xp = np.zeros((c, h + 2, w + 2), dtype=cols.dtype)
    cols = cols.reshape(c, 9, h, w)
    k = 0
    for ki in range(3):
        for kj in range(3):
            xp[:, ki:ki + h, kj:kj + w] += cols[:, k]
            k += 1
    return xp[:, 1:-1, 1:-1]


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate (c_in,h,w) with (c_out,c_in,3,3) weights, zero pad 1.

    Output spatial size equals input size, so the denoiser stays an
    endomorphism of d x N blocks.
    """
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise UnsupportedKernelError(
            f"conv2d: kernel must be 3x3, got {weight.shape}")
    if x.ndim != 3 or x.shape[0] != weight.shape[1]:
        raise DimensionError(
            f"conv2d: input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"conv2d: bias {bias.shape} incompatible with weight {weight.shape}")
    c_out = weight.shape[0]
    _, h, w = x.shape
    cols = _im2col3(x)
    out = weight.reshape(c_out, -1) @ cols + bias[:, None]
    return out.reshape(c_out, h, w)


def conv2d_transpose(weight: np.ndarray, cot: np.ndarray) -> np.ndarray:
    """Input cotangent of conv2d alone: col2im(W^T @ cot).

    Needs neither the input nor its patch matrix, so a caller that only
    propagates cotangents pays one GEMM and one scatter per layer.
    """
    c_out, c_in = weight.shape[:2]
    _, h, w = cot.shape
    cot_cols = weight.reshape(c_out, -1).T @ cot.reshape(c_out, h * w)
    return _col2im3(cot_cols, c_in, h, w)


def conv2d_vjp(x, weight, cot):
    """Cotangents w.r.t. (x, weight, bias)."""
    c_out, c_in = weight.shape[:2]
    _, h, w = x.shape
    cot_mat = cot.reshape(c_out, h * w)
    cols = _im2col3(x)
    cot_weight = (cot_mat @ cols.T).reshape(c_out, c_in, 3, 3)
    cot_bias = cot_mat.sum(axis=1)
    return conv2d_transpose(weight, cot), cot_weight, cot_bias


# ---------------------------------------------------------------------------
# elementwise


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(x) * max(|x| - tau, 0)."""
    if tau <= 0:
        raise ValueError(f"soft_threshold: tau must be positive, got {tau}")
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def soft_threshold_vjp(x, tau, cot):
    """Cotangents w.r.t. (x, tau); subgradient 0 on the |x| = tau boundary."""
    mask = np.abs(x) > tau
    cot_x = cot * mask
    cot_tau = float(-(np.sign(x) * mask * cot).sum())
    return cot_x, cot_tau


# ---------------------------------------------------------------------------
# SPD solve


def chol_factor(a: np.ndarray, sym_tol: float = 1e-10):
    """Cholesky-factor a symmetric positive definite matrix.

    The returned handle is reusable across ``scipy.linalg.cho_solve``
    calls, so callers that solve against the same matrix factor once.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"chol_factor: matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=sym_tol * max(1.0, np.abs(a).max())):
        raise FactorizationError("matrix is not symmetric")
    try:
        return _sla.cho_factor(a, lower=True)
    except _sla.LinAlgError as exc:  # extract the failing leading minor
        m = re.search(r"(\d+)-th leading minor", str(exc))
        pivot = int(m.group(1)) if m else None
        raise FactorizationError(str(exc), pivot=pivot) from exc
