"""Dense tensor ops and the hand-written VJPs the iteration map needs.

Arrays are plain numpy arrays, and every op keeps its input's dtype
(which pass runs in which precision: see ``denoiser``).  ``conv2d_vjp``,
``conv2d_transpose`` and ``soft_threshold_vjp`` give the cotangents that
the denoiser and map VJPs chain, so no general autograd graph is needed.
The conv, its transpose and its weight cotangent are GEMMs against the
patch matrix of one image on the zero-padded flat grid, where output row
i keeps w + 2 columns and the two extra ones are dropped.

A grid wider than ``STRIP_COLS`` columns whose patch matrix exceeds
``STRIP_BYTES`` runs the conv and its transpose by L2-sized strips of grid
rows, one after another on the caller's thread; each strip is a copy of
its patches and one GEMM into its own columns of the output.  Any other
grid keeps one GEMM: on 20x20 training blocks strips gained nothing, moved
float64 bits and kept the padded grid alive during the GEMM, and a
few-channel grid's whole patch matrix already fits in L2.

Each thread copies its strips' patches into one raw byte buffer of its own
(``_strip_workspace``, a ``threading.local``), kept from call to call and
shared by float32 and float64 strips, so a warm wide conv takes no fresh
pages for patches (a warm ``denoise`` cube took about 8,550 minor page
faults with a fresh copy per strip, and takes none now).  The buffer
grows to the largest strip its thread has run: at most ``STRIP_BYTES``, or
one grid row when a row is larger.  Two threads that call ``conv2d`` at
once never share a buffer.
"""

from __future__ import annotations

import re
import threading

import numpy as np
from scipy import linalg as _sla

SYM_TOL = 1e-10  # relative asymmetry chol_factor accepts
# A grid of at most this many columns (a 20x20 block has 440) keeps one GEMM.
STRIP_COLS = 512
# Patch bytes of one strip, a 576 x 496 float32 one: one BLAS thread ran a
# 576 x 440 float32 strip, which fits in L2, at 79 GFLOP/s and a 60x60
# image's 8.6 MB at 55.  A grid whose whole patch matrix is no larger keeps
# one GEMM (a 2 -> 3 channel 30x40 float64 conv ran 0.037 ms as one GEMM
# and 0.051 ms by strips).
STRIP_BYTES = 576 * 496 * 4


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class UnsupportedKernelError(ValueError):
    """conv2d and its transpose only support 3x3 kernels."""


class FactorizationError(RuntimeError):
    """Cholesky failed; ``pivot`` is the 1-based failing leading minor."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


# ---------------------------------------------------------------------------
# conv2d: 3x3 kernels, stride 1, zero padding 1, "same" output size


def _windows(x: np.ndarray) -> np.ndarray:
    """(c, h, w) -> (c, 3, 3, h*(w+2)) view of the zero-padded grid: column
    i*(w+2) + j holds the 3x3/pad-1 window at (i, j), junk for j >= w.  One
    extra zero row keeps every tap of every column in bounds."""
    c, h, w = x.shape
    xp = np.zeros((c, h + 3, w + 2), dtype=x.dtype)
    xp[:, 1:h + 1, 1:w + 1] = x
    sc, sr, s = xp.strides
    return np.ndarray((c, 3, 3, h * (w + 2)), x.dtype, xp, 0, (sc, sr, s, s))


def _patches(x: np.ndarray) -> np.ndarray:
    """The whole (9c, h*(w+2)) patch matrix: grids that keep one GEMM, where
    strips did not pay, and the weight cotangent take it."""
    return _windows(x).reshape(9 * x.shape[0], -1)


_workspace = threading.local()  # .buf: this thread's strip patch bytes


def _strip_workspace(nbytes: int) -> np.ndarray:
    """The calling thread's raw patch buffer, grown to at least ``nbytes``
    and kept for its next strip, of either dtype."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        buf = _workspace.buf = np.empty(nbytes, np.uint8)
    return buf


def _conv_gemm(wmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``wmat @ _patches(x)``; for a grid past STRIP_COLS columns and
    STRIP_BYTES of patches, by strips of whole grid rows in turn."""
    c, h, w = x.shape
    cols, row = h * (w + 2), 9 * c * (w + 2) * x.itemsize  # row: patch bytes
    if cols <= STRIP_COLS or h * row <= STRIP_BYTES:
        return wmat @ _patches(x)
    view = _windows(x)
    step = max(1, STRIP_BYTES // row) * (w + 2)
    out = np.empty((len(wmat), cols), np.result_type(wmat, x))
    buf = _strip_workspace(9 * c * step * x.itemsize)
    for a in range(0, cols, step):
        n = min(step, cols - a)
        patch = buf[:9 * c * n * x.itemsize].view(x.dtype)
        np.copyto(patch.reshape(c, 3, 3, n), view[..., a:a + n])
        np.matmul(wmat, patch.reshape(9 * c, n), out=out[:, a:a + n])
    return out


def _check_operands(op: str, weight: np.ndarray, x: np.ndarray, axis: int):
    """Raise unless ``weight`` is a (c_out, c_in, 3, 3) kernel stack and
    ``x`` a (c, h, w) image with c = ``weight.shape[axis]``."""
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise UnsupportedKernelError(
            f"{op}: kernel must be 3x3, got {weight.shape}")
    if x.ndim != 3 or x.shape[0] != weight.shape[axis]:
        raise DimensionError(
            f"{op}: input {x.shape} incompatible with weight {weight.shape}")


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate (c_in,h,w) with (c_out,c_in,3,3) weights, zero pad 1.

    Output spatial size equals input size, so the denoiser stays an
    endomorphism of d x N blocks.
    """
    _check_operands("conv2d", weight, x, 1)
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"conv2d: bias {bias.shape} incompatible with weight {weight.shape}")
    c_out = weight.shape[0]
    _, h, w = x.shape
    out = _conv_gemm(weight.reshape(c_out, -1), x)
    out += bias[:, None]
    return out.reshape(c_out, h, w + 2)[:, :, :w]


def conv2d_transpose(weight: np.ndarray, cot: np.ndarray) -> np.ndarray:
    """Input cotangent of conv2d alone: the same 3x3 kernel applied to cot
    with the flipped, channel-transposed weight.

    Needs neither the input nor its patch matrix, so a caller that only
    propagates cotangents pays one patch matrix and its GEMM per layer.
    """
    _check_operands("conv2d_transpose", weight, cot, 0)
    c_in = weight.shape[1]
    _, h, w = cot.shape
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
    return _conv_gemm(flipped, cot).reshape(c_in, h, w + 2)[:, :, :w]


def conv2d_vjp(x, cot):
    """Cotangents w.r.t. conv2d's (weight, bias) at input ``x``; x's own
    is ``conv2d_transpose``."""
    (c_in, h, w), c_out = x.shape, cot.shape[0]
    wide = np.zeros((c_out, h, w + 2), dtype=cot.dtype)  # zero junk columns
    wide[:, :, :w] = cot
    cot_weight = (wide.reshape(c_out, -1) @ _patches(x).T).reshape(
        c_out, c_in, 3, 3)
    return cot_weight, cot.reshape(c_out, h * w).sum(axis=1)


# ---------------------------------------------------------------------------
# elementwise


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(x) * max(|x| - tau, 0)."""
    if tau <= 0:
        raise ValueError(f"soft_threshold: tau must be positive, got {tau}")
    out = np.abs(x)  # a scalar for 0-d x, where in place means rebinding
    out -= tau
    out = np.maximum(out, 0.0, out=out if out.ndim else None)
    out *= np.sign(x)
    return out


def soft_threshold_vjp(x, tau, cot, out=None):
    """Cotangents w.r.t. (x, tau); subgradient 0 on the |x| = tau boundary.
    x's goes into ``out`` when given, which may be ``cot`` itself."""
    cot_x = np.multiply(cot, np.abs(x) > tau, out=out)
    terms = np.sign(x)
    terms *= cot_x  # sign(x) * mask * cot, exact in any order
    return cot_x, float(-terms.sum())


# ---------------------------------------------------------------------------
# SPD solve


def chol_factor(a: np.ndarray):
    """Cholesky-factor a symmetric positive definite matrix.

    The returned handle is reusable across ``scipy.linalg.cho_solve``
    calls, so callers that solve against the same matrix factor once.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"chol_factor: matrix must be square, got {a.shape}")
    scale = max(1.0, np.abs(a).max(initial=0.0))  # 0 x 0: an empty support
    if not np.allclose(a, a.T, atol=SYM_TOL * scale):
        raise FactorizationError("matrix is not symmetric")
    try:
        return _sla.cho_factor(a, lower=True)
    except _sla.LinAlgError as exc:  # extract the failing leading minor
        m = re.search(r"(\d+)-th leading minor", str(exc))
        pivot = int(m.group(1)) if m else None
        raise FactorizationError(str(exc), pivot=pivot) from exc
