"""Learnable convolutional regularizer with spectral normalization.

A 4-layer CNN (channel plan d -> hidden -> hidden -> hidden -> d, 3x3
kernels, ReLU after the first three layers, linear output) that maps a
d x N signal block, viewed as an n x n image with d channels, back to a
d x N block.  ``spectral_normalize`` caps the largest singular value of
each layer's unfolded (c_out, 9 c_in) weight matrix at 1, which does not
bound the conv: operator norms measured 1.39-1.72 per layer, so the
network is not non-expansive.  The positive penalty scalars of the
splitting scheme live here too, kept positive by softplus.

Which pass runs in which precision.  Every network pass runs in its
weights' dtype and returns its inputs' dtype.  ``shared_network`` makes
the float32 copy of a weight state: a cube's blocks share one, and so do
each optimizer step's, for DU's forward trace and backward and DEQ's
forward solve, linearization at g* and adjoint products; the map's GEMMs,
Anderson, the Cholesky solve, the gradient sums and Adam stay float64.
Only DEQ's parameter VJP keeps the float64 weights, at the float32
linearization's layer inputs and masks (a linearization holds no weights;
each reverse sweep takes them): in float32 its input-cotangent chain
moved a near-zero trained weight by 2.6e-6 relative, past the rtol 1e-6
that DEQ training is held to.  Pretraining runs float64; the engines
validate on the served float32 path.  Float32 rounding (about 6e-8) sits
far below either DEQ solve's tol (by default 1e-4 forward, 1e-3 for the
training adjoint).

``grad_chain`` computes the logistic with ``math``: importing
``scipy.special`` for ``expit`` cost every process about 0.4 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import conv2d, conv2d_transpose, conv2d_vjp, relu


def softplus(x):
    return float(np.logaddexp(0.0, x))


def _logistic(x) -> float:
    """1 / (1 + e^-x), bit-equal to ``scipy.special.expit`` (np.exp is not)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # x below about -709.78
        return 0.0


def inv_softplus(y: float) -> float:
    if y <= 0:
        raise ValueError("softplus output is strictly positive")
    return y + math.log1p(-math.exp(-y))


@dataclass
class ScalarParams:
    """Unconstrained penalty parameters; realized values are softplus(raw)."""

    raw_b: np.ndarray
    raw_mu: np.ndarray

    def __post_init__(self):
        self.raw_b = np.asarray(self.raw_b, dtype=np.float64).reshape(())
        self.raw_mu = np.asarray(self.raw_mu, dtype=np.float64).reshape(())

    @classmethod
    def from_values(cls, b: float, mu: float) -> "ScalarParams":
        return cls(np.float64(inv_softplus(b)), np.float64(inv_softplus(mu)))

    @property
    def b(self) -> float:
        return softplus(self.raw_b)

    @property
    def mu(self) -> float:
        return softplus(self.raw_mu)

    def grad_chain(self):
        """d(realized)/d(raw) factors for (b, mu)."""
        return _logistic(self.raw_b), _logistic(self.raw_mu)


@dataclass
class DenoiserParams:
    weights: list  # 4 arrays (c_out, c_in, 3, 3)
    biases: list   # 4 arrays (c_out,)
    u: list        # power-iteration left vectors, one per layer
    v: list        # power-iteration right vectors, one per layer

    def copy(self) -> "DenoiserParams":
        return DenoiserParams([w.copy() for w in self.weights],
                              [b.copy() for b in self.biases],
                              [u.copy() for u in self.u],
                              [v.copy() for v in self.v])


@dataclass
class ModelParams:
    """Everything the iteration map learns: CNN weights plus (b, mu)."""

    denoiser: DenoiserParams
    scalars: ScalarParams

    def as_dict(self) -> dict:
        """Live name -> array views, matching the checkpoint entry names."""
        out = {}
        for i, (w, b) in enumerate(zip(self.denoiser.weights,
                                       self.denoiser.biases), start=1):
            out[f"denoiser.layer{i}.weight"] = w
            out[f"denoiser.layer{i}.bias"] = b
        out["scalars.raw_b"] = self.scalars.raw_b
        out["scalars.raw_mu"] = self.scalars.raw_mu
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.denoiser.copy(),
                           ScalarParams(self.scalars.raw_b.copy(),
                                        self.scalars.raw_mu.copy()))


def float32_params(params: ModelParams) -> ModelParams:
    """Copy with float32 denoiser weights and biases, sharing u, v, scalars."""
    den = params.denoiser
    return ModelParams(DenoiserParams(
        [w.astype(np.float32) for w in den.weights],
        [b.astype(np.float32) for b in den.biases], den.u, den.v),
        params.scalars)


def shared_network(params: ModelParams, shape) -> tuple:
    """(``float32_params(params)``, its output N(0) on an all-zero ``shape``
    block), for every block solved at these weights: each solve's first map
    step runs the network on D 0 = 0, so sharing N(0) is bit-identical."""
    net = float32_params(params)
    dtype = net.denoiser.weights[0].dtype
    return net, denoise(net.denoiser, np.zeros(shape, dtype))


def channel_plan(d: int, hidden: int = 64):
    return [(hidden, d), (hidden, hidden), (hidden, hidden), (d, hidden)]


def init_denoiser(d: int, hidden: int = 64, seed: int = 0) -> DenoiserParams:
    """Fan-in-scaled uniform weights, zero biases, random power vectors."""
    rng = np.random.default_rng(seed)
    weights, biases, us, vs = [], [], [], []
    for c_out, c_in in channel_plan(d, hidden):
        bound = math.sqrt(6.0 / (c_in * 9))
        weights.append(rng.uniform(-bound, bound, size=(c_out, c_in, 3, 3)))
        biases.append(np.zeros(c_out))
        u = rng.normal(size=c_out)
        us.append(u / np.linalg.norm(u))
        v = rng.normal(size=c_in * 9)
        vs.append(v / np.linalg.norm(v))
    return DenoiserParams(weights, biases, us, vs)


def _as_image(block: np.ndarray) -> np.ndarray:
    """View a d x N block as a (d, n, n) image, n = sqrt(N)."""
    d, N = block.shape
    side = math.isqrt(N)
    if side * side != N:
        raise ValueError(f"block has N={N} columns, not a perfect square")
    return block.reshape(d, side, side)


def denoise(params: DenoiserParams, block: np.ndarray) -> np.ndarray:
    """Apply the regularizer network to a d x N block.

    The network runs in the dtype of its weights; the output comes back
    in the block's dtype (both casts are no-ops for float64 weights).
    """
    shape, dtype = block.shape, block.dtype
    h = _as_image(block).astype(params.weights[0].dtype, copy=False)
    del block  # a float64 block is dead once its float32 copy exists
    for i in range(3):
        h = relu(conv2d(h, params.weights[i], params.biases[i]))
    out = conv2d(h, params.weights[3], params.biases[3])
    return out.reshape(shape).astype(dtype, copy=False)


@dataclass
class DenoiserLinearization:
    """The network linearized at one block, for reverse sweeps.

    Keeps activations only: the four layer inputs as (c_in, n, n) images
    and the d x N output, no weights or patch matrices, all in the dtype
    of the network that made them (``out`` too: a float32 network's output
    is not cast up to hold twice its bytes; float64 algebra that reads it
    promotes it, exactly).  Layer i's ReLU mask is ``inputs[i + 1] > 0``:
    relu(h) > 0 exactly where h > 0, NaN and -0.0 included.
    """

    inputs: list
    out: np.ndarray

    def transpose(self, params: DenoiserParams, cot: np.ndarray,
                  grads: dict | None = None,
                  block_cot: bool = True) -> np.ndarray | None:
        """Block cotangent J^T cot; given ``grads``, each parameter's too.

        Runs in the dtype of ``params``' weights, at this linearization's
        masks, and returns the cotangent's dtype, as ``denoise`` does.
        With ``block_cot`` False the sweep stops after the first layer's
        weight cotangent, whose transposed conv only the block cotangent
        reads, and returns None.
        """
        c = cot.reshape(self.inputs[0].shape).astype(params.weights[0].dtype,
                                                     copy=False)
        for i in reversed(range(4)):
            if i < 3:
                c = c * (self.inputs[i + 1] > 0.0)
            if grads is not None:
                cw, cb = conv2d_vjp(
                    self.inputs[i].astype(c.dtype, copy=False), c)
                add_grad(grads, f"denoiser.layer{i + 1}.weight", cw)
                add_grad(grads, f"denoiser.layer{i + 1}.bias", cb)
                del cw, cb  # added, and dropped, before the transposed conv
            if i == 0 and not block_cot:
                return None
            c = conv2d_transpose(params.weights[i], c)
        return c.reshape(cot.shape).astype(cot.dtype, copy=False)


def add_grad(grads: dict, key: str, g) -> None:
    """Add ``g`` into the float64 sum ``grads[key]``, in place; the key's
    first writer stores ``g`` cast, so the sum is bit for bit cast-then-add."""
    if grads.get(key) is None:
        grads[key] = g.astype(np.float64, copy=False)
    else:
        grads[key] += g


def denoise_linearize(params: DenoiserParams,
                      block: np.ndarray) -> DenoiserLinearization:
    """Run ``denoise`` once, keeping the activations reverse sweeps reuse;
    ``out`` stays in the weights' dtype, where ``denoise`` casts back."""
    h = _as_image(block).astype(params.weights[0].dtype, copy=False)
    inputs = []
    for i in range(4):
        inputs.append(h)
        h = conv2d(h, params.weights[i], params.biases[i])
        if i < 3:
            h = relu(h)
    return DenoiserLinearization(inputs, h.reshape(block.shape))


def denoise_vjp(params: DenoiserParams, lin: DenoiserLinearization,
                cot: np.ndarray, grads: dict | None = None,
                block_cot: bool = True):
    """Reverse-mode of ``denoise``: returns (cot_block, grads).

    ``lin``, the ``denoise_linearize`` of the block, holds activations
    only; ``lin.transpose`` runs the sweep on ``params``' weights and adds
    each parameter cotangent into ``grads`` (a new dict for None).  With
    ``block_cot`` False, cot_block is None and its last transposed conv
    is not run.
    The spectral-normalization constant is treated as a constant here;
    gradients are w.r.t. the stored (already normalized) weights.
    """
    if grads is None:
        grads = dict.fromkeys(f"denoiser.layer{i}.{kind}" for i in range(1, 5)
                              for kind in ("weight", "bias"))
    return lin.transpose(params, cot, grads, block_cot), grads


def estimated_spectral_norms(params: DenoiserParams) -> list:
    """Per-layer sigma estimates from the persisted power vectors."""
    out = []
    for w, u, v in zip(params.weights, params.u, params.v):
        wm = w.reshape(w.shape[0], -1)
        out.append(float(u @ (wm @ v)))
    return out


def spectral_normalize(params: DenoiserParams, iters: int = 1) -> DenoiserParams:
    """One power-iteration step per layer, then divide by max(1, sigma).

    Mutates the weights and the persisted (u, v) vectors in place and
    returns the same object.  Layers already inside the unit ball are
    left untouched.
    """
    for w, u, v in zip(params.weights, params.u, params.v):
        wm = w.reshape(w.shape[0], -1)
        for _ in range(iters):
            v_new = wm.T @ u
            nrm = np.linalg.norm(v_new)
            if nrm == 0.0:
                break
            v[:] = v_new / nrm
            u_new = wm @ v
            nrm = np.linalg.norm(u_new)
            if nrm == 0.0:
                break
            u[:] = u_new / nrm
        sigma = float(u @ (wm @ v))
        if sigma > 1.0:
            w /= sigma
    return params
