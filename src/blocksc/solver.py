"""Half-quadratic-splitting iteration maps over signal blocks.

The full scheme alternates a linear solve for the code matrix G, a
soft-threshold for the sparsity split V, and a denoiser call for the
structure split Z.  Substituting V and Z into the G-update collapses the
sweep into a single map

    G+ = ((1+b) D^T D + I)^-1 (D^T Y + b soft(G, mu/b) + b D^T N(D G))

which the equilibrium engine solves to its fixed point and the unrolled
engine applies K times; only the tests run the three-split sweep, as the
oracle for this map.  The fast variant restricts D to a shared support
chosen by OMP on the block centroid and drops the soft-threshold branch:

    Gs+ = ((1+b) Ds^T Ds + eps I)^-1 (Ds^T Y + b Ds^T N(Ds Gs))

(the eps ridge guards the identity-free matrix of the restricted scheme).
``make_context`` builds one block's context: it factors the map's matrix
A, then keeps A^-1, P = A^-1 D^T and c0 = P Y (D_S on the fast map), so
the map is G+ = c0 + b P N(D G) [+ b A^-1 soft(G)], GEMMs only; its
``support`` selects the map, None for the full one.  ``iteration_map``
applies either map, taking the network output when the caller has it:
N(D 0) = N(0) is the same for every block, so the solves of a cube's
blocks from G = 0 share one call.  ``map_vjp`` gives the cotangents of
one application w.r.t. all learnable parameters and, for a caller that
reads it, the input codes; ``linearize_map`` runs the forward once at a
point for repeated transposed products, with the network's parameter
cotangents or without.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserLinearization, ModelParams, add_grad, denoise, \
    denoise_linearize, denoise_vjp
from .dictionary import Dictionary, SupportSet, omp
from .tensor import chol_factor, soft_threshold, soft_threshold_vjp
from scipy.linalg import cho_solve

FAST_RIDGE = 1e-8


class StaleContextError(RuntimeError):
    """The context factorization no longer matches the realized b."""


@dataclass
class SolverContext:
    """Immutable per-block solve context: the map's matrix A, folded.

    It keeps A^-1, P = A^-1 D^T and c0 = P Y, all computed once at
    construction, so the maps take only the codes and apply no solve.
    ``support`` selects the map: None is the full map on every atom, a
    SupportSet the fast map on D_S.
    """

    D: np.ndarray
    b: float
    Ainv: np.ndarray
    P: np.ndarray
    c0: np.ndarray
    support: SupportSet | None = None

    @property
    def mode(self) -> str:
        return "full" if self.support is None else "fast"

    def check(self, params: ModelParams) -> None:
        if params.scalars.b != self.b:
            raise StaleContextError(
                f"context was factorized for b={self.b}, params have "
                f"b={params.scalars.b}; rebuild the context")


def make_context(D: Dictionary, params: ModelParams, Y: np.ndarray,
                 support: SupportSet | None = None) -> SolverContext:
    """Invert the map's matrix for block Y: full map, or fast on support."""
    atoms, ridge = D.atoms, 1.0
    if support is not None:
        if support.size > atoms.shape[0]:
            raise ValueError(f"fast solver needs |S| <= d, got "
                             f"{support.size} > {atoms.shape[0]}")
        atoms, ridge = atoms[:, support.indices], FAST_RIDGE
    b = params.scalars.b
    eye = np.eye(atoms.shape[1])
    A = (1.0 + b) * (atoms.T @ atoms) + ridge * eye
    Ainv = cho_solve(chol_factor(A), eye)
    P = Ainv @ atoms.T
    return SolverContext(atoms, b, Ainv, P, P @ Y, support)


# ---------------------------------------------------------------------------
# forward maps


def iteration_map(ctx: SolverContext, G: np.ndarray, params: ModelParams,
                  net_out: np.ndarray | None = None) -> np.ndarray:
    """One map application; exactly one denoiser call, or none when the
    caller passes ``net_out``, the network's output N(D G) at this G.

    At G = 0 that is N(0), which depends only on the weights and the block
    shape, so ``pipeline`` computes it once per cube and the trainers once
    per optimizer step; the rest of the map, the full map's b A^-1 soft(0)
    included, runs as for any G.  The fast map has no shrinkage branch: its
    sparsity is structural.  The map's one fresh product P N is scaled and
    summed in place, in the order c0 + b P N [+ b A^-1 soft(G)].
    """
    ctx.check(params)
    b = ctx.b
    if net_out is None:
        net_out = denoise(params.denoiser, ctx.D @ G)
    out = ctx.P @ net_out
    out *= b
    out += ctx.c0
    if ctx.mode == "full":
        shrink = ctx.Ainv @ soft_threshold(G, params.scalars.mu / b)
        shrink *= b
        out += shrink
    return out


# ---------------------------------------------------------------------------
# linearization and map VJP


@dataclass
class MapLinearization:
    """The map linearized at codes G: the shrinkage mask |G| > mu/b (full
    mode only) and the denoiser linearization at T = D G; no weights.

    Calling it with a network ``net`` gives the code cotangent alone, on
    ``net``'s weights; with W = A^-1 cot (formed on the full map only) and
    D W = P^T cot, J^T cot = D^T N'(T)^T (b D W) [+ b W on the mask].
    """

    ctx: SolverContext
    mask: np.ndarray | None
    den: DenoiserLinearization

    def __call__(self, net: ModelParams, cot: np.ndarray) -> np.ndarray:
        return self.transpose(net, cot, self.ctx.P.T @ cot, None)

    def transpose(self, net: ModelParams, cot: np.ndarray, DW: np.ndarray,
                  grads: dict | None, code_cot: bool = True
                  ) -> np.ndarray | None:
        """J^T cot from ``DW`` = P^T cot, scaled by b in place; given
        ``grads``, ``denoise_vjp`` adds the network's cotangents into it,
        and with ``code_cot`` False it stops there and returns None."""
        ctx = self.ctx
        DW *= ctx.b
        if grads is None:
            cot_T = self.den.transpose(net.denoiser, DW)
        else:
            cot_T = denoise_vjp(net.denoiser, self.den, DW, grads, code_cot)[0]
        if not code_cot:
            return None
        cot_G = ctx.D.T @ cot_T
        if self.mask is None:
            return cot_G
        out = ctx.Ainv @ cot  # (b W) * mask + cot_G, in place
        out *= ctx.b
        out *= self.mask
        out += cot_G
        return out


def linearize_map(ctx: SolverContext, G: np.ndarray,
                  params: ModelParams) -> MapLinearization:
    """Run the map's forward at G once, for repeated transposed products."""
    ctx.check(params)
    mask = (np.abs(G) > params.scalars.mu / ctx.b
            if ctx.mode == "full" else None)
    return MapLinearization(ctx, mask,
                            denoise_linearize(params.denoiser, ctx.D @ G))


def map_vjp(ctx: SolverContext, G: np.ndarray, params: ModelParams,
            cot: np.ndarray, lin: MapLinearization | None = None,
            grads: dict | None = None, code_cot: bool = True):
    """Cotangents of one map application at G.

    Returns (cot_G, grads) where grads carries the denoiser entries plus
    scalars.raw_b / scalars.raw_mu in ``ModelParams.as_dict`` order, chained
    through softplus (the fast map has no mu dependence), each added as
    formed into ``grads``, float64 sums, when given (``add_grad``).  Pass
    ``lin``, the ``linearize_map`` at the same G, to reuse its forward (it
    holds activations only).  The VJP runs on ``params``, checks ``ctx``
    against it and forms cot_G by ``lin.transpose``, the DEQ adjoint's
    product.  Its scalar cotangents (G_next, b A^-1 S and tau's formed in
    place as in ``iteration_map``) and G die before the network VJP.  With
    ``code_cot`` False, for a caller that reads ``grads`` alone, cot_G is
    None: the sweep stops at the first layer's weight cotangent, and its
    transposed conv, D^T cot_T and the mask term are not formed.
    """
    ctx.check(params)
    if lin is None:
        lin = linearize_map(ctx, G, params)
    if grads is None:
        grads = dict.fromkeys(params.as_dict())
    b, mu, nout = ctx.b, params.scalars.mu, lin.den.out
    DW = ctx.P.T @ cot  # D A^-1 cot, A being symmetric
    # b enters the matrix (1+b) D^T D [+ I] and every rhs term
    G_next = ctx.P @ nout
    G_next *= b
    G_next += ctx.c0
    cot_b_rhs = float((DW * nout).sum())
    cot_b_tau = cot_mu = 0.0
    if ctx.mode == "full":  # the shrinkage branch, tau = mu / b
        S = soft_threshold(G, mu / b)
        W = ctx.Ainv @ S  # b A^-1 S, then A^-1 cot in its buffer
        W *= b
        G_next += W
        np.matmul(ctx.Ainv, cot, out=W)
        cot_b_rhs = float(np.multiply(S, W, out=S).sum()) + cot_b_rhs
        del S
        W *= b  # b W, masked in place: only tau's cotangent is read
        cot_tau = soft_threshold_vjp(G, mu / b, W, out=W)[1]
        cot_b_tau = cot_tau * (-mu / (b * b))
        cot_mu = cot_tau / b
        del W
    cot_b = -float((DW * (ctx.D @ G_next)).sum()) + cot_b_rhs + cot_b_tau
    del G, G_next, nout
    cot_G = lin.transpose(params, cot, DW, grads, code_cot)

    chain_b, chain_mu = params.scalars.grad_chain()
    add_grad(grads, "scalars.raw_b", np.float64(cot_b * chain_b))
    add_grad(grads, "scalars.raw_mu", np.float64(cot_mu * chain_mu))
    return cot_G, grads


# ---------------------------------------------------------------------------
# support selection and reconstruction


def select_support(Y, D: Dictionary, s: int) -> SupportSet:
    """OMP support of the block centroid (column mean) spectrum."""
    return omp(np.asarray(Y, float).mean(axis=1), D, s)[0]


def reconstruct(ctx: SolverContext, G: np.ndarray) -> np.ndarray:
    """Estimated clean block D G (or D_S G_S on the fast path)."""
    return ctx.D @ G


def initial_codes(ctx: SolverContext) -> np.ndarray:
    """The zero code every solve starts from, as a read-only zero-stride
    view (``np.broadcast_to``): it holds one float, not a code matrix."""
    return np.broadcast_to(0.0, ctx.c0.shape)


def contraction_estimate(ctx: SolverContext, params: ModelParams,
                         pairs: int = 10, seed: int = 0,
                         scale: float = 1.0) -> float:
    """Empirical Lipschitz ratio of the map over random code pairs."""
    rng = np.random.default_rng(seed)
    shape = ctx.c0.shape
    worst = 0.0
    for _ in range(pairs):
        G1 = scale * rng.normal(size=shape)
        G2 = scale * rng.normal(size=shape)
        num = np.linalg.norm(iteration_map(ctx, G1, params)
                             - iteration_map(ctx, G2, params))
        den = np.linalg.norm(G1 - G2)
        worst = max(worst, num / max(den, 1e-30))
    return worst
