"""Fixed overcomplete dictionaries and classic sparse-coding baselines.

Provides greedy OMP (single and Gram-precomputed batch form) and KSVD
dictionary learning.  Besides serving as a comparison method, OMP picks the
shared support for the fast solver path.  ``omp`` stops early once the
residual norm drops to ``OMP_EPS``; ``batch_omp`` once yᵀy − bᵀg, the
squared residual norm by the normal equations, drops to ``OMP_EPS``²: a
difference that cancels to rounding level once the picked atoms fit the
column, so there the stop is down to rounding.

``batch_omp`` runs step by step over chunks of ``CHUNK`` columns.  In each
chunk, step k = 1..s

1. picks the next atom of every live column (yᵀy − bᵀg > ``OMP_EPS``²) with
   one ``argmax(axis=1)`` over a (CHUNK, M) row buffer of |α|, picked atoms
   masked to −1, below any |α| (``argmax(axis=0)`` on an (M, n) array would
   copy it);
2. gathers the k × k Gram sub-blocks D_Sᵀ D_S and b = (Dᵀy)_S of the live
   columns at once, as stacked fancy indexes;
3. solves D_Sᵀ D_S g = b by Cholesky, then forms α = Dᵀy − Dᵀ D_S g and
   yᵀy − b·g, except at k = s, whose α nobody reads.

At k = 1 all of step 3 is vectorized: one ``dpotrf`` per distinct atom, one
``dpotrs`` with that atom's columns as its right-hand sides, α as one
elementwise product over the chunk and yᵀy − b·g elementwise.  At k ≥ 2
each column keeps its own ``dpotrf``/``dpotrs`` on the same operands and its
own ``gram[:, S] @ g`` gemv, as a per-column loop makes them; its b·g is
the same ``ddot``, made per column by one stacked ``matmul``.  A stacked
Cholesky, or a gemm for the gemv, rounds differently, and at the stop above
(a FOUND in CHANGES.md) rounding alone changes which atoms a column of
KSVD's initial atoms picks.  So the codes stay bit-identical to a
per-column loop, and KSVD's pinned ``coding_error`` with them; a
deterministic stop would free this, but it moves the pins.

Each chunk forms its own Dᵀy rows as Y[:, chunk]ᵀ D, so no (M, N) Dᵀ Y
is held.  With OpenBLAS these are bit for bit the rows of the whole
product, except that for N in the thousands the whole product's last
N mod 8 columns come from an edge kernel that rounds apart; at N = 1600
and 2000 (``tools/compare_outputs.py``'s and the benchmark's) every row
matches.

Memory above entry, for d ≤ M: the codes, DᵀD and yᵀy, plus the chunk's
Dᵀy rows and |α| buffer (CHUNK × M floats each), its per-step gathers and
numpy's iteration buffers, which ``batch_omp`` caps at ``UFUNC_BUFFER``
elements (numpy would size them like the chunk).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

OMP_EPS = 1e-10
CHUNK = 24  # columns per batch-OMP chunk: a 12 KB |α| buffer at M = 64
UFUNC_BUFFER = 64  # elements per numpy iteration buffer inside batch_omp


class RankError(RuntimeError):
    """Selected Gram submatrix became singular at ``step``."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class Dictionary:
    atoms: np.ndarray  # (d, M), unit-norm columns

    def __post_init__(self):
        self.atoms = np.ascontiguousarray(self.atoms, dtype=np.float64)
        if self.atoms.ndim != 2:
            raise ValueError("atoms must be a d x M matrix")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("dictionary atoms contain non-finite entries")
        norms = np.linalg.norm(self.atoms, axis=0)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("dictionary columns must have unit norm")
        if self.d > self.M:
            warnings.warn(f"dictionary is undercomplete (d={self.d} > M={self.M})")

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def M(self) -> int:
        return self.atoms.shape[1]


@dataclass
class SupportSet:
    indices: np.ndarray  # strictly increasing atom indices

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        if idx.ndim != 1 or (len(idx) > 1 and np.any(np.diff(idx) <= 0)):
            raise ValueError("support indices must be strictly increasing")
        self.indices = idx

    @property
    def size(self) -> int:
        return len(self.indices)


def normalize_atoms(atoms: np.ndarray) -> np.ndarray:
    return atoms / np.maximum(np.linalg.norm(atoms, axis=0), 1e-300)


def decorrelate_atoms(atoms: np.ndarray, target: float = 0.3,
                      iters: int = 60) -> np.ndarray:
    """Push mutual coherence towards ``target`` by alternating projections.

    Clips Gram off-diagonals to the target band, projects back to rank d,
    and renormalizes; useful for generating incoherent test dictionaries.
    """
    d, M = atoms.shape
    A = normalize_atoms(np.asarray(atoms, dtype=np.float64))
    for _ in range(iters):
        gram = A.T @ A
        off = gram - np.diag(np.diag(gram))
        gram = np.clip(off, -target, target) + np.eye(M)
        w, V = np.linalg.eigh(gram)
        w = np.clip(w, 0.0, None)
        keep = np.argsort(w)[-d:]
        A = normalize_atoms((V[:, keep] * np.sqrt(w[keep])).T)
    return A


def omp(y: np.ndarray, D: Dictionary, s: int):
    """Greedy orthogonal matching pursuit on a single signal.

    Picks argmax |<residual, atom>| (lowest index on ties), refits by
    least squares on the current support, and stops at s atoms or when
    the residual norm drops to OMP_EPS.  Returns (SupportSet, coeffs) with
    coefficients aligned to the sorted support.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    _check_sparsity(D, s)
    residual = y.copy()
    selected: list[int] = []
    coeffs = np.zeros(0)
    for step in range(s):
        if np.linalg.norm(residual) <= OMP_EPS:
            break
        corr = np.abs(D.atoms.T @ residual)
        corr[selected] = -np.inf
        selected.append(int(np.argmax(corr)))
        sub = D.atoms[:, selected]
        coeffs, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(selected):
            raise RankError(f"rank-deficient support at step {step}", step=step)
        residual = y - sub @ coeffs
    order = np.argsort(selected)
    support = SupportSet(np.asarray(selected, dtype=np.intp)[order])
    return support, coeffs[order] if len(selected) else coeffs


def batch_omp(Y: np.ndarray, D: Dictionary, s: int):
    """Columnwise OMP sharing precomputed D^T D and D^T Y.

    Returns the (M, N) code matrix of the N columns of ``Y``: column j holds
    the coefficients on the atoms OMP picked for it and zeros elsewhere.
    Runs step by step over chunks of ``CHUNK`` columns in the order the
    module docstring gives, calling LAPACK ``dpotrf``/``dpotrs`` (the
    routines behind ``cho_factor``/``cho_solve``), and the codes are
    bit-identical to a per-column ``cho_factor``/``cho_solve`` loop on the
    same D^T y (see the module docstring for its per-chunk rows).  They
    match the looped ``omp`` to well below 1e-10 on generic data.  For
    d ≤ M the peak above entry is the codes, D^T D and yᵀy plus the
    chunk's D^T y rows and |α| buffer, each (CHUNK, M), and a few KB.
    """
    Y = np.asarray(Y, dtype=np.float64)
    _check_sparsity(D, s)
    if not np.all(np.isfinite(Y)):
        raise ValueError("signals contain non-finite entries")
    gram = D.atoms.T @ D.atoms
    yty = (Y * Y).sum(axis=0)
    N = Y.shape[1]
    codes = np.zeros((D.M, N))
    # numpy runs a 1-column product as a gemv, which rounds apart from the
    # whole product's gemm, so a 1-column tail joins the chunk before it
    last = N - 1 if N > CHUNK and N % CHUNK == 1 else N
    with np.errstate():  # restores numpy's ufunc buffer size on exit
        np.setbufsize(UFUNC_BUFFER)
        for j0 in range(0, last, CHUNK):
            # row j of Y[:, cols].T @ D is D^T y_j
            cols = slice(j0, j0 + CHUNK if j0 + CHUNK < last else N)
            _omp_chunk(gram, Y[:, cols].T @ D.atoms, yty[cols], s,
                       codes[:, cols], j0)
    return codes


def _omp_chunk(gram, alpha0, yty, s, codes, j0):
    """Batch-OMP on one chunk: ``alpha0`` holds its columns' D^T y as rows,
    and ``codes`` takes their codes; ``j0`` is its first column."""
    w = len(yty)
    S = np.full((w, s), -1)  # each column's picks in order, -1 for none
    G = np.zeros((w, s))     # and its latest solve
    err2 = yty.copy()
    # |α| rows; picks are masked to -1, not -inf, because gemv writes rows
    # with beta = 0, which a BLAS may apply as a scaling (0 * inf is NaN)
    a = np.abs(alpha0)
    for step in range(s):
        live = (err2 > OMP_EPS * OMP_EPS).nonzero()[0]
        if not live.size:
            break
        pick = a.argmax(axis=1)
        S[live, step] = pick[live]
        more = step + 1 < s  # the last step's residual is never read
        if step == 0 or not more:
            del a  # the first step rebuilds it from gram; the last needs none
        if step == 0:  # one factor per atom, its columns as right-hand sides
            if more:
                a = gram.T[pick]  # the picked columns of gram, as rows
            rows = S[:, 0].argsort()[w - len(live):]  # grouped by atom
            first = S[rows, 0].tolist()
            b = alpha0[rows, first]
            g = b[None].copy()  # solved in place, one atom's columns a call
            cuts = [0, *(k for k in range(1, len(first))
                         if first[k] != first[k - 1]), len(first)]
            for lo, hi in zip(cuts, cuts[1:]):
                i = first[lo]
                c, info = dpotrf(gram[i:i + 1, i:i + 1], lower=1, clean=0)
                if info > 0:
                    j = j0 + rows[lo:hi].min()
                    raise RankError(f"singular Gram submatrix at step 0 "
                                    f"(column {j})", step=0)
                dpotrs(c, g[:, lo:hi], lower=1, overwrite_b=1)
            G[rows, 0] = g[0]
            if more:
                err2[rows] = yty[rows] - b * g[0]
                a *= G[:, :1]  # gram[:, i] g, the α update's one product
        else:
            sel = S[live, :step + 1]
            subs = gram.take(sel[:, :, None] * len(gram) + sel[:, None, :])
            bs = alpha0[live[:, None], sel]
            gs = bs.copy()  # row q solved in place for live[q]
            for r, sub, g, idx in zip(live.tolist(), subs, gs, sel):
                c, info = dpotrf(sub, lower=1, clean=0)
                if info > 0:
                    raise RankError(f"singular Gram submatrix at step {step} "
                                    f"(column {j0 + r})", step=step)
                dpotrs(c, g, lower=1, overwrite_b=1)
                if more:  # the per-column loop's gemv, written into a[r]
                    np.matmul(gram[:, idx], g, out=a[r])
            G[live, :step + 1] = gs
            if more:
                dots = np.matmul(bs[:, None], gs[:, :, None])  # one ddot each
                err2[live] = yty[live] - dots.ravel()
        if more:
            np.subtract(alpha0, a, out=a)
            np.abs(a, out=a)
            a[live[:, None], S[live, :step + 1]] = -1.0
    rows, ks = (S >= 0).nonzero()
    codes[S[rows, ks], rows] = G[rows, ks]


def _check_sparsity(D, s):
    if not (1 <= s <= min(D.d, D.M)):
        raise ValueError(f"sparsity s must satisfy 1 <= s <= min(d, M) = "
                         f"min({D.d}, {D.M}), got {s}")


def coding_error(X, atoms, codes) -> float:
    """Mean residual norm of the given coding."""
    resid = X - atoms @ codes
    return float(np.mean(np.linalg.norm(resid, axis=0)))


def ksvd(training: np.ndarray, M: int, s: int, sweeps: int, seed: int = 0,
         mutual_thresh: float = 0.99, stop_error: float = 0.0):
    """KSVD dictionary learning on column-stacked training vectors.

    Alternates batch-OMP coding with per-atom rank-1 SVD updates.  Atoms
    that go unused, and near-duplicates of earlier atoms (|cos| above
    ``mutual_thresh``), are replaced by the worst-represented training
    vector.  Stops early once the mean residual drops below
    ``stop_error``.  Returns (Dictionary, per-sweep mean residual history).
    """
    X = np.asarray(training, dtype=np.float64)
    if X.ndim != 2:
        X = np.stack([np.asarray(v, dtype=np.float64) for v in training], axis=1)
    d, count = X.shape
    if count < M:
        raise ValueError(f"need at least M={M} training vectors, got {count}")
    rng = np.random.default_rng(seed)
    init_idx = rng.choice(count, size=M, replace=False)
    atoms = normalize_atoms(X[:, init_idx].copy())
    history = []
    for _ in range(sweeps):
        codes = batch_omp(X, Dictionary(atoms), s)
        for k in range(M):
            users = np.nonzero(codes[k] != 0.0)[0]
            if len(users) == 0:
                atoms[:, k] = _worst_represented(X, atoms, codes)
                continue
            # residual with atom k removed, restricted to its users
            E = X[:, users] - atoms @ codes[:, users] \
                + np.outer(atoms[:, k], codes[k, users])
            u, sv, vt = np.linalg.svd(E, full_matrices=False)
            atoms[:, k] = u[:, 0]
            codes[k, users] = sv[0] * vt[0]
        # clear near-duplicate atoms, as in reference KSVD implementations
        for k in range(M):
            overlap = np.abs(atoms[:, :k].T @ atoms[:, k])
            if overlap.size and overlap.max() > mutual_thresh:
                atoms[:, k] = _worst_represented(X, atoms, codes)
                codes[k, :] = 0.0
        atoms = normalize_atoms(atoms)
        history.append(coding_error(X, atoms, codes))
        del codes  # free before the next sweep's batch_omp allocates
        if history[-1] < stop_error:
            break
    return Dictionary(normalize_atoms(atoms)), history


def _worst_represented(X, atoms, codes):
    resid = X - atoms @ codes
    worst = int(np.argmax((resid * resid).sum(axis=0)))
    v = X[:, worst]
    return v / max(np.linalg.norm(v), 1e-300)
