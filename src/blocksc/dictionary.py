"""Fixed overcomplete dictionaries and classic sparse-coding baselines.

Provides greedy OMP (single and Gram-precomputed batch form) and KSVD
dictionary learning.  Besides serving as a comparison method, OMP picks the
shared support for the fast solver path.  ``omp`` stops early once the
residual norm drops to ``OMP_EPS``; ``batch_omp`` once yᵀy − bᵀg, the
squared residual norm by the normal equations, drops to ``OMP_EPS``²: a
difference that cancels to rounding level once the picked atoms fit the
column, so there the stop is down to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

OMP_EPS = 1e-10


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
    if not (1 <= s <= D.d):
        raise ValueError(f"sparsity s must satisfy 1 <= s <= d, got {s}")
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
    Each column calls LAPACK ``potrf``/``potrs`` (the routines behind
    ``cho_factor``/``cho_solve``) directly on the same operands, in the same
    order, as a per-column ``cho_factor``/``cho_solve`` loop, so the codes
    are bit-identical to it.  Matches the looped ``omp`` output to well
    below 1e-10 on generic data.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if not (1 <= s <= D.d):
        raise ValueError(f"sparsity s must satisfy 1 <= s <= d, got {s}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("signals contain non-finite entries")
    gram = D.atoms.T @ D.atoms
    dty = D.atoms.T @ Y
    yty = (Y * Y).sum(axis=0)
    codes = np.zeros((D.M, Y.shape[1]))
    eps2 = OMP_EPS * OMP_EPS
    for j in range(Y.shape[1]):
        alpha0 = alpha = dty[:, j]
        err2 = yty[j]
        selected: list[int] = []
        for step in range(s):
            if err2 <= eps2:
                break
            a = np.abs(alpha)
            a[selected] = -np.inf
            selected.append(int(a.argmax()))
            b = alpha0[selected]
            c, info = dpotrf(gram[selected][:, selected], lower=1, clean=0)
            if info > 0:
                raise RankError(f"singular Gram submatrix at step {step} "
                                f"(column {j})", step=step)
            g, _ = dpotrs(c, b, lower=1)
            if step + 1 < s:  # the last step's residual is never read
                alpha = alpha0 - gram[:, selected] @ g
                err2 = yty[j] - b @ g
        if selected:
            codes[selected, j] = g
    return codes


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
