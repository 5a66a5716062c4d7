"""Dump the solver outputs to an .npz file, or compare two dumps.

    PYTHONPATH=<checkout>/src python tools/compare_outputs.py dump out.npz
    python tools/compare_outputs.py compare a.npz b.npz

A dump holds: ``denoise_cube`` on a 120x120x31 cube (DEQ, fast variant, n=60);
``denoise_cube`` without budgets and its estimates at budgets [2, 3] from one
solve for DEQ and DU, full and fast, on a 40x40 cube; for each 20x20 block of
that cube and each DEQ variant, the Anderson iteration counts and ``converged``
flags of the forward and the adjoint solve, run to tol 1e-8 so that they stop
short of the 50-iteration cap, so a change that moves a count shows as a
differing integer array; one ``deq_train`` epoch per variant, its solves capped
at 50 iterations (tol 1e-6), so a solve that hits the cap shows; one
``du_train`` epoch per variant; ``sweep_iterations``; a three-epoch denoiser
``pretrain`` run (no validation split, so the returned weights are the last
epoch's whenever the loss falls every epoch); for each training run, its
trained weights, each history row's ``loss``, ``val_psnr`` (NaN without a
validation split), ``skipped``, ``fwd_nonconverged`` and ``adj_nonconverged``
(``<run>.history``), and each step's ``fwd_iters``, ``bwd_iters``,
``fwd_nonconverged``, ``adj_nonconverged`` and ``skipped`` as read from a
temporary ``log_path`` JSONL (``<run>.iters``), so both levels of the
training loop's count accumulator are compared, and its summed final
``fwd_residual`` and ``adj_residual`` (``<run>.residuals``, 0 for the runs
that solve no fixed point); two ``ksvd`` sweeps on the
1600 spectra of that cube; ``batch_omp`` codes of those spectra at s = 3 and
s = 1 (``batch_omp.s3``, ``batch_omp.s1``) on 64 normalized spectra drawn as
``ksvd`` draws its initial atoms, where later picks land on rounding noise,
so OMP's bits are compared apart from ``ksvd``'s atom updates; and
``conv2d`` and ``conv2d_transpose`` (64 -> 64 channels) on fixed 60x60
float32 and 20x20 float64 inputs, so a kernel change shows per op, the
multi-strip transpose included.  ``compare`` prints each array that
differs with its max relative difference ``max|a - b| / max|b|`` (for a
``<run>.history`` array, also the name and max relative difference of each
column that differs), then whether the iteration counts (the
``anderson.*`` and ``*.iters`` arrays) are unchanged.  It exits 0 when both
files hold the same keys with ``np.array_equal`` values (NaN equal to NaN),
2 when the key sets or an iteration count differ, and 1 when only other
arrays differ, as a change that moves results by rounding alone does.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np


def _inputs(side, hidden, seed=0):
    from blocksc import cubes, dictionary
    from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser, \
        spectral_normalize

    rng = np.random.default_rng(seed)
    atoms = dictionary.decorrelate_atoms(rng.normal(size=(31, 64)))
    den = init_denoiser(31, hidden=hidden, seed=seed + 1)
    spectral_normalize(den, iters=50)
    params = ModelParams(den, ScalarParams.from_values(0.8, 0.05))
    D = dictionary.Dictionary(atoms)
    clean = cubes.synth_cube(31, side, side, D, s=3, smoothness=8.0,
                             seed=seed + 2)
    noisy = cubes.add_noise(clean, cubes.NoiseModel(25.0, seed=seed + 3))
    return D, params, clean, noisy


def dump(path):
    from blocksc import cubes, deq, dictionary, metrics, pipeline, solver, \
        training, unroll
    from blocksc.anderson import AndersonConfig

    out = {}
    D, params, clean, noisy = _inputs(120, hidden=64)
    bundle = pipeline.ModelBundle(D, params, n=60, support_size=10)
    out["denoise_cube"] = pipeline.denoise_cube(bundle, noisy).data

    D, params, clean, noisy = _inputs(40, hidden=16, seed=10)
    pairs = list(zip(cubes.split_blocks(noisy, 20).blocks,
                     cubes.split_blocks(clean, 20).blocks))
    anderson = AndersonConfig(m=5, max_iters=10, tol=1e-6)
    for engine in ("deq", "du"):
        for variant in ("full", "fast"):
            bundle = pipeline.ModelBundle(D, params, engine=engine,
                                          variant=variant, n=20, K=4,
                                          anderson=anderson, support_size=5)
            out[f"denoise_cube.{engine}.{variant}"] = pipeline.denoise_cube(
                bundle, noisy).data
            staged = pipeline.denoise_cube(bundle, noisy, budgets=[2, 3])
            for k, cube in staged.items():
                out[f"staged.{engine}.{variant}.{k}"] = cube.data
            rows = metrics.sweep_iterations(bundle, [(noisy, clean)], [1, 3])
            out[f"sweep.{engine}.{variant}"] = np.array(
                [(r["iters"], r["psnr"]) for r in rows])
    converge = AndersonConfig(m=5, max_iters=50, tol=1e-8)
    for variant in ("full", "fast"):
        counts = []
        for noisy_block, clean_block in pairs:
            support = (solver.select_support(noisy_block.matrix, D, 5)
                       if variant == "fast" else None)
            ctx = solver.make_context(D, params, noisy_block.matrix, support)
            fwd = deq.deq_forward(ctx, params, converge)
            _, adj = deq.deq_backward(ctx, fwd.solution, clean_block.matrix,
                                      params, converge)
            counts.append((fwd.iterations, fwd.converged, adj.iterations,
                           adj.converged))
        out[f"anderson.deq.{variant}"] = np.array(counts, dtype=np.int64)
    train_anderson = AndersonConfig(m=5, max_iters=50, tol=1e-6)
    for variant in ("full", "fast"):
        cfg = deq.DeqTrainConfig(variant=variant, anderson=train_anderson,
                                 support_size=5, epochs=1, lr=1e-3,
                                 batch_size=2, val_fraction=0.25)
        trained, history, _ = _logged(out, f"deq_train.{variant}", cfg,
                                      deq.deq_train, pairs, D, params, cfg)
        for k, v in trained.as_dict().items():
            out[f"deq_train.{variant}.{k}"] = v
        out[f"deq_train.{variant}.history"] = _history(history)
        cfg = unroll.DuTrainConfig(
            unroll=unroll.UnrollConfig(K=3, variant=variant), support_size=5,
            epochs=1, lr=1e-3, batch_size=2, val_fraction=0.25)
        trained, history, _ = _logged(out, f"du_train.{variant}", cfg,
                                      unroll.du_train, pairs, D, params, cfg)
        for k, v in trained.as_dict().items():
            out[f"du_train.{variant}.{k}"] = v
        out[f"du_train.{variant}.history"] = _history(history)
    cfg = training.PretrainConfig(epochs=3, lr=1e-3, batch_size=2, hidden=16,
                                  val_fraction=0.0)
    den, history = _logged(out, "pretrain", cfg, training.pretrain, pairs,
                           cfg)
    for i, (w, b) in enumerate(zip(den.weights, den.biases), start=1):
        out[f"pretrain.layer{i}.weight"] = w
        out[f"pretrain.layer{i}.bias"] = b
    out["pretrain.history"] = _history(history)
    spectra = noisy.data.reshape(31, -1)
    learned, history = dictionary.ksvd(spectra, M=64, s=3, sweeps=2)
    out["ksvd.atoms"] = learned.atoms
    out["ksvd.history"] = np.array(history)
    init = np.random.default_rng(0).choice(spectra.shape[1], 64, replace=False)
    atoms = dictionary.Dictionary(dictionary.normalize_atoms(spectra[:, init]))
    for s in (3, 1):
        out[f"batch_omp.s{s}"] = dictionary.batch_omp(spectra, atoms, s)
    out.update(_conv_outputs())
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")


STEP_COUNTS = ("fwd_iters", "bwd_iters", "fwd_nonconverged",
               "adj_nonconverged", "skipped")
STEP_RESIDUALS = ("fwd_residual", "adj_residual")


def _logged(out, run, cfg, train, *args):
    """Run ``train(*args)`` with ``cfg.log_path`` a temporary JSONL file and
    return its result; each step's ``STEP_COUNTS`` go to ``out`` as the int
    array ``<run>.iters``, its ``STEP_RESIDUALS`` as ``<run>.residuals``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg.log_path = str(Path(tmp) / "train.jsonl")
        result = train(*args)
        steps = [json.loads(line) for line in
                 Path(cfg.log_path).read_text(encoding="utf-8").splitlines()]
    for suffix, fields, dtype in (("iters", STEP_COUNTS, np.int64),
                                  ("residuals", STEP_RESIDUALS, np.float64)):
        out[f"{run}.{suffix}"] = np.array(
            [[r[k] for k in fields] for r in steps],
            dtype=dtype).reshape(-1, len(fields))
    return result


HISTORY_COLUMNS = ("loss", "val_psnr", "skipped", "fwd_nonconverged",
                   "adj_nonconverged")


def _history(history) -> np.ndarray:
    """Each epoch's ``HISTORY_COLUMNS``; ``val_psnr`` is NaN without a
    validation split."""
    return np.array([[np.nan if h[c] is None else h[c]
                      for c in HISTORY_COLUMNS] for h in history])


def _conv_outputs() -> dict:
    from blocksc import tensor

    out = {}
    rng = np.random.default_rng(20)
    for side, dtype in ((60, np.float32), (20, np.float64)):
        x, cot = rng.normal(size=(2, 64, side, side)).astype(dtype)
        weight = rng.normal(size=(64, 64, 3, 3)).astype(dtype)
        bias = rng.normal(size=64).astype(dtype)
        tag = f"{side}x{side}.{np.dtype(dtype).name}"
        out[f"conv2d.{tag}"] = tensor.conv2d(x, weight, bias)
        out[f"conv2d_transpose.{tag}"] = tensor.conv2d_transpose(weight, cot)
    return out


def compare(path_a, path_b) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print("key sets differ:", sorted(set(a.files) ^ set(b.files)))
        return 2
    differ = [k for k in sorted(a.files)
              if not np.array_equal(a[k], b[k], equal_nan=True)]
    for k in differ:
        print(f"differs: {k}  max rel diff {max_rel_diff(a[k], b[k]):.3g}"
              + _history_columns(k, a[k], b[k]))
    print(f"{len(a.files) - len(differ)} of {len(a.files)} arrays equal")
    counts = [k for k in a.files if k.startswith("anderson.")
              or k.endswith(".iters")]
    moved = [k for k in differ if k in counts]
    print(f"iteration counts: {len(counts) - len(moved)} of {len(counts)} "
          f"arrays unchanged" + (f"; changed: {moved}" if moved else ""))
    return 2 if moved else 1 if differ else 0


def _history_columns(key, x, ref) -> str:
    """For a ``<run>.history`` array, each differing column's name and max
    relative difference; empty for any other array or a changed shape."""
    if (not key.endswith(".history") or x.shape != ref.shape
            or x.ndim != 2 or x.shape[1] != len(HISTORY_COLUMNS)):
        return ""
    return "  columns: " + ", ".join(
        f"{name} {max_rel_diff(u, v):.3g}"
        for name, u, v in zip(HISTORY_COLUMNS, x.T, ref.T)
        if not np.array_equal(u, v, equal_nan=True))


def max_rel_diff(x, ref) -> float:
    """max|x - ref| / max|ref|; inf when the shapes differ or ref is 0."""
    if x.shape != ref.shape:
        return np.inf
    scale = np.abs(ref).max(initial=0.0)
    gap = np.abs(x - ref).max(initial=0.0)
    return float(gap / scale) if scale > 0 else np.inf


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
