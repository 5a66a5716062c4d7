"""Whole-cube denoising: split, per-block solve, reassemble.

A ModelBundle packages everything inference needs (dictionary, learned
parameters, engine choice, block size, solver budgets) and round-trips
through the DQC1 checkpoint container.  Its settings go to the file's
``meta.json`` as the field values and come back through the dataclass, so
a setting an older file lacks takes its default and any other meta key
(``support_eps`` in older files, say) stays in ``bundle.meta``.

``block_context``, the one context builder, serves ``denoise_block`` and
both trainers; one solve serves several iteration budgets through either
engine's per-iterate callback.  Precision: see ``denoiser``.
``block_solver`` takes ``denoiser.shared_network``'s float32 copy and N(0)
once per block shape for the blocks of one weight state (a cube, or a
validation pass), which all reuse both.

``denoise_cube`` holds one cube of block data (one per budget) beside one
block's solve: ``split_blocks``' owned copies double as estimate storage.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .anderson import AndersonConfig, DivergenceError
from .checkpoint import load_checkpoint, pack_str, save_checkpoint, unpack_str
from .cubes import HyperCube, reassemble, split_blocks
from .denoiser import DenoiserParams, ModelParams, ScalarParams, \
    shared_network
from .deq import deq_forward
from .dictionary import Dictionary
from .solver import SolverContext, make_context, reconstruct, select_support
from .unroll import du_forward


@dataclass
class ModelBundle:
    dictionary: Dictionary
    params: ModelParams
    engine: str = "deq"  # "deq" or "du"
    variant: str = "fast"  # "full" or "fast"
    n: int = 60
    anderson: AndersonConfig = field(default_factory=AndersonConfig)
    K: int = 10
    support_size: int = 10
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.engine not in ("deq", "du"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.variant not in ("full", "fast"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("n", "K", "support_size"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


def _check_budgets(budgets) -> list:
    """Sorted distinct budgets; ValueError for one not an int or below 1."""
    for k in budgets:  # numpy integers pass, bools and floats do not
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"iteration budgets must be integers, got {k!r}")
    budgets = sorted(set(map(int, budgets)))
    if not budgets or budgets[0] < 1:
        raise ValueError(f"iteration budgets must be >= 1, got {budgets}")
    return budgets


def block_context(bundle: ModelBundle, Y: np.ndarray) -> SolverContext:
    """Block Y's solve context: the fast map on Y's OMP support, or full."""
    support = (select_support(Y, bundle.dictionary, bundle.support_size)
               if bundle.variant == "fast" else None)
    return make_context(bundle.dictionary, bundle.params, Y, support)


def denoise_block(bundle: ModelBundle, Y: np.ndarray, budgets=None,
                  network=None):
    """Solve one block and return the reconstructed d x N estimate.

    With ``budgets``, return {k: estimate after k iterations} for each k,
    kept by one solve's callback, run to max(budgets) with no early stop.
    The network runs in float32; ``bundle.params`` is left as it is.
    ``network`` is the (float32 network, N(0)) pair of
    ``denoiser.shared_network`` for Y's shape, built here when None.
    """
    if budgets is not None:
        budgets = _check_budgets(budgets)
    params, n0 = network or shared_network(bundle.params, np.shape(Y))
    ctx = block_context(bundle, Y)
    staged, keep = {}, None
    if budgets:
        def keep(k, g):
            if k in budgets:
                staged[k] = reconstruct(ctx, g)
    if bundle.engine == "du":
        G = du_forward(ctx, params, budgets[-1] if budgets else bundle.K, n0,
                       callback=keep)
    else:
        cfg = (replace(bundle.anderson, max_iters=budgets[-1], tol=0.0)
               if budgets else bundle.anderson)
        G = deq_forward(ctx, params, cfg, callback=keep, n0=n0).solution
    return staged if budgets else reconstruct(ctx, G)


def block_solver(bundle: ModelBundle):
    """``solve(Y, budgets=None)``: ``denoise_block(bundle, Y, budgets)`` for
    blocks solved at the weights ``bundle.params`` holds now, sharing one
    ``denoiser.shared_network`` among the blocks of each shape."""
    networks = {}

    def solve(Y, budgets=None):
        shape = np.shape(Y)
        if shape not in networks:
            networks[shape] = shared_network(bundle.params, shape)
        return denoise_block(bundle, Y, budgets, networks[shape])
    return solve


def _check_finite(cube: HyperCube) -> None:
    bad = ~np.isfinite(cube.data)  # freed on return, before any solve
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"non-finite cube sample at (band, row, col) {where}")


def denoise_cube(bundle: ModelBundle, cube: HyperCube, budgets=None):
    """Full pipeline; the uncovered border keeps the input values.

    A cube smaller than one block comes back unchanged (zero tiles).
    A non-finite sample raises ValueError naming its (band, row, col)
    before any solve.
    A block whose solve goes non-finite, under either engine (Anderson for
    DEQ, ``du_forward`` for DU), raises DivergenceError naming it.
    With ``budgets``, return {k: HyperCube} built from ``denoise_block``'s
    estimates at each budget.  ``cube`` is left as it is.  Each block's
    estimate overwrites its ``split_blocks`` copy once solved, so the peak
    is one cube of block data (per budget) plus one block's solve.
    """
    _check_finite(cube)
    if budgets is not None:
        budgets = _check_budgets(budgets)
    keys = budgets or [None]
    n = bundle.n
    if n > min(cube.height, cube.width):
        out = {k: HyperCube(cube.data.copy()) for k in keys}
    else:
        sets = {k: split_blocks(cube, n) for k in keys}
        solve = block_solver(bundle)
        for row in zip(*(sets[k].blocks for k in keys)):
            blk = row[0]
            try:
                est = solve(blk.matrix, budgets)
            except DivergenceError as exc:
                raise DivergenceError(f"block at {blk.origin}: {exc}",
                                      iteration=exc.iteration) from exc
            for k, target in zip(keys, row):
                target.matrix[...] = est[k] if budgets else est
            del est  # so no estimate is held through the next block's solve
        out = {k: reassemble(sets.pop(k), base=cube) for k in keys}
    return out if budgets else out[None]


# ---------------------------------------------------------------------------
# checkpoint round trip


# The bundle fields written to ``meta.json`` (``anderson`` as a dict).
_SETTINGS = tuple(f.name for f in fields(ModelBundle)
                  if f.name not in ("dictionary", "params", "meta"))


def bundle_entries(bundle: ModelBundle, optimizer_entries=None) -> dict:
    den = bundle.params.denoiser
    entries = {"dictionary.atoms": bundle.dictionary.atoms,
               **bundle.params.as_dict()}
    for i, (u, v) in enumerate(zip(den.u, den.v), start=1):
        entries[f"denoiser.layer{i}.u"] = u
        entries[f"denoiser.layer{i}.v"] = v
    meta = {name: getattr(bundle, name) for name in _SETTINGS}
    meta["anderson"] = asdict(bundle.anderson)
    meta.update(bundle.meta)
    entries["meta.json"] = pack_str(json.dumps(meta, sort_keys=True))
    if optimizer_entries:
        entries.update(optimizer_entries)
    return entries


def save_model_bundle(path, bundle: ModelBundle,
                      optimizer_entries=None) -> None:
    save_checkpoint(path, bundle_entries(bundle, optimizer_entries))


def load_model_bundle(path):
    """Returns (ModelBundle, optimizer entries dict).

    A setting missing from the file takes its ``ModelBundle`` (or
    ``AndersonConfig``) default; every other meta key stays in
    ``bundle.meta``.  A missing entry, a ``meta.json`` that is not a JSON
    object, an unknown ``anderson`` key or a setting out of range raises
    ValueError naming the path.
    """
    entries = load_checkpoint(path)
    try:
        meta = json.loads(unpack_str(entries["meta.json"]))
        if not isinstance(meta, dict):
            raise ValueError("meta.json is not a JSON object")
        settings = {k: meta.pop(k) for k in _SETTINGS if k in meta}
        if "anderson" in settings:
            settings["anderson"] = AndersonConfig(**settings["anderson"])
        params = ModelParams(
            DenoiserParams(*([entries[f"denoiser.layer{i}.{part}"]
                              for i in range(1, 5)]
                             for part in ("weight", "bias", "u", "v"))),
            ScalarParams(entries["scalars.raw_b"], entries["scalars.raw_mu"]))
        bundle = ModelBundle(Dictionary(entries["dictionary.atoms"]), params,
                             meta=meta, **settings)
    except KeyError as exc:
        raise ValueError(f"{path}: no entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    optimizer = {k: v for k, v in entries.items()
                 if k.startswith("optimizer.")}
    return bundle, optimizer
