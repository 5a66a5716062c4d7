"""The four workloads: seeded inputs, loaders, one timed unit, checks.

Every input is generated from the run's input set (its seed modulo
``harness.INPUT_SETS``) and written to disk in the program's own formats
(DQC1 model bundle, HSC1 cubes); the timed code then receives only what
``load`` reads back through ``load_model_bundle`` and ``read_hsc1``.  The program is reached through module attributes
(``pipeline.denoise_cube`` rather than a from-import) so that the traced
run's wrappers see every call.

Model shared by all workloads: d bands, M decorrelated unit atoms, an
untrained denoiser with the given hidden width, spectral-normalized with
``power_steps`` power iterations, and penalty scalars b=0.8, mu=0.05.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from blocksc import cubes, deq, dictionary, metrics, pipeline, unroll
from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser, \
    spectral_normalize

PENALTY_B = 0.8
PENALTY_MU = 0.05


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    bands: int = 31
    atoms: int = 64
    hidden: int = 64
    power_steps: int = 50
    synth_sparsity: int = 3
    smoothness: float = 8.0
    sigma_255: float = 25.0
    cube_side: int = 120   # denoise: 2 x 2 blocks of the bundle's n
    block: int = 60        # ModelBundle.n
    support_size: int = 10
    train_side: int = 80   # train_*: 4 x 4 blocks of train_block
    train_block: int = 20
    batch_size: int = 8
    K: int = 10
    ksvd_columns: int = 2000
    ksvd_sparsity: int = 3
    ksvd_sweeps: int = 2


FULL = Size()
TINY = Size(bands=4, atoms=8, hidden=3, power_steps=30, synth_sparsity=2,
            smoothness=2.0, cube_side=8, block=4, support_size=2,
            train_side=8, train_block=4, batch_size=2, K=3,
            ksvd_columns=40, ksvd_sparsity=2)


def sub_seed(seed: int, tag: int) -> int:
    """Independent stream for one input of one seed."""
    state = np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)
    return int(state[0])


def make_bundle(size: Size, seed: int) -> pipeline.ModelBundle:
    rng = np.random.default_rng(sub_seed(seed, 1))
    atoms = dictionary.decorrelate_atoms(
        rng.normal(size=(size.bands, size.atoms)))
    den = init_denoiser(size.bands, hidden=size.hidden, seed=sub_seed(seed, 2))
    spectral_normalize(den, iters=size.power_steps)
    params = ModelParams(den, ScalarParams.from_values(PENALTY_B, PENALTY_MU))
    return pipeline.ModelBundle(dictionary.Dictionary(atoms), params,
                                n=size.block, support_size=size.support_size)


def make_cubes(size: Size, seed: int, bundle, side: int):
    """(clean, noisy) synthetic cube that is s-sparse in the bundle's atoms."""
    clean = cubes.synth_cube(size.bands, side, side, bundle.dictionary,
                             s=size.synth_sparsity, smoothness=size.smoothness,
                             seed=sub_seed(seed, 3))
    noisy = cubes.add_noise(clean, cubes.NoiseModel(size.sigma_255,
                                                    seed=sub_seed(seed, 4)))
    return clean, noisy


def write_model_and_cubes(size: Size, seed: int, work, side: int) -> None:
    bundle = make_bundle(size, seed)
    clean, noisy = make_cubes(size, seed, bundle, side)
    pipeline.save_model_bundle(work / "model.dqc1", bundle)
    cubes.write_hsc1(work / "noisy.hsc1", noisy)
    cubes.write_hsc1(work / "clean.hsc1", clean)


def read_pairs(work, n: int) -> list:
    noisy = cubes.split_blocks(cubes.read_hsc1(work / "noisy.hsc1"), n)
    clean = cubes.split_blocks(cubes.read_hsc1(work / "clean.hsc1"), n)
    return list(zip(noisy.blocks, clean.blocks))


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Outcome:
    """What one unit produced, reduced to what the harness needs."""

    attempted: int            # items the failure count is taken against
    failed: int
    quality: float            # the pinned numeric of the workload
    arrays: dict = field(default_factory=dict)  # compared across units


class Workload:
    """One workload: ``generate`` (untimed), ``load`` (set-up), ``unit``."""

    name = ""
    unit_name = ""            # what one timed unit is
    p50_name = ""             # issue name of the median unit time
    rate_name = ""            # issue name of the throughput metric
    rate_unit = ""
    quality_name = ""
    quality_unit = ""
    quality_better = "lower"

    def generate(self, size: Size, seed: int, work) -> None:
        raise NotImplementedError

    def load(self, size: Size, work):
        raise NotImplementedError

    def unit(self, size: Size, state):
        raise NotImplementedError

    def outcome(self, size: Size, state, out) -> Outcome:
        raise NotImplementedError

    def items(self, size: Size) -> int:
        """Items a failing unit counts against (units or blocks)."""
        return 1

    def rate(self, size: Size) -> int:
        """Items of the workload's throughput metric (``rate_name``) per unit."""
        raise NotImplementedError

    def check(self, size: Size, state, out) -> list:
        """Problems with one unit's output, independent of other units."""
        raise NotImplementedError


class Denoise(Workload):
    name = "denoise"
    unit_name, p50_name = "cube", "cube_s_p50"
    rate_name, rate_unit = "pixels_per_s", "pixels/s"
    quality_name, quality_unit, quality_better = "psnr_db", "dB", "higher"

    def generate(self, size, seed, work):
        write_model_and_cubes(size, seed, work, size.cube_side)

    def load(self, size, work):
        bundle, _ = pipeline.load_model_bundle(work / "model.dqc1")
        return {"bundle": bundle,
                "noisy": cubes.read_hsc1(work / "noisy.hsc1"),
                "clean": cubes.read_hsc1(work / "clean.hsc1")}

    def unit(self, size, state):
        return pipeline.denoise_cube(state["bundle"], state["noisy"])

    def rate(self, size):
        return size.cube_side * size.cube_side

    def outcome(self, size, state, out):
        return Outcome(1, 0, metrics.psnr(out, state["clean"]),
                       {"cube": out.data})

    def check(self, size, state, out):
        problems = []
        if out.data.shape != state["noisy"].data.shape:
            problems.append(f"output shape {out.data.shape} != input "
                            f"{state['noisy'].data.shape}")
            return problems
        if not np.all(np.isfinite(out.data)):
            problems.append("output has non-finite values")
        # the program's PSNR against a direct per-band mean-PSNR formula
        mse = ((out.data - state["clean"].data) ** 2).mean(axis=(1, 2))
        direct = float(np.mean([10.0 * math.log10(1.0 / m) for m in mse]))
        if relative_gap(metrics.psnr(out, state["clean"]), direct) > 1e-9:
            problems.append("metrics.psnr disagrees with the direct formula")
        return problems


class Train(Workload):
    """One training epoch of the DEQ or unrolled engine on 16 block pairs."""

    unit_name, p50_name = "epoch", "epoch_s_p50"
    rate_name, rate_unit = "blocks_per_s", "blocks/s"
    quality_name, quality_unit = "train_loss", "loss"

    def __init__(self, engine: str):
        self.engine = engine
        self.name = f"train_{engine}"

    def generate(self, size, seed, work):
        write_model_and_cubes(size, seed, work, size.train_side)

    def load(self, size, work):
        bundle, _ = pipeline.load_model_bundle(work / "model.dqc1")
        return {"bundle": bundle, "pairs": read_pairs(work, size.train_block)}

    def unit(self, size, state):
        bundle = state["bundle"]
        if self.engine == "deq":
            cfg = deq.DeqTrainConfig(epochs=1, batch_size=size.batch_size,
                                     val_fraction=0.0)
            return deq.deq_train(state["pairs"], bundle.dictionary,
                                 bundle.params, cfg)
        cfg = unroll.DuTrainConfig(
            unroll=unroll.UnrollConfig(K=size.K, variant="full"), epochs=1,
            batch_size=size.batch_size, val_fraction=0.0)
        return unroll.du_train(state["pairs"], bundle.dictionary,
                               bundle.params, cfg)

    def blocks(self, size):
        return (size.train_side // size.train_block) ** 2

    def items(self, size):
        return self.blocks(size)

    def rate(self, size):
        return self.blocks(size)

    def outcome(self, size, state, out):
        params, history, _ = out
        return Outcome(self.blocks(size), int(history[-1]["skipped"]),
                       float(history[-1]["loss"]), params.as_dict())

    def check(self, size, state, out):
        params, history, _ = out
        problems = [f"trained parameter {k} has non-finite values"
                    for k, v in params.as_dict().items()
                    if not np.all(np.isfinite(v))]
        if not np.isfinite(history[-1]["loss"]):
            problems.append("train_loss is not finite")
        return problems


class Ksvd(Workload):
    name = "ksvd"
    unit_name, p50_name = "call", "ksvd_s_p50"
    rate_name, rate_unit = "signals_per_s", "signals/s"
    quality_name, quality_unit = "coding_error", "mean-residual"

    def generate(self, size, seed, work):
        bundle = make_bundle(size, seed)
        _, noisy = make_cubes(size, seed, bundle, size.train_side)
        blocks = cubes.split_blocks(noisy, size.train_block).blocks
        spectra = np.concatenate([b.matrix for b in blocks], axis=1)
        pick = np.random.default_rng(sub_seed(seed, 5)).choice(
            spectra.shape[1], size=size.ksvd_columns, replace=False)
        # stored as a 1-row cube so the program's HSC1 reader loads it
        cubes.write_hsc1(work / "spectra.hsc1",
                         cubes.HyperCube(spectra[:, pick][:, None, :]))

    def load(self, size, work):
        cube = cubes.read_hsc1(work / "spectra.hsc1")
        return {"spectra": cube.data.reshape(cube.bands, -1)}

    def unit(self, size, state):
        return dictionary.ksvd(state["spectra"], size.atoms,
                               size.ksvd_sparsity, size.ksvd_sweeps)

    def rate(self, size):
        return size.ksvd_columns * size.ksvd_sweeps

    def outcome(self, size, state, out):
        dico, history = out
        return Outcome(1, 0, float(history[-1]), {"atoms": dico.atoms})

    def check(self, size, state, out):
        dico, history = out
        atoms = dico.atoms
        problems = []
        if atoms.shape != (size.bands, size.atoms):
            problems.append(f"dictionary shape {atoms.shape}")
        elif not np.all(np.isfinite(atoms)):
            problems.append("dictionary has non-finite atoms")
        elif np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max() > 1e-9:
            problems.append("dictionary atoms are not unit norm")
        if not np.all(np.isfinite(history)):
            problems.append("coding_error is not finite")
        return problems


WORKLOADS = {w.name: w for w in (Denoise(), Train("deq"), Train("du"), Ksvd())}
