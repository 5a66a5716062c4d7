import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blocksc import denoiser, pipeline
from blocksc.anderson import AndersonConfig, DivergenceError
from blocksc.cubes import HyperCube, NoiseModel, add_noise, split_blocks, \
    synth_cube
from blocksc.deq import deq_forward
from blocksc.denoiser import ModelParams, ScalarParams, \
    denoise, init_denoiser, spectral_normalize
from blocksc.dictionary import Dictionary, normalize_atoms
from blocksc.metrics import psnr, sweep_iterations
from blocksc.pipeline import (ModelBundle, denoise_block, denoise_cube,
                              load_model_bundle, save_model_bundle)
from blocksc.solver import initial_codes, iteration_map, make_context, \
    reconstruct, select_support


def tiny_bundle(engine="deq", variant="fast", seed=0):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(4, 8))))
    den = init_denoiser(4, hidden=3, seed=seed)
    spectral_normalize(den, iters=30)
    params = ModelParams(den, ScalarParams.from_values(0.8, 0.05))
    return ModelBundle(dictionary=D, params=params, engine=engine,
                       variant=variant, n=4,
                       anderson=AndersonConfig(m=4, max_iters=12, tol=1e-8),
                       K=6, support_size=2)


def at_budget(bundle, k):
    """The bundle whose plain solve runs exactly k iterations."""
    if bundle.engine == "du":
        return replace(bundle, K=k)
    return replace(bundle, anderson=replace(bundle.anderson, max_iters=k,
                                            tol=0.0))


def noisy_cube(seed=0):
    rng = np.random.default_rng(seed)
    D = normalize_atoms(rng.normal(size=(4, 8)))
    clean = synth_cube(4, 8, 8, D, s=2, smoothness=2.0, seed=seed)
    return add_noise(clean, NoiseModel(40.0, seed=seed + 1)), clean


class TestDenoiseCube:
    @pytest.mark.parametrize("engine,variant", [("deq", "fast"),
                                                ("deq", "full"),
                                                ("du", "fast"),
                                                ("du", "full")])
    def test_runs_and_preserves_shape(self, engine, variant):
        bundle = tiny_bundle(engine, variant)
        noisy, _ = noisy_cube()
        out = denoise_cube(bundle, noisy)
        assert out.data.shape == noisy.data.shape
        assert np.all(np.isfinite(out.data))

    def test_deterministic(self):
        bundle = tiny_bundle()
        noisy, _ = noisy_cube(seed=2)
        a = denoise_cube(bundle, noisy)
        b = denoise_cube(bundle, noisy)
        assert np.array_equal(a.data, b.data)

    def test_zero_tile_cube_passthrough(self):
        bundle = tiny_bundle()
        small = HyperCube(np.random.default_rng(3).uniform(0, 1, (4, 3, 3)))
        out = denoise_cube(bundle, small)
        assert np.array_equal(out.data, small.data)

    def test_uncovered_border_keeps_input(self):
        bundle = tiny_bundle()
        rng = np.random.default_rng(4)
        cube = HyperCube(rng.uniform(0, 1, (4, 9, 9)))  # 1-px border left over
        out = denoise_cube(bundle, cube)
        assert np.array_equal(out.data[:, 8, :], cube.data[:, 8, :])
        assert np.array_equal(out.data[:, :, 8], cube.data[:, :, 8])

    @pytest.mark.parametrize("side", [4, 9])  # one block; 2 x 2 + border
    @pytest.mark.parametrize("budgets", [None, [2, 4]])
    def test_input_cube_untouched(self, side, budgets):
        bundle = tiny_bundle()
        cube = HyperCube(np.random.default_rng(5).uniform(0, 1,
                                                          (4, side, side)))
        before = cube.data.copy()
        out = denoise_cube(bundle, cube, budgets)
        assert np.array_equal(cube.data, before)
        for res in (out.values() if budgets else [out]):
            assert not np.shares_memory(res.data, cube.data)
            assert not np.array_equal(res.data, before)


class TestDivergence:
    def test_error_names_the_block(self):
        # 1e39 is finite in float64 but overflows the float32 network, so
        # only the block at (4, 0) goes non-finite, at its second iterate
        bundle = tiny_bundle(variant="full")
        noisy, _ = noisy_cube()
        data = noisy.data.copy()
        data[:, 4:, :4] = 1e39
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"\(4, 0\)") as exc:
            denoise_cube(bundle, HyperCube(data))
        assert exc.value.iteration == 2
        assert isinstance(exc.value.__cause__, DivergenceError)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_both_engines_raise_on_overflowing_weights(self, engine):
        bundle = tiny_bundle(engine)
        for w in bundle.params.denoiser.weights:
            w *= 1e80  # inf in the float32 network
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"block at \(0, 0\)"):
            denoise_cube(bundle, noisy_cube()[0])


class TestNonFiniteInput:
    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("variant", ["full", "fast"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_error_names_the_first_sample_before_any_solve(
            self, monkeypatch, engine, variant, value):
        solved = []
        monkeypatch.setattr(pipeline, "denoise_block",
                            lambda *args: solved.append(1))
        data = noisy_cube()[0].data.copy()
        data[2, 5, 3] = data[3, 1, 6] = value
        with pytest.raises(ValueError, match=r"non-finite cube sample at "
                                             r"\(band, row, col\) \(2, 5, 3\)"):
            denoise_cube(tiny_bundle(engine, variant), HyperCube(data))
        assert solved == []


class TestZeroBlock:
    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("variant", ["fast", "full"])
    def test_zero_block_estimates_zero(self, engine, variant):
        # the fast map's OMP picks no atom for it: an empty support
        data = noisy_cube()[0].data.copy()
        data[:, :4, 4:] = 0.0
        out = denoise_cube(tiny_bundle(engine, variant), HyperCube(data))
        assert np.all(np.isfinite(out.data))
        assert not np.any(out.data[:, :4, 4:])


class TestFloat32Inference:
    def test_bundle_params_untouched(self):
        bundle = tiny_bundle()
        before = {k: np.copy(v) for k, v in bundle.params.as_dict().items()}
        denoise_cube(bundle, noisy_cube(seed=9)[0])
        after = bundle.params.as_dict()
        for k, v in before.items():
            assert after[k].dtype == np.float64, k
            assert after[k].tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("variant", ["fast", "full"])
    def test_blocks_match_a_float64_solve(self, variant, monkeypatch):
        bundle = replace(tiny_bundle(variant=variant),
                         anderson=AndersonConfig())
        reports = []

        def spy(ctx, params, cfg, callback=None, n0=None):
            assert params.denoiser.weights[0].dtype == np.float32
            reports.append(deq_forward(ctx, params, cfg, callback, n0))
            return reports[-1]

        monkeypatch.setattr(pipeline, "deq_forward", spy)
        noisy, _ = noisy_cube(seed=10)
        for blk in split_blocks(noisy, bundle.n).blocks:
            est = denoise_block(bundle, blk.matrix)
            support = (select_support(blk.matrix, bundle.dictionary,
                                      bundle.support_size)
                       if variant == "fast" else None)
            ctx = make_context(bundle.dictionary, bundle.params, blk.matrix,
                               support)
            ref = deq_forward(ctx, bundle.params, bundle.anderson)
            expect = reconstruct(ctx, ref.solution)
            assert np.abs(est - expect).max() <= 1e-6 * np.abs(expect).max()
            assert reports[-1].iterations == ref.iterations
            assert reports[-1].converged == ref.converged
        assert len(reports) == 4


def with_biases(bundle, seed=0):
    """``bundle`` with nonzero denoiser biases, so that N(0) is not 0."""
    params = bundle.params.copy()
    rng = np.random.default_rng(seed)
    for bias in params.denoiser.biases:
        bias[:] = rng.normal(scale=0.1, size=bias.shape)
    return replace(bundle, params=params)


float32_network = denoiser.float32_params


def unshared_block(bundle, Y, budgets=None):
    """One block solved with a network call at every map step, N(0) too."""
    net = float32_network(bundle.params)
    support = (select_support(Y, bundle.dictionary, bundle.support_size)
               if bundle.variant == "fast" else None)
    ctx = make_context(bundle.dictionary, net, Y, support)
    if bundle.engine == "du":  # a plain map loop from G_0
        final, staged = initial_codes(ctx), {}
        for k in range(1, (max(budgets) if budgets else bundle.K) + 1):
            final = staged[k] = iteration_map(ctx, final, net)
    else:
        staged = {}
        cfg = (replace(bundle.anderson, max_iters=max(budgets), tol=0.0)
               if budgets else bundle.anderson)
        final = deq_forward(ctx, net, cfg,
                            callback=staged.__setitem__).solution
    if budgets is None:
        return reconstruct(ctx, final)
    return {k: reconstruct(ctx, staged[k]) for k in budgets}


class TestSharedZeroResponse:
    """``denoise_cube`` runs the network once on the zero block for all
    blocks; each block's first map step takes that N(0)."""

    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("variant", ["fast", "full"])
    @pytest.mark.parametrize("budgets", [None, [1, 3, 5]])
    def test_cube_equals_unshared_block_solves(self, engine, variant,
                                               budgets):
        bundle = with_biases(tiny_bundle(engine, variant))
        net = float32_network(bundle.params)
        assert np.abs(denoise(net.denoiser, np.zeros((4, 16)))).min() > 0
        noisy, _ = noisy_cube(seed=6)
        out = denoise_cube(bundle, noisy, budgets)
        cubes = out if budgets else {None: out}
        n = bundle.n
        blocks = split_blocks(noisy, n).blocks
        assert len(blocks) == 4
        for blk in blocks:
            r, c = blk.origin
            ref = unshared_block(bundle, blk.matrix, budgets)
            ref = ref if budgets else {None: ref}
            for k, cube in cubes.items():
                got = cube.data[:, r:r + n, c:c + n].reshape(blk.d, -1)
                assert np.array_equal(got, ref[k]), (blk.origin, k)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("budgets", [None, [2, 5]])
    def test_network_calls_per_cube(self, engine, budgets, monkeypatch):
        bundle = with_biases(tiny_bundle(engine, "full"))
        convs, iters = [], []
        conv2d = denoiser.conv2d

        def count_conv(*args):
            convs.append(1)
            return conv2d(*args)

        def spy(*args, **kwargs):
            report = deq_forward(*args, **kwargs)
            iters.append(report.iterations)
            return report

        monkeypatch.setattr(denoiser, "conv2d", count_conv)
        monkeypatch.setattr(pipeline, "deq_forward", spy)
        denoise_cube(bundle, noisy_cube(seed=7)[0], budgets)
        steps = (iters if engine == "deq"
                 else [max(budgets) if budgets else bundle.K] * 4)
        assert len(steps) == 4 and min(steps) > 1
        network_calls = sum(k - 1 for k in steps) + 1  # 4 x (k - 1) + 1
        assert len(convs) == 4 * network_calls


def traced_peak(fn):
    """Peak bytes ``tracemalloc`` counts while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCubeMemory:
    """``denoise_cube`` holds one cube of block data (one per budget)
    beside one block's solve: each block's input copy takes its estimate."""

    @pytest.mark.parametrize("engine,variant", [("deq", "fast"),
                                                ("deq", "full"),
                                                ("du", "full")])
    @pytest.mark.parametrize("budgets", [None, [2, 4]])
    def test_peak_is_one_block_solve_plus_one_cube(self, engine, variant,
                                                   budgets):
        d, n = 8, 24
        rng = np.random.default_rng(11)
        D = Dictionary(normalize_atoms(rng.normal(size=(d, 2 * d))))
        den = init_denoiser(d, hidden=8, seed=1)
        spectral_normalize(den, iters=30)
        bundle = ModelBundle(D, ModelParams(den, ScalarParams.from_values(
            0.8, 0.05)), engine=engine, variant=variant, n=n,
            anderson=AndersonConfig(m=4, max_iters=6, tol=1e-8), K=4,
            support_size=4)
        cube = HyperCube(rng.uniform(0, 1, (d, 3 * n, 3 * n)))
        net = float32_network(bundle.params)
        network = (net, denoise(net.denoiser, np.zeros((d, n * n),
                                                       np.float32)))
        block_peak = max(
            traced_peak(lambda: denoise_block(bundle, blk.matrix, budgets,
                                              network))
            for blk in split_blocks(cube, n).blocks)
        cube_peak = traced_peak(lambda: denoise_cube(bundle, cube, budgets))
        block_data = cube.data.nbytes * len(budgets or [None])
        # the slack covers the shared network and N(0), which denoise_cube
        # builds inside the window; holding the finished estimates as well
        # would add 8/9 of a cube per budget
        assert cube_peak <= block_peak + block_data + cube.data.nbytes // 4


class TestServedTrace:
    """A served DU solve holds its current iterate, not the K-layer trace
    that only training's backward reads."""

    def test_du_full_block_peak_does_not_grow_with_K(self):
        d, n = 8, 24
        rng = np.random.default_rng(12)
        D = Dictionary(normalize_atoms(rng.normal(size=(d, 2 * d))))
        den = init_denoiser(d, hidden=8, seed=2)
        spectral_normalize(den, iters=30)
        params = ModelParams(den, ScalarParams.from_values(0.8, 0.05))
        Y = rng.uniform(0, 1, (d, n * n))
        network = denoiser.shared_network(params, Y.shape)
        peaks = {}
        for K in (10, 20):
            bundle = ModelBundle(D, params, "du", "full", n=n, K=K)
            denoise_block(bundle, Y, network=network)  # lazy allocations out
            peaks[K] = traced_peak(
                lambda: denoise_block(bundle, Y, network=network))
        code = 2 * d * n * n * 8  # one float64 M x N code matrix
        # holding the trace would add 10 code matrices at K = 20
        assert abs(peaks[20] - peaks[10]) <= code, (peaks, code)


class TestBudgets:
    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("variant", ["fast", "full"])
    def test_block_budget_matches_budgeted_bundle(self, engine, variant):
        bundle = tiny_bundle(engine, variant)
        Y = np.random.default_rng(5).normal(size=(4, 16))
        staged = denoise_block(bundle, Y, budgets=[6, 2, 4])
        assert sorted(staged) == [2, 4, 6]
        for k in (2, 4, 6):
            direct = denoise_block(at_budget(bundle, k), Y)
            assert np.array_equal(denoise_block(bundle, Y, budgets=[k])[k],
                                  direct)
            assert np.array_equal(staged[k], direct)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_cube_budget_matches_budgeted_bundle(self, engine):
        bundle = tiny_bundle(engine)
        noisy, _ = noisy_cube(seed=6)
        staged = denoise_cube(bundle, noisy, budgets=[3, 6])
        for k in (3, 6):
            direct = denoise_cube(at_budget(bundle, k), noisy)
            assert np.array_equal(staged[k].data, direct.data)

    def test_zero_tile_cube_passthrough_per_budget(self):
        small = HyperCube(np.random.default_rng(3).uniform(0, 1, (4, 3, 3)))
        staged = denoise_cube(tiny_bundle(), small, budgets=[1, 2])
        assert sorted(staged) == [1, 2]
        for cube in staged.values():
            assert np.array_equal(cube.data, small.data)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("budgets", [[0], [3, 0], [-1], []])
    def test_budget_below_one_rejected(self, engine, budgets):
        bundle = tiny_bundle(engine)
        Y = np.random.default_rng(7).normal(size=(4, 16))
        noisy, _ = noisy_cube(seed=7)
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            denoise_block(bundle, Y, budgets=budgets)
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            denoise_cube(bundle, noisy, budgets=budgets)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    @pytest.mark.parametrize("budgets, bad", [
        ([2.5], 2.5), ([3, 2.0], 2.0), ([True, 2], True),
        ([np.True_], np.True_), ([np.float64(3.0)], np.float64(3.0)),
        (["3"], "3")])
    def test_non_integer_budget_rejected(self, engine, budgets, bad):
        bundle = tiny_bundle(engine)
        Y = np.random.default_rng(7).normal(size=(4, 16))
        noisy, _ = noisy_cube(seed=7)
        match = f"budgets must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            denoise_block(bundle, Y, budgets=budgets)
        with pytest.raises(ValueError, match=match):
            denoise_cube(bundle, noisy, budgets=budgets)

    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_numpy_integer_budgets_accepted(self, engine):
        bundle = tiny_bundle(engine)
        Y = np.random.default_rng(8).normal(size=(4, 16))
        noisy, _ = noisy_cube(seed=8)
        ints = [np.int64(4), np.int32(2)]
        block = denoise_block(bundle, Y, budgets=ints)
        cube = denoise_cube(bundle, noisy, budgets=ints)
        assert sorted(block) == sorted(cube) == [2, 4]
        for k in (2, 4):
            assert np.array_equal(block[k],
                                  denoise_block(bundle, Y, budgets=[k])[k])
            assert np.array_equal(
                cube[k].data, denoise_cube(bundle, noisy, budgets=[k])[k].data)


class TestSweepIterations:
    @pytest.mark.parametrize("engine", ["deq", "du"])
    def test_rows_are_budgeted_cube_psnr(self, engine):
        bundle = tiny_bundle(engine)
        noisy, clean = noisy_cube(seed=8)
        rows = sweep_iterations(bundle, [(noisy, clean)], [5, 2, 5])
        assert [r["iters"] for r in rows] == [2, 5]
        for row in rows:
            k = row["iters"]
            assert row["engine"] == engine
            assert row["psnr"] == psnr(
                denoise_cube(bundle, noisy, budgets=[k])[k], clean)


class TestBundleRoundTrip:
    def test_checkpointed_model_reproduces_output(self, tmp_path):
        bundle = tiny_bundle()
        noisy, _ = noisy_cube(seed=7)
        before = denoise_cube(bundle, noisy)
        p = tmp_path / "model.dqc1"
        save_model_bundle(p, bundle)
        back, _ = load_model_bundle(p)
        after = denoise_cube(back, noisy)
        assert np.array_equal(before.data, after.data)
