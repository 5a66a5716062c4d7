import numpy as np
import pytest

from blocksc import cubes as C


def random_cube(d, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return C.HyperCube(rng.uniform(0, 1, size=(d, h, w)))


class TestSplitBlocks:
    def test_block_count_and_shape(self):
        cube = random_cube(31, 120, 120, seed=1)
        bs = C.split_blocks(cube, 60)
        assert len(bs.blocks) == 4
        assert all(b.matrix.shape == (31, 3600) for b in bs.blocks)

    def test_icvl_scale_tiling_arithmetic(self):
        # 1300 // 60 = 21 per axis; the 40-pixel remainder is cropped
        assert (1300 // 60) ** 2 == 441
        cube = random_cube(2, 130, 130, seed=2)
        bs = C.split_blocks(cube, 60)
        assert len(bs.blocks) == 4  # 130//60 = 2 per axis, 10 px cropped

    def test_single_pixel_blocks(self):
        cube = random_cube(31, 3, 2, seed=3)
        bs = C.split_blocks(cube, 1)
        assert len(bs.blocks) == 6
        assert bs.blocks[0].matrix.shape == (31, 1)

    def test_column_order_is_row_major(self):
        cube = random_cube(4, 4, 4, seed=4)
        bs = C.split_blocks(cube, 2)
        blk = bs.blocks[1]  # origin (0, 2)
        assert blk.origin == (0, 2)
        # column j is the spectrum of patch pixel (j // n, j % n)
        assert np.array_equal(blk.matrix[:, 3], cube.data[:, 1, 3])

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_blocks_are_owned_writable_copies(self, n):
        data = np.random.default_rng(12).uniform(0, 1, (3, 9, 9))
        data.flags.writeable = False
        cube = C.HyperCube(data)
        for blk in C.split_blocks(cube, n).blocks:
            assert blk.matrix.flags.writeable
            assert not np.shares_memory(blk.matrix, cube.data)

    def test_empty_tiling_error(self):
        with pytest.raises(ValueError, match="empty tiling"):
            C.split_blocks(random_cube(3, 4, 4), 5)

    def test_non_square_patch_error(self):
        with pytest.raises(ValueError, match="not square"):
            C.block_from_patch(np.zeros((2, 3, 4)))


class TestReassemble:
    def test_round_trip_bitwise(self):
        cube = random_cube(8, 60, 60, seed=5)
        out = C.reassemble(C.split_blocks(cube, 30))
        assert np.array_equal(out.data, cube.data)

    def test_single_block_identity(self):
        cube = random_cube(5, 8, 8, seed=6)
        out = C.reassemble(C.split_blocks(cube, 8))
        assert np.array_equal(out.data, cube.data)

    def test_shuffled_blocks_place_by_origin(self):
        cube = random_cube(3, 9, 9, seed=7)
        bs = C.split_blocks(cube, 3)
        rng = np.random.default_rng(8)
        shuffled = list(bs.blocks)
        rng.shuffle(shuffled)
        out = C.reassemble(C.BlockSet(shuffled, bs.cube_shape, bs.n))
        assert np.array_equal(out.data, cube.data)

    def test_cropped_border_fill(self):
        cube = random_cube(2, 7, 7, seed=9)
        bs = C.split_blocks(cube, 3)
        filled = C.reassemble(bs, base=cube)
        assert np.array_equal(filled.data, cube.data)
        zeros = C.reassemble(bs)
        assert np.all(zeros.data[:, 6:, :] == 0)

    def test_inconsistent_origin_error(self):
        cube = random_cube(2, 6, 6, seed=10)
        bs = C.split_blocks(cube, 3)
        bs.blocks[0].origin = (1, 0)
        with pytest.raises(ValueError, match="inconsistent"):
            C.reassemble(bs)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        cube = random_cube(4, 10, 10, seed=11)
        out = C.add_noise(cube, C.NoiseModel(0.0, seed=1))
        assert np.array_equal(out.data, cube.data)

    def test_empirical_std(self):
        cube = random_cube(31, 60, 60, seed=12)
        noisy = C.add_noise(cube, C.NoiseModel(50.0, seed=2))
        resid = noisy.data - cube.data
        assert abs(resid.std() - 50.0 / 255.0) < 0.02 * (50.0 / 255.0)

    def test_seed_determinism(self):
        cube = random_cube(3, 12, 12, seed=13)
        nm = C.NoiseModel(30.0, seed=77)
        a = C.add_noise(cube, nm)
        b = C.add_noise(cube, nm)
        assert np.array_equal(a.data, b.data)

    def test_mean_preservation(self):
        cube = random_cube(16, 64, 64, seed=14)
        nm = C.NoiseModel(50.0, seed=3)
        resid = C.add_noise(cube, nm).data - cube.data
        count = resid.size
        assert abs(resid.mean()) < 3 * nm.sigma / np.sqrt(count)


class TestSynthCube:
    def _dictionary(self, d, M, seed=0):
        rng = np.random.default_rng(seed)
        atoms = rng.normal(size=(d, M))
        return atoms / np.linalg.norm(atoms, axis=0)

    def test_infinite_smoothness_single_support(self):
        D = self._dictionary(8, 16, seed=1)
        cube = C.synth_cube(8, 32, 32, D, s=3, smoothness=1e9, seed=5)
        # a single region => every spectrum lies in one 3-dim subspace
        X = cube.data.reshape(8, -1)
        Xc = X - X.mean(axis=1, keepdims=True)
        sv = np.linalg.svd(Xc, compute_uv=False)
        assert sv[3:].max() < 1e-8 * max(sv[0], 1e-12)

    def test_identity_dictionary_single_atom(self):
        cube = C.synth_cube(4, 16, 16, np.eye(4), s=1, smoothness=1e9, seed=6)
        X = cube.data.reshape(4, -1)
        nonzero_bands = np.nonzero(np.ptp(X, axis=1) > 1e-12)[0]
        assert len(nonzero_bands) <= 1

    def test_local_angles_below_cross_region(self):
        D = self._dictionary(12, 24, seed=2)
        cube = C.synth_cube(12, 64, 64, D, s=4, smoothness=2.5, seed=7)
        X = cube.data + 1e-9
        flat = X.reshape(12, -1)

        def angle(a, b):
            c = (a * b).sum(axis=0) / (
                np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0) + 1e-30)
            return np.arccos(np.clip(c, -1, 1))

        adjacent = angle(X[:, :, :-1].reshape(12, -1), X[:, :, 1:].reshape(12, -1))
        rng = np.random.default_rng(8)
        i = rng.integers(0, flat.shape[1], size=4000)
        j = rng.integers(0, flat.shape[1], size=4000)
        far = angle(flat[:, i], flat[:, j])
        assert np.median(adjacent) < np.median(far)

    def test_range_normalized(self):
        D = self._dictionary(6, 12, seed=3)
        cube = C.synth_cube(6, 20, 20, D, s=2, smoothness=2.0, seed=9)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0

    def test_precondition(self):
        D = self._dictionary(4, 8)
        with pytest.raises(ValueError):
            C.synth_cube(4, 8, 8, D, s=5, smoothness=1.0)


class TestHsc1:
    def test_round_trip_bit_exact(self, tmp_path):
        cube = random_cube(5, 9, 7, seed=15)
        p = tmp_path / "a.hsc1"
        C.write_hsc1(p, cube)
        back = C.read_hsc1(p)
        assert np.array_equal(back.data, cube.data)
        p2 = tmp_path / "b.hsc1"
        C.write_hsc1(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_f32_round_trip(self, tmp_path):
        cube = random_cube(3, 6, 6, seed=16)
        p = tmp_path / "a32.hsc1"
        C.write_hsc1(p, cube, dtype="f32")
        back = C.read_hsc1(p)
        p2 = tmp_path / "b32.hsc1"
        C.write_hsc1(p2, back, dtype="f32")
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_loads_writable(self, tmp_path, dtype):
        p = tmp_path / "a.hsc1"
        C.write_hsc1(p, random_cube(2, 3, 3, seed=19), dtype=dtype)
        back = C.read_hsc1(p)
        assert back.data.flags.writeable

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.hsc1"
        p.write_bytes(b"NOTHSC10" + b"{}\n")
        with pytest.raises(ValueError, match="HSC1"):
            C.read_hsc1(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "a.hsc1"
        C.write_hsc1(p, random_cube(2, 3, 3, seed=17))
        raw = p.read_bytes()
        p.write_bytes(raw[:raw.index(b"\n")])
        with pytest.raises(ValueError, match=r"a\.hsc1: truncated header"):
            C.read_hsc1(p)

    @pytest.mark.parametrize("field, value", [("dtype", "f16"),
                                              ("order", "pixel-major")])
    def test_unsupported_header_value(self, tmp_path, field, value):
        p = tmp_path / "a.hsc1"
        C.write_hsc1(p, random_cube(2, 3, 3, seed=20))
        good = {"dtype": "f64", "order": "band-major"}[field]
        p.write_bytes(p.read_bytes().replace(
            f'"{field}": "{good}"'.encode(), f'"{field}": "{value}"'.encode()))
        with pytest.raises(ValueError,
                           match=rf"a\.hsc1: unsupported {field} '{value}'"):
            C.read_hsc1(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.hsc1"
        C.write_hsc1(p, random_cube(2, 3, 3, seed=18))
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match=r"a\.hsc1: entry 'cube' needs "
                           r"payload bytes 0\.\.144, the file holds 143"):
            C.read_hsc1(p)


class TestIndexMapping:
    def test_exhaustive_small_cube(self):
        cube = random_cube(3, 4, 6, seed=17)
        bs = C.split_blocks(cube, 2)
        for blk in bs.blocks:
            r0, c0 = blk.origin
            for j in range(blk.N):
                pr, pc = divmod(j, blk.n)
                assert np.array_equal(blk.matrix[:, j],
                                      cube.data[:, r0 + pr, c0 + pc])
