import math

import numpy as np
import pytest

from blocksc import metrics as mx
from blocksc.cubes import HyperCube, synth_cube
from blocksc.dictionary import normalize_atoms


def random_cube(d, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return HyperCube(rng.uniform(0, 1, size=(d, h, w)))


class TestPsnr:
    def test_identical_capped_at_100(self):
        cube = random_cube(3, 12, 12, seed=0)
        assert mx.psnr(cube, cube) == 100.0

    def test_constant_offset_is_20db(self):
        ref = random_cube(4, 16, 16, seed=1)
        x = HyperCube(ref.data + 0.1)
        assert mx.psnr(x, ref) == pytest.approx(20.0, abs=1e-9)

    def test_direct_formula_oracle(self):
        x = random_cube(5, 14, 11, seed=2)
        ref = random_cube(5, 14, 11, seed=3)
        # independent recomputation straight from the definition
        vals = []
        for band in range(5):
            mse = np.mean((x.data[band] - ref.data[band]) ** 2)
            vals.append(10.0 * math.log10(1.0 / mse))
        assert abs(mx.psnr(x, ref) - np.mean(vals)) < 1e-9

    def test_symmetry(self):
        x = random_cube(3, 12, 12, seed=4)
        ref = random_cube(3, 12, 12, seed=5)
        assert mx.psnr(x, ref) == mx.psnr(ref, x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mx.psnr(random_cube(3, 8, 8), random_cube(3, 8, 9))

    def test_block_psnr_cap(self):
        blk = np.ones((4, 9))
        assert mx.block_psnr(blk, blk) == 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_band_scores_nan(self, bad):
        ref = random_cube(3, 8, 8, seed=20)
        x = HyperCube(ref.data.copy())
        x.data[1, 2, 3] = bad  # min(100, nan) would give the cap
        scores = mx.band_psnr(x, ref)
        assert scores[0] == scores[2] == 100.0
        assert math.isnan(scores[1])
        assert math.isnan(mx.psnr(x, ref))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_scores_nan(self, bad):
        blk = np.ones((4, 9))
        assert math.isnan(mx.block_psnr(np.full_like(blk, bad), blk))
        assert math.isnan(mx.block_psnr(blk, np.full_like(blk, bad)))


class TestSsim:
    def test_identical_is_one(self):
        cube = random_cube(3, 16, 16, seed=6)
        assert mx.ssim(cube, cube) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_contrast_low(self):
        D = normalize_atoms(np.random.default_rng(7).normal(size=(6, 12)))
        ref = synth_cube(6, 48, 48, D, s=3, smoothness=2.0, seed=7)
        x = HyperCube(1.0 - ref.data)
        assert mx.ssim(x, ref) < 0.3

    def test_window_error_on_small_images(self):
        with pytest.raises(ValueError, match="window"):
            mx.ssim(random_cube(2, 8, 8), random_cube(2, 8, 8))

    def test_symmetry(self):
        x = random_cube(2, 14, 14, seed=9)
        ref = random_cube(2, 14, 14, seed=10)
        assert abs(mx.ssim(x, ref) - mx.ssim(ref, x)) < 1e-9

    def test_matches_reference_implementation(self):
        skimage = pytest.importorskip("skimage.metrics")
        x = random_cube(1, 24, 24, seed=11)
        ref = random_cube(1, 24, 24, seed=12)
        theirs = skimage.structural_similarity(
            x.data[0], ref.data[0], data_range=1.0, gaussian_weights=True,
            sigma=1.5, use_sample_covariance=False)
        assert abs(mx.ssim(x, ref) - theirs) < 1e-9


class TestSam:
    def test_scale_invariance(self):
        ref = random_cube(4, 10, 10, seed=13)
        x = HyperCube(2.0 * ref.data)
        assert mx.sam(x, ref) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_spectra(self):
        x = np.zeros((2, 5, 5))
        ref = np.zeros((2, 5, 5))
        x[0] = 1.0
        ref[1] = 1.0
        assert mx.sam(HyperCube(x), HyperCube(ref)) == pytest.approx(np.pi / 2)

    def test_per_pixel_oracle(self):
        x = random_cube(6, 9, 7, seed=14)
        ref = random_cube(6, 9, 7, seed=15)
        total = []
        for i in range(9):
            for j in range(7):
                a = x.data[:, i, j]
                b = ref.data[:, i, j]
                c = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                total.append(np.arccos(np.clip(c, -1, 1)))
        assert abs(mx.sam(x, ref) - np.mean(total)) < 1e-12

    def test_zero_norm_pixels_skipped_and_counted(self):
        x = random_cube(3, 4, 4, seed=16)
        ref = random_cube(3, 4, 4, seed=17)
        x.data[:, 0, 0] = 0.0
        ref.data[:, 2, 2] = 0.0
        angle, skipped = mx.sam_with_count(x, ref)
        assert skipped == 2
        assert np.isfinite(angle)

    def test_no_pixel_to_compare_is_nan(self):
        # an all-zero estimate matches nothing: not a perfect 0 angle
        ref = random_cube(3, 4, 4, seed=24)
        zero = HyperCube(np.zeros_like(ref.data))
        for x, y in ((zero, ref), (ref, zero), (zero, zero)):
            angle, skipped = mx.sam_with_count(x, y)
            assert math.isnan(angle)
            assert skipped == 16
        assert math.isnan(mx.sam(zero, ref))

    def test_all_nan_input_is_nan(self):
        ref = random_cube(3, 4, 4, seed=21)
        x = HyperCube(np.full_like(ref.data, np.nan))
        assert math.isnan(mx.sam(x, ref))
        assert math.isnan(mx.sam(ref, x))

    def test_one_nan_pixel_is_nan(self):
        x = random_cube(3, 4, 4, seed=22)
        ref = random_cube(3, 4, 4, seed=23)
        x.data[0, 1, 1] = np.nan
        angle, skipped = mx.sam_with_count(x, ref)
        assert math.isnan(angle)
        assert skipped == 0

    def test_symmetry(self):
        x = random_cube(3, 8, 8, seed=18)
        ref = random_cube(3, 8, 8, seed=19)
        assert mx.sam(x, ref) == pytest.approx(mx.sam(ref, x), abs=1e-12)
