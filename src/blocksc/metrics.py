"""Reconstruction quality metrics and the iteration-budget study.

PSNR is computed per band against peak 1.0 and averaged (the mean-PSNR
convention used for hyperspectral comparisons); ``block_psnr`` is the
whole-block PSNR that training validation reports.  SSIM follows the
standard 11x11 Gaussian-window definition per band, and SAM is the mean
spectral angle over pixels in radians.  A non-finite reconstruction scores
NaN in each of them, never the 100 dB cap or a zero angle, so a diverged
estimate cannot rank as the best one.  SAM is NaN too when no pixel has
a nonzero norm on both sides, as for an all-zero estimate.

``scipy.signal`` is imported inside ``_ssim_stats``, its one user: at module
level it cost every process, solves and training included, about 1 s.
"""

from __future__ import annotations

import math

import numpy as np

from .cubes import HyperCube

PSNR_CAP_DB = 100.0
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_SIGMA = 1.5
SSIM_WINDOW = 11


def _as_data(x) -> np.ndarray:
    return x.data if isinstance(x, HyperCube) else np.asarray(x, dtype=np.float64)


def _check_same_shape(x, ref):
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")


def band_psnr(x, ref) -> list:
    """Per-band PSNR in dB, capped at 100 dB; NaN for a non-finite band."""
    x = _as_data(x)
    ref = _as_data(ref)
    _check_same_shape(x, ref)
    out = []
    for band in range(x.shape[0]):
        mse = float(np.mean((x[band] - ref[band]) ** 2))
        if mse == 0.0:
            out.append(PSNR_CAP_DB)
        elif not math.isfinite(mse):
            out.append(math.nan)
        else:
            out.append(min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse)))
    return out


def psnr(x, ref) -> float:
    return float(np.mean(band_psnr(x, ref)))


def block_psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """PSNR of a signal block (used by training validation)."""
    mse = float(np.mean((np.asarray(x) - np.asarray(ref)) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    if not math.isfinite(mse):
        return math.nan
    return float(min(PSNR_CAP_DB, -10.0 * np.log10(mse)))


def _gaussian_window():
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def _ssim_stats(a: np.ndarray, b: np.ndarray):
    from scipy.signal import convolve2d

    kernel = _gaussian_window()
    mu1 = convolve2d(a, kernel, mode="valid")
    mu2 = convolve2d(b, kernel, mode="valid")
    s11 = convolve2d(a * a, kernel, mode="valid") - mu1 * mu1
    s22 = convolve2d(b * b, kernel, mode="valid") - mu2 * mu2
    s12 = convolve2d(a * b, kernel, mode="valid") - mu1 * mu2
    return mu1, mu2, s11, s22, s12


def ssim(x, ref) -> float:
    """Mean per-band SSIM, 11x11 Gaussian window, standard constants."""
    x = _as_data(x)
    ref = _as_data(ref)
    _check_same_shape(x, ref)
    if min(x.shape[1], x.shape[2]) < SSIM_WINDOW:
        raise ValueError(
            f"spatial dims {x.shape[1:]} smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window")
    c1 = SSIM_K1 ** 2  # data range 1.0
    c2 = SSIM_K2 ** 2
    vals = []
    for band in range(x.shape[0]):
        mu1, mu2, s11, s22, s12 = _ssim_stats(x[band], ref[band])
        num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
        den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def sam_with_count(x, ref):
    """(mean spectral angle in radians, skipped zero-norm pixel count).

    A pixel with a NaN or infinite norm is kept: the mean comes out NaN.
    With no pixel of nonzero norm on both sides the angle is NaN too.
    """
    x = _as_data(x)
    ref = _as_data(ref)
    _check_same_shape(x, ref)
    xf = x.reshape(x.shape[0], -1)
    rf = ref.reshape(ref.shape[0], -1)
    nx = np.linalg.norm(xf, axis=0)
    nr = np.linalg.norm(rf, axis=0)
    valid = (nx != 0) & (nr != 0)
    skipped = int((~valid).sum())
    if not valid.any():
        return math.nan, skipped
    cosine = (xf[:, valid] * rf[:, valid]).sum(axis=0) / (nx[valid] * nr[valid])
    angles = np.arccos(np.clip(cosine, -1.0, 1.0))
    return float(angles.mean()), skipped


def sam(x, ref) -> float:
    return sam_with_count(x, ref)[0]


# ---------------------------------------------------------------------------
# iteration-budget study


def sweep_iterations(bundle, pairs, iters_list) -> list:
    """PSNR of the reconstruction at each iteration budget.

    ``pairs`` is a list of (noisy HyperCube, clean HyperCube).  The
    equilibrium engine varies the fixed-point cap; the unrolled engine
    truncates or extends the layer count.  One solve at the largest
    budget yields every row since the trajectory is deterministic.
    Returns rows of {engine, iters, psnr}.
    """
    from .pipeline import denoise_cube

    per_budget = {}
    for noisy, clean in pairs:
        for k, cube in denoise_cube(bundle, noisy, iters_list).items():
            per_budget.setdefault(k, []).append(psnr(cube, clean))
    return [{"engine": bundle.engine, "iters": k,
             "psnr": float(np.mean(v))} for k, v in per_budget.items()]
