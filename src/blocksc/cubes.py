"""Hyperspectral cube handling: tiling into signal blocks, noise, synthesis.

A cube is stored band-major as a (bands, height, width) float64 array with
values normalized to [0, 1].  An n x n spatial patch stacks into a d x N
signal block (N = n^2) whose column j is the spectrum of patch pixel
(j // n, j % n).

An HSC1 file holds one cube in the container layout ``checkpoint`` owns:
its one entry, the band-major samples, must fill the payload exactly.

``scipy.ndimage`` is imported inside ``_smooth_field``, which only
``synth_cube`` calls, so other users do not pay its 0.4 s import; the filter
stays scipy's, so generated cubes stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import _DTYPES, read_container, write_container

MAGIC_HSC1 = b"HSC1\x00\x00\x00\x00"
_HSC1_DTYPES = ("f64", "f32")


@dataclass
class HyperCube:
    data: np.ndarray  # (bands, height, width)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[0] < 1:
            raise ValueError(f"cube data must be (bands, h, w), got {self.data.shape}")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass
class SignalBlock:
    matrix: np.ndarray  # (d, N)
    n: int
    origin: tuple  # (row, col) of the patch in the source cube

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]


@dataclass
class BlockSet:
    blocks: list
    cube_shape: tuple  # (height, width, bands)
    n: int


@dataclass
class NoiseModel:
    sigma_255: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma_255 < 0:
            raise ValueError("sigma_255 must be >= 0")

    @property
    def sigma(self) -> float:
        """Effective std on [0, 1]-normalized data."""
        return self.sigma_255 / 255.0


def block_from_patch(patch: np.ndarray, origin=(0, 0)) -> SignalBlock:
    """Stack a (d, n, n) patch into a d x N block, row-major pixel order."""
    d, n, n2 = patch.shape
    if n != n2:
        raise ValueError(f"patch {patch.shape} is not square")
    return SignalBlock(patch.reshape(d, n * n).copy(), n, tuple(origin))


def patch_from_block(block: SignalBlock) -> np.ndarray:
    return block.matrix.reshape(block.d, block.n, block.n)


def split_blocks(cube: HyperCube, n: int) -> BlockSet:
    """Tile the cube into non-overlapping n x n blocks, row-major scan order.

    Trailing rows/columns that do not fill a whole block are cropped.
    Every block's ``matrix`` is an owned, writable copy that shares no
    memory with ``cube.data``, so a caller may overwrite it in place.
    """
    if n < 1:
        raise ValueError("patch side n must be >= 1")
    h, w = cube.height, cube.width
    if n > min(h, w):
        raise ValueError(f"empty tiling: n={n} exceeds cube extent {h}x{w}")
    blocks = []
    for bi in range(h // n):
        for bj in range(w // n):
            patch = cube.data[:, bi * n:(bi + 1) * n, bj * n:(bj + 1) * n]
            blocks.append(block_from_patch(patch, (bi * n, bj * n)))
    return BlockSet(blocks, (h, w, cube.bands), n)


def reassemble(blocks: BlockSet, base: HyperCube | None = None) -> HyperCube:
    """Place blocks back by origin; exact inverse of split_blocks on the tiles.

    The cropped border is copied from ``base`` when given, else left zero.
    """
    h, w, d = blocks.cube_shape
    n = blocks.n
    if base is not None:
        if base.data.shape != (d, h, w):
            raise ValueError("base cube shape does not match block set")
        out = base.data.copy()
    else:
        out = np.zeros((d, h, w))
    for blk in blocks.blocks:
        r, c = blk.origin
        if blk.n != n or blk.d != d or r % n or c % n or r + n > h or c + n > w:
            raise ValueError(f"inconsistent block at origin {blk.origin}")
        out[:, r:r + n, c:c + n] = patch_from_block(blk)
    return HyperCube(out)


def add_noise(cube: HyperCube, nm: NoiseModel) -> HyperCube:
    """Add i.i.d. N(0, (sigma_255/255)^2) noise; values are not clipped."""
    rng = np.random.default_rng(nm.seed)
    noisy = cube.data + rng.normal(0.0, 1.0, cube.data.shape) * nm.sigma
    return HyperCube(noisy)


def _smooth_field(rng, h, w, length_scale):
    from scipy.ndimage import gaussian_filter

    noise = rng.normal(size=(h, w))
    if length_scale <= 0:
        return noise
    # beyond the cube extent the filtered field is flat anyway
    sigma = min(length_scale, float(max(h, w)))
    return gaussian_filter(noise, sigma=sigma, mode="reflect")


def synth_cube(d: int, h: int, w: int, D, s: int, smoothness: float,
               seed: int = 0) -> HyperCube:
    """Generate a piecewise-smooth cube whose regions are s-sparse in D.

    The plane is partitioned by fixed-level thresholding of a Gaussian
    random field smoothed at the given length scale (larger scales give
    fewer, larger regions; the amplitude shrinks with smoothing, so a very
    large scale collapses to a single region).  Each region draws one
    support of size s and per-pixel coefficients that vary smoothly inside
    it.  The result is min-max normalized to [0, 1].
    """
    atoms = D.atoms if hasattr(D, "atoms") else np.asarray(D, dtype=np.float64)
    M = atoms.shape[1]
    if not (s <= d <= M):
        raise ValueError(f"need s <= d <= M, got s={s}, d={d}, M={M}")
    if atoms.shape[0] != d:
        raise ValueError("dictionary row count must equal d")
    rng = np.random.default_rng(seed)

    field_vals = _smooth_field(rng, h, w, smoothness)
    edges = np.array([-0.2, -0.05, 0.05, 0.2])
    labels = np.digitize(field_vals, edges)

    cube = np.zeros((d, h, w))
    for lab in np.unique(labels):
        mask = labels == lab
        support = np.sort(rng.choice(M, size=s, replace=False))
        base = rng.uniform(0.4, 1.2, size=s) * rng.choice([-1.0, 1.0], size=s)
        coeffs = np.empty((s, h, w))
        for k in range(s):
            wiggle = _smooth_field(rng, h, w, max(smoothness, 1.0))
            scale = max(np.abs(wiggle).max(), 1e-12)
            coeffs[k] = base[k] * (1.0 + 0.25 * wiggle / scale)
        region = np.einsum("dk,khw->dhw", atoms[:, support], coeffs)
        cube[:, mask] = region[:, mask]

    lo, hi = cube.min(), cube.max()
    if hi > lo:
        cube = (cube - lo) / (hi - lo)
    return HyperCube(cube)


# ---------------------------------------------------------------------------
# HSC1 cube container: a header schema over checkpoint's framing


def write_hsc1(path, cube: HyperCube, dtype: str = "f64") -> None:
    """Write a cube as magic + JSON header line + raw little-endian samples."""
    if dtype not in _HSC1_DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    header = {"height": cube.height, "width": cube.width, "bands": cube.bands,
              "dtype": dtype, "order": "band-major"}
    write_container(path, MAGIC_HSC1, header, [np.ascontiguousarray(
        cube.data, dtype=_DTYPES[dtype])])


def read_hsc1(path) -> HyperCube:
    def index(header):  # the one entry, once the header checks out
        for key, ok in (("dtype", _HSC1_DTYPES), ("order", ("band-major",))):
            if header.get(key) not in ok:
                raise ValueError(
                    f"{path}: unsupported {key} {header.get(key)!r}")
        for key in ("bands", "height", "width"):
            if type(header.get(key)) is not int:
                raise ValueError(f"{path}: no int header {key!r}")
        return {"cube": {"dtype": header["dtype"], "offset": 0, "shape": [
            header[key] for key in ("bands", "height", "width")]}}

    data = read_container(path, MAGIC_HSC1, "an HSC1 file", "header",
                          index)["cube"]
    if len(data) < 1:
        raise ValueError(f"{path}: a cube needs at least one band")
    return HyperCube(data)
