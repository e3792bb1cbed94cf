"""Thermal preprocessing: per-frame normalization of deg C temperature maps,
multi-palette pseudo-color rendering, and CLAHE.

The four palettes (ironbow, whitehot, rainbow, sepia) are read-only
(256, 3) uint8 RGB lookup tables, each built from its generator in
_build_palette once per process, on its first load_palette.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

PALETTE_NAMES = ("ironbow", "whitehot", "rainbow", "sepia")

ABSOLUTE_ZERO_C = -273.15


class ThermalError(ValueError):
    pass


class CalibrationError(ThermalError):
    pass


@dataclass(frozen=True)
class TemperatureMap:
    temp_c: np.ndarray  # float64, shape (H, W)

    def __post_init__(self):
        t = np.asarray(self.temp_c, dtype=np.float64)
        if t.ndim != 2 or t.size == 0:
            raise ThermalError("temperature map must be a non-empty 2-D array")
        if not np.all(np.isfinite(t)):
            raise ThermalError("temperature map contains non-finite values")
        if np.any(t <= ABSOLUTE_ZERO_C):
            raise CalibrationError("temperature at or below absolute zero")
        object.__setattr__(self, "temp_c", t)


@dataclass(frozen=True)
class RgbImage:
    pixels: np.ndarray  # uint8, shape (H, W, 3)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim != 3 or px.shape[2] != 3 or px.size == 0:
            raise ThermalError("RGB image must have shape (H, W, 3)")
        object.__setattr__(self, "pixels", px)


def normalize_temperature(temp_c: np.ndarray) -> np.ndarray:
    """Per-frame min-max normalization of (..., H, W) deg C frames to [0, 1],
    each frame on its own; constant frames map to 0.5."""
    t = np.asarray(temp_c, dtype=np.float64)
    lo = t.min(axis=(-2, -1), keepdims=True)
    span = t.max(axis=(-2, -1), keepdims=True) - lo
    flat = span <= 0.0
    return np.where(flat, 0.5, (t - lo) / np.where(flat, 1.0, span))


def palette_index(gray: np.ndarray) -> np.ndarray:
    """LUT rows of a [0, 1] grayscale array of any shape: colorize it
    through a palette as load_palette(name)[palette_index(gray)]."""
    g = np.asarray(gray, dtype=np.float64)
    if g.min() < 0.0 or g.max() > 1.0:
        raise ThermalError("grayscale input must lie in [0, 1]")
    return np.rint(g * 255.0).astype(np.intp)


# ---------------------------------------------------------------------------
# Palette LUT construction
# ---------------------------------------------------------------------------

def _interp_channel(xs, ys):
    return np.clip(np.rint(np.interp(np.arange(256), xs, ys)), 0, 255).astype(np.uint8)


def _build_palette(name: str) -> np.ndarray:
    i = np.arange(256, dtype=np.float64)
    if name == "whitehot":
        # Identity gray; injective by construction.
        g = i.astype(np.uint8)
        return np.stack([g, g, g], axis=1)
    if name == "rainbow":
        # Hue ramp blue (240 deg) -> red (0 deg), full saturation/value.
        hue = 240.0 * (1.0 - i / 255.0)
        rgb = np.empty((256, 3), dtype=np.uint8)
        for k, h in enumerate(hue):
            sector = int(h // 60.0) % 6
            f = h / 60.0 - math.floor(h / 60.0)
            v, p = 255.0, 0.0
            q = v * (1.0 - f)
            t = v * f
            r, g, b = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][sector]
            rgb[k] = (round(r), round(g), round(b))
        return rgb
    if name == "ironbow":
        xs = [0, 64, 128, 192, 255]
        r = _interp_channel(xs, [0, 96, 220, 255, 255])
        g = _interp_channel(xs, [0, 0, 60, 160, 255])
        b = _interp_channel(xs, [0, 130, 90, 20, 240])
        return np.stack([r, g, b], axis=1)
    if name == "sepia":
        # Gray through a fixed warm tint matrix.
        r = np.clip(np.rint(i * 1.351), 0, 255).astype(np.uint8)
        g = np.clip(np.rint(i * 1.203), 0, 255).astype(np.uint8)
        b = np.clip(np.rint(i * 0.937), 0, 255).astype(np.uint8)
        return np.stack([r, g, b], axis=1)
    raise ThermalError(f"unknown palette: {name}")


@functools.cache
def load_palette(name: str) -> np.ndarray:
    """One of the four palette LUTs, a (256, 3) uint8 RGB table built from
    its generator on first use. Every caller shares it, so it is read-only."""
    table = _build_palette(name)
    table.flags.writeable = False
    return table


def load_all_palettes() -> list:
    return [load_palette(n) for n in PALETTE_NAMES]


# ---------------------------------------------------------------------------
# CLAHE
# ---------------------------------------------------------------------------

def _tile_mapping(tile: np.ndarray, clip_limit: float, n_bins: int) -> np.ndarray:
    """Equalization mapping for one tile: clipped histogram -> CDF -> levels.

    The mapping convention is m(v) = round(cdf(v) * (n_bins - 1)) with cdf
    inclusive of v, so an unclipped single tile reproduces global histogram
    equalization exactly.
    """
    hist = np.bincount(tile.ravel(), minlength=n_bins).astype(np.float64)
    n = hist.sum()
    if math.isfinite(clip_limit):
        ceiling = clip_limit * n / n_bins
        excess = np.maximum(hist - ceiling, 0.0).sum()
        hist = np.minimum(hist, ceiling)
        hist += excess / n_bins  # uniform redistribution, fixed order
    cdf = np.cumsum(hist) / hist.sum()
    return np.rint(cdf * (n_bins - 1))


def clahe(image: np.ndarray, tile_grid=(8, 8), clip_limit: float = 3.0,
          n_bins: int = 256) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization on a single channel.

    Per-tile histograms are clipped at clip_limit x the uniform bin height
    with the excess redistributed uniformly; per-pixel values are bilinearly
    interpolated between the mappings of the four surrounding tile centers.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ThermalError("clahe operates on single-channel rasters")
    rows, cols = tile_grid
    h, w = img.shape
    if rows < 1 or cols < 1 or clip_limit < 1.0:
        raise ThermalError("tile grid must be >= 1x1 and clip_limit >= 1")
    if h < rows or w < cols:
        raise ThermalError("tile grid larger than image")
    img_u = np.clip(img, 0, n_bins - 1).astype(np.intp)

    row_edges = np.linspace(0, h, rows + 1).astype(int)
    col_edges = np.linspace(0, w, cols + 1).astype(int)
    maps = np.empty((rows, cols, n_bins))
    centers_r = np.empty(rows)
    centers_c = np.empty(cols)
    for i in range(rows):
        centers_r[i] = (row_edges[i] + row_edges[i + 1] - 1) / 2.0
        for j in range(cols):
            tile = img_u[row_edges[i]:row_edges[i + 1], col_edges[j]:col_edges[j + 1]]
            maps[i, j] = _tile_mapping(tile, clip_limit, n_bins)
    for j in range(cols):
        centers_c[j] = (col_edges[j] + col_edges[j + 1] - 1) / 2.0

    rr = np.arange(h, dtype=np.float64)
    cc = np.arange(w, dtype=np.float64)
    # Tile-center interpolation coordinates, clamped at the borders.
    i0 = np.clip(np.searchsorted(centers_r, rr, side="right") - 1, 0, rows - 1)
    j0 = np.clip(np.searchsorted(centers_c, cc, side="right") - 1, 0, cols - 1)
    i1 = np.minimum(i0 + 1, rows - 1)
    j1 = np.minimum(j0 + 1, cols - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fr = np.where(i1 > i0, (rr - centers_r[i0]) / (centers_r[i1] - centers_r[i0]), 0.0)
        fc = np.where(j1 > j0, (cc - centers_c[j0]) / (centers_c[j1] - centers_c[j0]), 0.0)
    fr = np.clip(fr, 0.0, 1.0)[:, None]
    fc = np.clip(fc, 0.0, 1.0)[None, :]

    vals = img_u
    m00 = maps[i0[:, None], j0[None, :], vals]
    m01 = maps[i0[:, None], j1[None, :], vals]
    m10 = maps[i1[:, None], j0[None, :], vals]
    m11 = maps[i1[:, None], j1[None, :], vals]
    out = (1 - fr) * ((1 - fc) * m00 + fc * m01) + fr * ((1 - fc) * m10 + fc * m11)
    return np.rint(out).astype(img.dtype if np.issubdtype(img.dtype, np.integer) else np.uint8)


def clahe_rgb(image: RgbImage, tile_grid=(8, 8), clip_limit: float = 3.0) -> RgbImage:
    """CLAHE on the luminance channel of an RGB image; chroma ratios kept."""
    px = image.pixels.astype(np.float64)
    lum = 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
    lum_u = np.rint(lum).astype(np.uint8)
    eq = clahe(lum_u, tile_grid=tile_grid, clip_limit=clip_limit).astype(np.float64)
    ratio = np.where(lum > 0, eq / np.maximum(lum, 1e-9), 1.0)
    out = np.clip(px * ratio[..., None], 0, 255).astype(np.uint8)
    return RgbImage(pixels=out)
