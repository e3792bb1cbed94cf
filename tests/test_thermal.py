import hashlib
import itertools

import numpy as np
import pytest

from pvpipeline.thermal import (ABSOLUTE_ZERO_C, CalibrationError,
                                PALETTE_NAMES, RgbImage, TemperatureMap,
                                ThermalError, clahe, clahe_rgb,
                                load_all_palettes, load_palette,
                                normalize_temperature, palette_index)


def test_below_absolute_zero_rejected():
    with pytest.raises(CalibrationError):
        TemperatureMap(temp_c=np.full((2, 2), ABSOLUTE_ZERO_C))


def _with_pixel(value):
    t = np.full((3, 4), 20.0)
    t[1, 2] = value
    return t


@pytest.mark.parametrize("temp,error,message", [
    (_with_pixel(np.nan), ThermalError, "non-finite"),
    (_with_pixel(np.inf), ThermalError, "non-finite"),
    (_with_pixel(-np.inf), ThermalError, "non-finite"),
    # Below absolute zero too, but non-finite is checked first.
    (np.full((2, 3), -np.inf), ThermalError, "non-finite"),
    (_with_pixel(-300.0), CalibrationError, "absolute zero"),
], ids=["nan", "inf", "minus-inf", "all-minus-inf", "minus-300"])
def test_temperature_map_error_order(temp, error, message):
    with pytest.raises(ThermalError, match=message) as raised:
        TemperatureMap(temp_c=temp)
    # CalibrationError is a ThermalError, so pin the exact type.
    assert type(raised.value) is error


def test_normalize_constant_frame_maps_to_half():
    assert np.all(normalize_temperature(np.full((4, 4), 30.0)) == 0.5)


def test_normalize_range():
    g = normalize_temperature(np.array([[10.0, 20.0], [30.0, 50.0]]))
    assert g.min() == 0.0 and g.max() == 1.0
    assert g[0, 1] == pytest.approx(0.25)


def test_normalize_stack_normalizes_each_frame_on_its_own():
    rng = np.random.default_rng(3)
    stack = rng.uniform(-40.0, 90.0, (5, 3, 4))
    stack[2] = 30.0  # a constant frame among varying ones
    g = normalize_temperature(stack)
    assert g.shape == stack.shape
    for frame, out in zip(stack, g):
        assert np.array_equal(out, normalize_temperature(frame))
    assert np.all(g[2] == 0.5)
    assert np.all(g.min(axis=(1, 2))[[0, 1, 3, 4]] == 0.0)
    assert np.all(g.max(axis=(1, 2))[[0, 1, 3, 4]] == 1.0)


def test_apply_palette_indexing():
    table = np.arange(256, dtype=np.uint8)[:, None].repeat(3, axis=1)
    gray = np.array([[0.0, 0.5, 1.0]])
    pixels = table[palette_index(gray)]
    assert pixels.shape == (1, 3, 3)
    assert pixels[0, 0, 0] == 0
    assert pixels[0, 1, 0] == 128  # rint(0.5 * 255)
    assert pixels[0, 2, 0] == 255


def test_apply_palette_rejects_out_of_range():
    for bad in (np.array([[1.2]]), np.array([[[0.5, -0.1]]])):
        with pytest.raises(ThermalError):
            palette_index(bad)


# sha256 of each LUT's table bytes, recorded from the palette data files
# the generators replaced; any change to a generator's output shows here.
PALETTE_SHA256 = {
    "ironbow": "ec75a279ebaeb97eedb80deca2feb707ab446b794674cb3f644154aae14bf4a8",
    "whitehot": "72432263dbfe17abc40ed269f24c7a344e077e3671007dfc8a2f3851f8193dc2",
    "rainbow": "3ccedddc80e5c02cae9b0bd7932fbadd3d94ebf77d7da56ee46b30e0c2ffa74a",
    "sepia": "bc64547acfc51a8ec49357dbf227b47d04263729e48d58068d86766e663ca743",
}


@pytest.mark.parametrize("name", PALETTE_NAMES)
def test_palette_table_pinned(name):
    lut = load_palette(name)
    assert lut.shape == (256, 3) and lut.dtype == np.uint8
    assert hashlib.sha256(lut.tobytes()).hexdigest() == PALETTE_SHA256[name]


def test_load_palette_builds_each_table_once_read_only():
    for name in PALETTE_NAMES:
        lut = load_palette(name)
        assert load_palette(name) is lut
        assert not lut.flags.writeable
        with pytest.raises(ValueError):
            lut[0, 0] = 1
    assert [a is b for a, b in zip(load_all_palettes(),
                                   map(load_palette, PALETTE_NAMES))] == [True] * 4


def test_unknown_palette_rejected():
    with pytest.raises(ThermalError, match="unknown palette"):
        load_palette("inferno")


def test_palettes_pairwise_distinct():
    luts = dict(zip(PALETTE_NAMES, load_all_palettes()))
    for a, b in itertools.combinations(PALETTE_NAMES, 2):
        differing = np.any(luts[a] != luts[b], axis=1).sum()
        assert differing >= 254, (a, b, differing)


def test_whitehot_monotone_luminance():
    lut = load_palette("whitehot")
    lum = lut.astype(float) @ [0.299, 0.587, 0.114]
    assert np.all(np.diff(lum) >= 0)


def _global_he_oracle(img: np.ndarray) -> np.ndarray:
    """Classic histogram equalization: m(v) = round(cdf_inclusive(v)*255)."""
    hist = np.bincount(img.ravel(), minlength=256)
    cdf = np.cumsum(hist) / img.size
    return np.rint(cdf * 255).astype(np.uint8)[img]


def test_clahe_single_tile_unclipped_equals_global_he():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(40, 56)).astype(np.uint8)
    out = clahe(img, tile_grid=(1, 1), clip_limit=float("inf"))
    assert np.array_equal(out, _global_he_oracle(img))


def test_clahe_clip_limit_bounds_transfer_slope():
    # A heavily peaked histogram: clipping caps the equalization slope, so
    # the clipped transfer stays much closer to identity than the unclipped.
    rng = np.random.default_rng(2)
    img = np.full((64, 64), 100, dtype=np.uint8)
    img[rng.uniform(size=img.shape) < 0.02] = 200
    unclipped = clahe(img, tile_grid=(1, 1), clip_limit=float("inf"))
    clipped = clahe(img, tile_grid=(1, 1), clip_limit=1.5)
    dev_unclipped = np.abs(unclipped.astype(int) - img.astype(int)).mean()
    dev_clipped = np.abs(clipped.astype(int) - img.astype(int)).mean()
    assert dev_clipped < dev_unclipped


def test_clahe_output_domain_and_determinism():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(32, 48)).astype(np.uint8)
    a = clahe(img, tile_grid=(4, 4), clip_limit=2.0)
    b = clahe(img, tile_grid=(4, 4), clip_limit=2.0)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8


def test_clahe_validates_inputs():
    img = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(ThermalError):
        clahe(img, tile_grid=(0, 2))
    with pytest.raises(ThermalError):
        clahe(img, clip_limit=0.5)
    with pytest.raises(ThermalError):
        clahe(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ThermalError):
        clahe(np.zeros((2, 2), dtype=np.uint8), tile_grid=(4, 4))


def test_clahe_rgb_preserves_shape_and_adds_contrast():
    rng = np.random.default_rng(4)
    base = rng.integers(90, 110, size=(32, 32, 3)).astype(np.uint8)
    out = clahe_rgb(RgbImage(pixels=base), tile_grid=(2, 2))
    assert out.pixels.shape == base.shape
    assert int(out.pixels.max()) - int(out.pixels.min()) \
        >= int(base.max()) - int(base.min())
