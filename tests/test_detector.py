from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvpipeline.detector import (Detection, DetectorError,
                                 ThresholdDetectorConfig, _frame_median,
                                 detection_confidence, detect)
from pvpipeline.thermal import TemperatureMap


def _bfs_components_oracle(mask: np.ndarray):
    """Independent 8-connected component labelling by breadth-first search.
    Returns each component's pixels as a frozenset of (y, x), listed in
    raster order of the component's first pixel."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            comp = []
            queue = deque([(y, x)])
            seen[y, x] = True
            while queue:
                cy, cx = queue.popleft()
                comp.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if (0 <= ny < h and 0 <= nx < w and mask[ny, nx]
                                and not seen[ny, nx]):
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            comps.append(frozenset(comp))
    return comps


def _random_frame(rng, shape=(32, 40), n_blobs=3, ambient=25.0):
    img = np.full(shape, ambient)
    for _ in range(n_blobs):
        cy = rng.uniform(3, shape[0] - 3)
        cx = rng.uniform(3, shape[1] - 3)
        peak = rng.uniform(5.0, 12.0)
        sigma = rng.uniform(0.8, 2.5)
        yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
        img += peak * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                             / (2 * sigma ** 2))
    return img


def test_detections_match_bfs_component_oracle():
    rng = np.random.default_rng(0)
    config = ThresholdDetectorConfig(delta_c=4.0, min_blob_px=3)
    for _ in range(20):
        img = _random_frame(rng)
        temp = TemperatureMap(temp_c=img)
        dets = detect(temp, config)
        ambient = float(np.median(img))
        mask = img > ambient + config.delta_c
        comps = [c for c in _bfs_components_oracle(mask)
                 if len(c) >= config.min_blob_px]
        assert len(dets) == len(comps)
        # Each detection bbox must exactly bound one oracle component.
        boxes = {(float(min(x for _, x in c)), float(min(y for y, _ in c)),
                  float(max(x for _, x in c) + 1), float(max(y for y, _ in c) + 1))
                 for c in comps}
        for d in dets:
            key = (d.x_min, d.y_min, d.x_max, d.y_max)
            assert key in boxes


@st.composite
def hot_frames(draw):
    """A frame and a detector config. The hot mask is random fill, a
    checkerboard subset (blobs joined only diagonally) or combs of two to
    four teeth with tops in different rows (U shapes whose arms merge rows
    below their first pixels). Frames include 1xN and Nx1 strips."""
    h, w = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 30)),
                          st.tuples(st.integers(1, 30), st.just(1)),
                          st.tuples(st.integers(2, 24), st.integers(2, 24))))
    fill = draw(st.floats(0.05, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(("fill", "diagonal", "combs")))
    if shape == "fill":
        mask = rng.random((h, w)) < fill
    elif shape == "diagonal":
        yy, xx = np.mgrid[0:h, 0:w]
        mask = ((yy + xx) % 2 == 0) & (rng.random((h, w)) < 2 * fill)
    else:
        mask = np.zeros((h, w), dtype=bool)
        for _ in range(rng.integers(1, 4)):
            bottom = rng.integers(0, h)
            teeth = np.unique(rng.integers(0, w, size=rng.integers(2, 5)))
            mask[bottom, teeth.min():teeth.max() + 1] = True
            for x in teeth:
                mask[rng.integers(0, bottom + 1):bottom + 1, x] = True
    # Cold pixels in [20, 21), hot in [30, 50): while under half the frame
    # is hot, the median is cold and detect sees exactly this mask.
    temp = np.where(mask, 30.0 + 20.0 * rng.random((h, w)),
                    20.0 + rng.random((h, w)))
    config = ThresholdDetectorConfig(delta_c=4.0,
                                     min_blob_px=draw(st.integers(1, 4)))
    return temp, config


def _assert_matches_bfs_oracle(temp, config):
    # Components, their order (raster order of the first pixel, which keys
    # the simulator's noise streams), area, bbox and peak.
    dets = detect(TemperatureMap(temp_c=temp), config)
    ambient = float(np.median(temp))
    comps = [c for c in _bfs_components_oracle(temp > ambient + config.delta_c)
             if len(c) >= config.min_blob_px]
    assert len(dets) == len(comps)
    for det, comp in zip(dets, comps):
        ys, xs = zip(*comp)
        peak = max(temp[y, x] for y, x in comp)
        assert (det.x_min, det.y_min, det.x_max, det.y_max) == (
            min(xs), min(ys), max(xs) + 1, max(ys) + 1)
        assert det.peak_temp_c == peak
        assert det.confidence == detection_confidence(peak - ambient,
                                                      len(comp), config)


@settings(max_examples=300)
@given(hot_frames())
def test_detect_matches_bfs_oracle_in_order(frame):
    _assert_matches_bfs_oracle(*frame)


@pytest.mark.parametrize("temp", [
    np.array([[20.0, 20.5, 40.0]]),
    np.array([[20.0], [20.1], [20.2], [35.0], [36.0]]),
    np.array([[20.0, 40.0, 20.3, 20.1, 20.2],
              [20.4, 41.0, 20.0, 20.6, 20.5],
              [20.1, 20.2, 20.3, 39.0, 20.0],
              [20.7, 20.0, 20.1, 38.0, 37.0]]),
    # The last pixel is a run of its own, joined to the blob diagonally.
    np.array([[20.0, 20.1, 20.2, 20.3],
              [20.4, 20.5, 33.0, 20.6],
              [20.7, 20.8, 20.9, 34.0]]),
], ids=["row", "column", "two-blobs", "diagonal"])
def test_detect_run_ending_at_the_last_pixel_matches_bfs_oracle(temp):
    # The last run's end index is the frame's size, one past the flat frame.
    _assert_matches_bfs_oracle(temp, ThresholdDetectorConfig(delta_c=4.0,
                                                             min_blob_px=1))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 3), (64, 80),
                                   (2, 3), (64, 79)])
def test_detect_ambient_is_np_median(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    ulp_apart = np.full(shape, 25.0)
    ulp_apart.flat[::2] = np.nextafter(25.0, 26.0)
    frames = [25.0 + rng.standard_normal(shape),
              np.round(rng.uniform(-5.0, 5.0, shape), 1),  # ties
              1e300 * rng.uniform(0.5, 1.0, shape), ulp_apart,
              _random_frame(rng, shape, n_blobs=2) if min(shape) > 6
              else np.full(shape, 25.0)]
    for temp in frames:
        assert _frame_median(temp).hex() == float(np.median(temp)).hex()
        # The oracle scores each blob's peak over np.median.
        _assert_matches_bfs_oracle(temp, ThresholdDetectorConfig(
            delta_c=4.0, min_blob_px=1))


def test_min_blob_px_filters_small_components():
    img = np.full((16, 16), 25.0)
    img[4, 4] = 40.0  # single hot pixel
    dets = detect(TemperatureMap(temp_c=img),
                  ThresholdDetectorConfig(delta_c=4.0, min_blob_px=3))
    assert dets == []
    dets = detect(TemperatureMap(temp_c=img),
                  ThresholdDetectorConfig(delta_c=4.0, min_blob_px=1))
    assert len(dets) == 1
    assert dets[0].peak_temp_c == pytest.approx(40.0)


def test_uniform_frame_yields_no_detections():
    img = np.full((16, 16), 25.0)
    assert detect(TemperatureMap(temp_c=img)) == []


def test_confidence_monotone_in_excess_and_area():
    config = ThresholdDetectorConfig()
    c1 = detection_confidence(5.0, 10, config)
    c2 = detection_confidence(8.0, 10, config)
    c3 = detection_confidence(5.0, 40, config)
    assert 0.0 < c1 < c2 <= 1.0
    assert c1 < c3
    assert detection_confidence(8.0, 10, config) == pytest.approx(
        detection_confidence(8.0, 10, config))


def test_bbox_and_detection_validation():
    box = dict(x_min=0.0, y_min=0.0, x_max=2.0, y_max=3.0)
    for edges in (dict(x_min=2.0, x_max=1.0), dict(y_min=3.0)):
        with pytest.raises(DetectorError, match="degenerate bounding box"):
            Detection(**{**box, **edges}, class_id="x", confidence=0.5,
                      peak_temp_c=30.0)
    det = Detection(**box, class_id="x", confidence=0.5, peak_temp_c=30.0)
    assert det.area == 6.0
    assert det.center == (1.0, 1.5)
    with pytest.raises(DetectorError, match="confidence"):
        Detection(**box, class_id="x", confidence=1.5, peak_temp_c=30.0)
    # The box is checked first.
    with pytest.raises(DetectorError, match="degenerate bounding box"):
        Detection(**{**box, "x_max": 0.0}, class_id="x", confidence=1.5,
                  peak_temp_c=30.0)


def test_detection_order_deterministic():
    rng = np.random.default_rng(1)
    img = _random_frame(rng, n_blobs=4)
    a = detect(TemperatureMap(temp_c=img))
    b = detect(TemperatureMap(temp_c=img))
    assert a == b
