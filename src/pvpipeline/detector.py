"""Reference detection interface: a deterministic threshold detector over
temperature maps. Hot pixels (excess over the frame median above
``delta_c``) are grouped into 8-connected components by one run-length,
union-find pass (He, Chao and Suzuki, "A Run-Based Two-Scan Labeling
Algorithm", IEEE TIP 2008), and each component is scored by a calibrated
logistic of its area and peak excess. Detections come in raster order of
each component's first pixel; the simulator's miss and confidence noise
streams are keyed on that order."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import TemperatureMap


DEFAULT_CLASS = "hotspot"  # each detection's class until the match stage


class DetectorError(ValueError):
    pass


def check_box(x_min, y_min, x_max, y_max, confidence):
    """A detection's checks: a box of positive extent, confidence in [0, 1]."""
    if not (x_min < x_max and y_min < y_max):
        raise DetectorError("degenerate bounding box")
    if not (0.0 <= confidence <= 1.0):
        raise DetectorError("confidence must lie in [0, 1]")


@dataclass(frozen=True)
class Detection:
    """A hot blob: its pixel bounding box, ``x_max`` and ``y_max``
    exclusive, its class, confidence and peak temperature."""
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    class_id: str
    confidence: float
    peak_temp_c: float

    def __post_init__(self):
        check_box(self.x_min, self.y_min, self.x_max, self.y_max,
                  self.confidence)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self):
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass(frozen=True)
class ThresholdDetectorConfig:
    """Connected-component hotspot detector parameters."""

    delta_c: float = 2.0          # excess over ambient that counts as hot
    min_blob_px: int = 3
    logit_bias: float = -3.2
    logit_per_deg: float = 1.0    # weight on peak excess beyond delta_c
    logit_per_log_px: float = 0.5  # weight on ln(blob area in px)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def detection_confidence(peak_excess: float, area_px: int,
                         config: ThresholdDetectorConfig) -> float:
    """Calibrated logistic score of a blob's peak excess and pixel area."""
    s = (config.logit_bias
         + config.logit_per_deg * max(peak_excess - config.delta_c, 0.0)
         + config.logit_per_log_px * math.log(max(area_px, 1)))
    return _sigmoid(s)


def _runs(mask: np.ndarray):
    """Each row's runs of True pixels as (row, start, end) arrays in raster
    order, ``end`` exclusive. With a False column on each side of every row,
    one diff along the rows marks each run's start and end in turn."""
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    edges = np.flatnonzero(np.diff(padded, axis=1))
    rows = edges[0::2] // (w + 1)
    return rows, edges[0::2] - rows * (w + 1), edges[1::2] - rows * (w + 1)


def _frame_median(t: np.ndarray) -> float:
    """``np.median(t)`` from one partition: the middle rank, or for an even
    size the mean of the two middle ranks."""
    k, even = t.size // 2, t.size % 2 == 0
    part = np.partition(t.ravel(), (k - 1, k) if even else k)
    return float((part[k - 1] + part[k]) / 2.0 if even else part[k])


def detect(temp: TemperatureMap, config: ThresholdDetectorConfig = ThresholdDetectorConfig()
           ) -> list:
    """Detect hot blobs: connected components (8-connectivity) of pixels with
    temperature above ambient + delta_c, ambient taken as the frame median.

    Finds each row's runs of hot pixels, unions every run with the runs of
    the row above that touch it (always towards the lower run index), and
    takes area, bounding box and peak from the runs. Returns detections in
    raster order of each component's first pixel, the order the simulator's
    noise streams are keyed on.
    """
    t = temp.temp_c
    ambient = _frame_median(t)
    rows, starts, ends = _runs(t > ambient + config.delta_c)
    if rows.size == 0:
        return []
    h, w = t.shape
    # Maxima over [start, end) of each run in the flat frame; odd slots span
    # the gaps. An end past the frame is dropped: its run reduces to the end.
    flat = np.empty(2 * rows.size, dtype=np.intp)
    flat[0::2] = rows * w + starts
    flat[1::2] = rows * w + ends
    peaks = np.maximum.reduceat(
        t.ravel(), flat[:-1] if flat[-1] == t.size else flat)[0::2]
    bounds = np.searchsorted(rows, np.arange(h + 1)).tolist()
    rows, starts, ends = rows.tolist(), starts.tolist(), ends.tolist()
    parent = list(range(len(rows)))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for r in range(1, h):
        i, j = bounds[r - 1], bounds[r]
        while i < bounds[r] and j < bounds[r + 1]:
            if starts[j] <= ends[i] and starts[i] <= ends[j]:
                a, b = find(i), find(j)
                parent[max(a, b)] = min(a, b)
            # The run that ends first touches no later run of the other row.
            if ends[i] < ends[j]:
                i += 1
            else:
                j += 1
    comps = {}  # root run -> [area, x_min, x_max, y_max, peak]
    for k, peak in enumerate(peaks.tolist()):
        c = comps.setdefault(find(k), [0, starts[k], ends[k], rows[k], peak])
        c[0] += ends[k] - starts[k]
        c[1], c[2] = min(c[1], starts[k]), max(c[2], ends[k])
        c[3], c[4] = rows[k], max(c[4], peak)
    detections = []
    for root, (area, x_min, x_max, y_max, peak) in comps.items():
        if area < config.min_blob_px:
            continue
        detections.append(Detection(
            x_min=float(x_min), y_min=float(rows[root]), x_max=float(x_max),
            y_max=float(y_max) + 1.0, class_id=DEFAULT_CLASS,
            confidence=detection_confidence(peak - ambient, area, config),
            peak_temp_c=peak))
    return detections
