"""Reference detection interface: a deterministic threshold detector over
temperature maps (connected components of excess temperature, scored by a
calibrated logistic of blob area and peak excess)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .thermal import TemperatureMap


DEFAULT_CLASS = "hotspot"  # each detection's class until the match stage


class DetectorError(ValueError):
    pass


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DetectorError("degenerate bounding box")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self):
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass(frozen=True)
class Detection:
    bbox: BoundingBox
    class_id: str
    confidence: float
    peak_temp_c: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise DetectorError("confidence must lie in [0, 1]")

    def with_confidence(self, conf: float) -> "Detection":
        return Detection(bbox=self.bbox, class_id=self.class_id,
                         confidence=conf, peak_temp_c=self.peak_temp_c)


@dataclass(frozen=True)
class ThresholdDetectorConfig:
    """Connected-component hotspot detector parameters."""

    delta_c: float = 4.0          # excess over ambient that counts as hot
    min_blob_px: int = 3
    logit_bias: float = 1.0
    logit_per_deg: float = 0.25   # weight on peak excess beyond delta_c
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


def detect(temp: TemperatureMap, config: ThresholdDetectorConfig = ThresholdDetectorConfig()
           ) -> list:
    """Detect hot blobs: connected components (8-connectivity) of pixels with
    temperature above ambient + delta_c, ambient taken as the frame median.

    Returns detections ordered by component label (deterministic).
    """
    t = temp.temp_c
    ambient = float(np.median(t))
    mask = t > ambient + config.delta_c
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    detections = []
    for lab in range(1, n + 1):
        ys, xs = np.nonzero(labels == lab)
        if ys.size < config.min_blob_px:
            continue
        peak = float(t[ys, xs].max())
        bbox = BoundingBox(x_min=float(xs.min()), y_min=float(ys.min()),
                           x_max=float(xs.max()) + 1.0, y_max=float(ys.max()) + 1.0)
        conf = detection_confidence(peak - ambient, int(ys.size), config)
        detections.append(Detection(bbox=bbox, class_id=DEFAULT_CLASS,
                                    confidence=conf, peak_temp_c=peak))
    return detections
