"""Reference forms the tests compare the package against; the program
itself has no use for them."""

import math

import numpy as np

from pvpipeline.fusion import encode


def axis_angle_matrix(aa) -> np.ndarray:
    """Rotation matrix of an AxisAngle, R = I + sin(t) [k]x + (1 - cos(t))
    [k]x^2: the matrix oracle for the Rodrigues formula."""
    kx, ky, kz = aa.axis
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(aa.angle) * k_cross \
        + (1.0 - math.cos(aa.angle)) * (k_cross @ k_cross)


def mean_pairwise_distance(members) -> float:
    """Mean Euclidean distance over the pairs of rows of ``members``."""
    mats = np.asarray(members, dtype=np.float64)
    m = mats.shape[0]
    acc = 0.0
    cnt = 0
    for i in range(m):
        for j in range(i + 1, m):
            acc += float(np.linalg.norm(mats[i] - mats[j]))
            cnt += 1
    return acc / max(cnt, 1)


def palette_spread(model, samples) -> float:
    """Mean pairwise distance between a FusionModel's per-palette thermal
    embeddings, averaged over samples: the measurement behind criterion 7."""
    vals = [mean_pairwise_distance(
        encode(s.palette_inputs, model.params, "t")[0]) for s in samples]
    return float(np.mean(vals))
