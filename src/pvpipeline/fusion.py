"""Fusion mathematics at toy scale: palette-invariance loss, gated fusion,
focal and GIoU losses, the composite training objective, small trainable
encoders with hand-derived analytic gradients, and finite-difference
gradient verification.

Embeddings are plain float64 numpy vectors of a fixed dimension D. The
encoders, the gate, the palette term and the focal and GIoU terms all take
stacked rows. make_toy_samples builds the synthetic crop pairs as one
ToyBatch of arrays, and FusionModel.loss_and_grads runs forward and backward
once over it, with each weight gradient one contraction over the rows; no
term is evaluated per sample.
Every weight lives in one flat vector laid out by FusionModel.layout: the
encoders read theirs as views into it, the gradient is laid out the same
way, and the backward pass reuses the forward pass's hidden activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import load_all_palettes, normalize_temperature, palette_index

PROB_EPS = 1e-12


class FusionError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Loss weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossWeights:
    lambda_box: float = 1.0
    lambda_pal: float = 0.1
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        if self.lambda_box < 0 or self.lambda_pal < 0:
            raise FusionError("loss weights must be non-negative")
        if not (0.0 < self.focal_alpha <= 1.0) or self.focal_gamma < 0:
            raise FusionError("invalid focal parameters")


# ---------------------------------------------------------------------------
# Palette-invariance loss
# ---------------------------------------------------------------------------

def embedding_centroid(members) -> np.ndarray:
    """Mean over the member axis of (M, D) or (N, M, D) embeddings."""
    mats = np.asarray(members, dtype=np.float64)
    if mats.ndim < 2 or mats.shape[-2] < 2:
        raise FusionError("need at least two embeddings of equal dimension")
    return np.add.reduce(mats, axis=-2) / mats.shape[-2]  # np.mean's bits


def palette_invariance_loss_grad(members, centroid=None):
    """Loss (mean squared distance of each embedding from the member
    centroid) and per-member gradients; d/dz_m = (2/M)(z_m - centroid).

    members is (M, D), or (N, M, D) for N independent groups, in which case
    the loss is an (N,) array. A caller that already holds
    embedding_centroid(members) passes it as centroid.
    """
    mats = np.asarray(members, dtype=np.float64)
    centroid = embedding_centroid(mats) if centroid is None else centroid
    diff = mats - centroid[..., None, :]
    m = mats.shape[-2]
    loss = np.add.reduce(np.add.reduce(diff * diff, axis=-1), axis=-1) / m
    return loss, (2.0 / m) * diff


# ---------------------------------------------------------------------------
# Gated fusion
# ---------------------------------------------------------------------------

def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) elsewhere: exp(min(x, 0))
    / (1 + exp(-|x|)), with -|x| as minimum(x, -x), which keeps a NaN."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.minimum(x, -x)))


def gated_fuse(zr: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """u and g, where u = g * z_bar + (1 - g) * r with g = sigmoid(W zr + b)
    for zr = [z_bar ; r], a (2D,) vector or (N, 2D) rows; W is (D, 2D) and
    b is (D,)."""
    zr = np.asarray(zr, dtype=np.float64)
    dim = weight.shape[0]
    if weight.shape != (dim, 2 * dim) or zr.shape[-1] != 2 * dim:
        raise FusionError("gate/embedding shape mismatch")
    g = _sigmoid_vec(zr @ weight.T + bias)
    return g * zr[..., :dim] + (1.0 - g) * zr[..., dim:], g


def gated_fuse_backward(zr, weight, g, du, d_w, d_b):
    """Backprop through gated_fuse: writes dW and db, summed over the rows,
    into d_w and d_b and returns (dz_bar, dr)."""
    dim = g.shape[-1]
    z_bar, r = zr[..., :dim], zr[..., dim:]
    ds = du * (z_bar - r) * g * (1.0 - g)
    rows = ds.reshape(-1, dim)
    np.matmul(rows.T, zr.reshape(-1, 2 * dim), out=d_w)
    np.add.reduce(rows, axis=0, out=d_b)
    dzr = ds @ weight
    return du * g + dzr[..., :dim], du * (1.0 - g) + dzr[..., dim:]


# ---------------------------------------------------------------------------
# Focal loss
# ---------------------------------------------------------------------------

def focal_loss_grad(pred_prob, is_positive, alpha: float = 0.25,
                    gamma: float = 2.0):
    """Loss and d(loss)/d(pred_prob), row-wise over (K,) probabilities and
    labels; a scalar probability gives a (float, float) pair."""
    p = np.array(pred_prob, dtype=np.float64, ndmin=1).clip(PROB_EPS,
                                                            1.0 - PROB_EPS)
    positive = np.asarray(is_positive, dtype=bool)
    pt = np.where(positive, p, 1.0 - p)
    log_pt = np.log(pt)
    easy = 1.0 - pt
    scale = -alpha * easy ** gamma
    loss = scale * log_pt
    d_pt = scale / pt
    if gamma > 0:
        d_pt += alpha * gamma * easy ** (gamma - 1.0) * log_pt
    d_p = np.where(positive, d_pt, -d_pt)
    if np.ndim(pred_prob) == 0:
        return float(loss[0]), float(d_p[0])
    return loss, d_p


# ---------------------------------------------------------------------------
# GIoU loss
# ---------------------------------------------------------------------------

# Per coordinate row of an (x1, y1, x2, y2) box: -1 for a lower corner, +1
# for an upper one, so that (a - b) * _SIDE < 0 where box a lies inside box
# b; and the extent, of (w, h), across each side.
_SIDE = np.array([[-1.0], [-1.0], [1.0], [1.0]])
_ACROSS = np.array([1, 0, 1, 0])


def giou_loss_grad(a, b):
    """Loss and gradient w.r.t. the first box's (x1, y1, x2, y2), row-wise
    over (K, 4) pairs of boxes; a single (4,) pair gives (float, (4,) grad).
    A degenerate box in any row raises FusionError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1:] != (4,) or a.ndim > 2:
        raise FusionError("boxes must be (4,) or (K, 4) arrays of one shape")
    # Each coordinate as one contiguous (K,) row: of box a, then of box b.
    a_t, b_t = ab = np.array([a.reshape(-1, 4).T, b.reshape(-1, 4).T])
    lo, hi = np.minimum(a_t, b_t), np.maximum(a_t, b_t)
    # (2, K) extents along x and y of box a, box b, their intersection and
    # their hull, stacked in that order, and their (4, K) areas.
    size = np.empty((4, 2, ab.shape[2]))
    np.subtract(ab[:, 2:], ab[:, :2], out=size[:2])
    if (size[:2] <= 0.0).any():
        raise FusionError("degenerate box")
    np.maximum(np.subtract(lo[2:], hi[:2], out=size[2]), 0.0, out=size[2])
    np.subtract(hi[2:], lo[:2], out=size[3])
    area = size[:, 0] * size[:, 1]
    inter, hull = area[2], area[3]
    union = area[0] + area[1] - inter
    loss = 1.0 - (inter / union - (hull - union) / hull)

    # The partial of an area w.r.t. a side of box a is the extent across
    # that side, (h, w, h, w) signed by _SIDE: of box a for its own area; of
    # the intersection where the boxes overlap and a's side is the inner
    # one; of the hull where a's side is the outer one; zero elsewhere.
    side = (a_t - b_t) * _SIDE
    d_area = size[:, _ACROSS] * _SIDE
    overlap = np.logical_and.reduce(size[2] > 0.0)
    d_inter = np.where(overlap & (side < 0.0), d_area[2], 0.0)
    d_hull = np.where(side > 0.0, d_area[3], 0.0)
    d_union = d_area[0] - d_inter
    d_iou = (d_inter * union - inter * d_union) / union ** 2
    # d giou = d_iou + d(U/C) = d_iou + (d_union * hull - union * d_hull) / hull^2
    grad = -(d_iou + (d_union * hull - union * d_hull) / hull ** 2).T
    if a.ndim == 1:
        return float(loss[0]), grad[0]
    return loss, grad


def total_loss(cls_term: float, box_term: float, pal_term: float,
               weights: LossWeights) -> float:
    """Composite objective: L_cls + lambda_box * L_box + lambda_pal * L_pal."""
    return cls_term + weights.lambda_box * box_term + weights.lambda_pal * pal_term


# ---------------------------------------------------------------------------
# Toy encoders
# ---------------------------------------------------------------------------

def encode(x: np.ndarray, params: dict, prefix: str):
    """Toy encoder: two affine layers around a tanh, with the weights
    params[prefix + ".w1" | ".b1" | ".w2" | ".b2"]. Returns the embeddings
    of input rows (..., in_dim) -> (..., out) and the hidden activations
    (..., hidden) that encode_backward takes."""
    w1 = params[prefix + ".w1"]
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != w1.shape[1:]:
        raise FusionError(f"encoder expects input rows of size {w1.shape[1]}")
    h = np.tanh(x @ w1.T + params[prefix + ".b1"])
    return h @ params[prefix + ".w2"].T + params[prefix + ".b2"], h


def encode_backward(x: np.ndarray, h: np.ndarray, params: dict, prefix: str,
                    dz: np.ndarray, grads: dict):
    """Gradients of a downstream loss w.r.t. the encoder's parameters,
    summed over the input rows x, given encode's hidden activations h and
    the embedding gradients dz, written into grads (keyed like params, such
    as views into a flat gradient)."""
    x, h, dz = (v.reshape(-1, v.shape[-1]) for v in (x, h, dz))
    dpre = (dz @ params[prefix + ".w2"]) * (1.0 - h * h)
    np.matmul(dpre.T, x, out=grads[prefix + ".w1"])
    np.add.reduce(dpre, axis=0, out=grads[prefix + ".b1"])
    np.matmul(dz.T, h, out=grads[prefix + ".w2"])
    np.add.reduce(dz, axis=0, out=grads[prefix + ".b2"])


# ---------------------------------------------------------------------------
# Full toy model: palettes -> shared encoder -> gate -> detector head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyBatch:
    """N synthetic crop pairs, one per row: M palette renderings of a
    thermal crop plus an RGB crop, a defect label, and for each positive row
    a target box in normalized [0, 1] image coordinates."""

    x_t: np.ndarray       # (N, M, in_dim) flattened palette renders
    x_r: np.ndarray       # (N, in_dim) RGB inputs
    positive: np.ndarray  # (N,) bool
    boxes: np.ndarray     # (P, 4) target boxes of the positive rows, in order

    def __post_init__(self):
        n = len(self.x_r)
        if n == 0:
            raise FusionError("need at least one sample")
        if (self.x_t.ndim != 3 or self.x_t.shape[0] != n
                or self.x_t.shape[2:] != self.x_r.shape[1:]
                or self.positive.shape != (n,) or self.positive.dtype != bool
                or self.boxes.shape != (np.count_nonzero(self.positive), 4)):
            raise FusionError(
                f"batch shapes disagree: x_t {self.x_t.shape}, x_r "
                f"{self.x_r.shape}, positive {self.positive.shape} "
                f"{self.positive.dtype}, boxes {self.boxes.shape}")


class FusionModel:
    """Toy thermal/RGB fusion model with analytic gradients. Its weights are
    one flat vector, vec; params maps each key to a view into it."""

    def __init__(self, seed: int = 0, crop_size: int = 16, hidden: int = 16,
                 dim: int = 32):
        self.in_dim = crop_size * crop_size * 3
        # (key, shape, init) of every weight, in its order in vec. init
        # (gain, fan_in) draws the weight as gain * N(0, 1) / sqrt(fan_in),
        # in this order from the seed's RNG; None starts it at zero.
        layout = []
        for prefix in ("t", "r"):  # thermal, then RGB encoder
            layout += [(prefix + ".w1", (hidden, self.in_dim),
                        (0.5, self.in_dim)),
                       (prefix + ".b1", (hidden,), None),
                       (prefix + ".w2", (dim, hidden), (0.5, hidden)),
                       (prefix + ".b2", (dim,), None)]
        self.layout = tuple(layout) + (
            ("gate.w", (dim, 2 * dim), (0.1, 1)), ("gate.b", (dim,), None),
            ("head.w_cls", (dim,), (0.1, 1)), ("head.b_cls", (1,), None),
            ("head.w_box", (4, dim), (0.1, 1)), ("head.b_box", (4,), None))
        ends = np.cumsum([math.prod(shape) for _, shape, _ in self.layout])
        self._spans = [(key, end - math.prod(shape), end, shape)
                       for (key, shape, _), end in zip(self.layout, ends.tolist())]
        self.vec = np.zeros(ends[-1])
        self.params = self.views(self.vec)
        rng = np.random.default_rng(seed)
        for key, shape, init in self.layout:
            if init is not None:
                gain, fan_in = init
                self.params[key][...] = (gain * rng.standard_normal(shape)
                                         / math.sqrt(fan_in))

    def views(self, vec: np.ndarray) -> dict:
        """Key -> view into a vector laid out like self.vec (weights or
        their gradient)."""
        return {key: vec[start:end].reshape(shape)
                for key, start, end, shape in self._spans}

    # -- forward --------------------------------------------------------

    def loss_and_grads(self, vec: np.ndarray, batch: ToyBatch,
                       weights: LossWeights):
        """Mean composite loss over a batch's samples at the weight vector
        vec, its gradient (a vector laid out like vec) and the loss terms.

        L_cls and L_pal average over all samples; L_box averages over the
        positive samples. The whole batch goes through the encoders, gate,
        heads and loss terms at once.
        """
        params = self.views(vec)
        n, m, _ = batch.x_t.shape
        # The thermal encoder takes the N * M palette inputs as 2-D rows.
        x_t, x_r, positive = batch.x_t.reshape(n * m, -1), batch.x_r, batch.positive
        zs, h_t = encode(x_t, params, "t")
        zs = zs.reshape(n, m, -1)
        z_bar = embedding_centroid(zs)
        pal_l, d_zs_pal = palette_invariance_loss_grad(zs, z_bar)
        r, h_r = encode(x_r, params, "r")
        zr = np.concatenate([z_bar, r], axis=1)
        u, g = gated_fuse(zr, params["gate.w"], params["gate.b"])

        # Classification head: focal loss over the rows.
        p = _sigmoid_vec(u @ params["head.w_cls"] + params["head.b_cls"][0])
        cls_l, d_p = focal_loss_grad(p, positive, weights.focal_alpha,
                                     weights.focal_gamma)
        d_logit = d_p * p * (1.0 - p) / n

        # Box head: sigmoid (cx, cy, w, h) -> corners, and GIoU, on the
        # positive rows; the loss and corner gradients are scattered back so
        # that the sums below run over all n rows.
        s_box = _sigmoid_vec(u @ params["head.w_box"].T + params["head.b_box"])
        s_pos = s_box[positive]
        half = (0.02 + s_pos[:, 2:]) / 2.0
        giou_l, d_c = giou_loss_grad(np.concatenate(
            [s_pos[:, :2] - half, s_pos[:, :2] + half], axis=1), batch.boxes)
        k = len(batch.boxes)
        box_l = np.zeros(n)
        box_l[positive] = giou_l
        d_box = np.concatenate([d_c[:, :2] + d_c[:, 2:],
                                (d_c[:, 2:] - d_c[:, :2]) / 2.0], axis=1)
        box_w = weights.lambda_box / k if k else 0.0
        d_t_box = np.zeros((n, 4))
        d_t_box[positive] = d_box * s_pos * (1.0 - s_pos) * box_w

        # Backward: each weight gradient is one contraction over the batch,
        # written into its view of the flat gradient.
        grad = np.empty_like(vec)
        grads = self.views(grad)
        du = d_logit[:, None] * params["head.w_cls"] + d_t_box @ params["head.w_box"]
        dz_bar, dr = gated_fuse_backward(zr, params["gate.w"], g, du,
                                         grads["gate.w"], grads["gate.b"])
        dzs = dz_bar[:, None, :] / m + (weights.lambda_pal / n) * d_zs_pal
        np.matmul(d_logit, u, out=grads["head.w_cls"])
        grads["head.b_cls"][0] = d_logit.sum()
        np.matmul(d_t_box.T, u, out=grads["head.w_box"])
        np.add.reduce(d_t_box, axis=0, out=grads["head.b_box"])
        encode_backward(x_t, h_t, params, "t", dzs, grads)
        encode_backward(x_r, h_r, params, "r", dr, grads)

        # Each mean as np.mean takes it: the sum over the rows, then / rows.
        aux = {"cls": float(cls_l.sum()) / n, "pal": float(pal_l.sum()) / n,
               "box": float(box_l.sum()) / k if k else 0.0}
        total = total_loss(aux["cls"], aux["box"], aux["pal"], weights)
        if not math.isfinite(total):
            raise TrainingDiverged("non-finite loss")
        return total, grad, aux

    def loss_closure(self, batch: ToyBatch, weights: LossWeights):
        """(weight vector) -> (loss, flat gradient), for gradient_check."""
        return lambda vec: self.loss_and_grads(vec, batch, weights)[:2]


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def gradient_check(loss_closure, params: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between the closure's analytic gradient and central
    finite differences over every parameter coordinate."""
    if not (1e-7 <= step <= 1e-3):
        raise FusionError("step must lie in [1e-7, 1e-3]")
    params = np.asarray(params, dtype=np.float64)
    loss0, grad = loss_closure(params)
    if not math.isfinite(loss0):
        raise FusionError("non-finite loss at the evaluation point")
    worst = 0.0
    for i in range(params.size):
        p_hi = params.copy()
        p_hi[i] += step
        p_lo = params.copy()
        p_lo[i] -= step
        num = (loss_closure(p_hi)[0] - loss_closure(p_lo)[0]) / (2.0 * step)
        denom = max(abs(grad[i]), abs(num), 1e-6)
        worst = max(worst, abs(grad[i] - num) / denom)
    return worst


# ---------------------------------------------------------------------------
# Synthetic crops and toy training
# ---------------------------------------------------------------------------

def make_toy_samples(n: int, seed: int = 0, crop_size: int = 16) -> ToyBatch:
    """A batch of n >= 1 synthetic thermal/RGB crop pairs.

    Every crop shows a hot Gaussian blob; only the RGB stream separates a
    real defect (dark damage spot) from a look-alike glint (clean panel).
    This mirrors the field failure mode where reflections mimic hotspots.
    Even rows are positives and carry the blob's bounding box. Inputs are
    zero-centered.
    """
    if n < 1:
        raise FusionError("need at least one sample")
    rng = np.random.default_rng(seed)
    # Draw per sample, in this order, so that the first k samples of a seed
    # do not depend on n; the arrays below are then built for all at once.
    draws, noise = [], []
    for _ in range(n):
        slope = 3.0 * rng.random()
        cx = rng.uniform(0.25, 0.75) * crop_size
        cy = rng.uniform(0.25, 0.75) * crop_size
        sig = rng.uniform(1.0, 2.5)
        draws.append((slope, cx, cy, sig, 2 * sig ** 2, rng.uniform(8.0, 25.0)))
        noise.append(rng.standard_normal((crop_size, crop_size)))
    slope, cx, cy, sig, two_var, excess = np.array(draws).T[:, :, None, None]
    yy, xx = np.mgrid[0:crop_size, 0:crop_size].astype(np.float64)
    blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / two_var)
    temp = 25.0 + slope * (xx / crop_size) + excess * blob
    # The M palettes' rows as zero-centered floats, stacked palette after
    # palette, so each pixel's one LUT index picks its row in every palette.
    luts = load_all_palettes()
    tables = np.concatenate(luts) / 255.0 - 0.5
    rows = (palette_index(normalize_temperature(temp))[:, None]
            + 256 * np.arange(len(luts))[:, None, None])
    pal = np.take(tables, rows, axis=0).reshape(n, len(luts), -1)

    positive = np.arange(n) % 2 == 0
    rgb_gray = 0.6 + 0.02 * np.array(noise)
    rgb_gray[positive] -= 0.4 * blob[positive]
    rgb = np.repeat(np.clip(rgb_gray, 0, 1) - 0.5, 3).reshape(n, -1)
    cx, cy, half = cx.ravel(), cy.ravel(), 2.0 * sig.ravel() / crop_size
    boxes = np.stack([cx / crop_size - half, cy / crop_size - half,
                      cx / crop_size + half, cy / crop_size + half], axis=1)
    return ToyBatch(x_t=pal, x_r=rgb, positive=positive, boxes=boxes[positive])


@dataclass
class TrainResult:
    params: dict
    total_trace: list
    pal_trace: list


def train_toy(batch: ToyBatch, epochs: int = 600,
              weights: LossWeights = LossWeights(), seed: int = 0,
              model: FusionModel | None = None) -> TrainResult:
    """Full-batch Adam on the composite loss (deterministic given the seed),
    on a copy of the model's weights that only a finished run writes back."""
    n, in_dim = batch.x_r.shape
    if n < 32:
        raise FusionError("need at least 32 samples")
    if model is None:
        model = FusionModel(seed=seed, crop_size=int(round(math.sqrt(in_dim / 3))))
    vec = model.vec.copy()
    # Adam moments and scratch in place; each expression keeps the operation
    # order of m1 = beta1 * m1 + (1 - beta1) * g,
    # m2 = beta2 * m2 + (1 - beta2) * g * g and
    # vec -= learning_rate * m1_hat / (sqrt(m2_hat) + eps).
    m1 = np.zeros_like(vec)
    m2 = np.zeros_like(vec)
    num = np.empty_like(vec)
    den = np.empty_like(vec)
    learning_rate, beta1, beta2, eps = 0.02, 0.9, 0.999, 1e-8
    total_trace = []
    pal_trace = []
    for t in range(1, epochs + 1):
        loss, g, aux = model.loss_and_grads(vec, batch, weights)
        total_trace.append(loss)
        pal_trace.append(aux["pal"])
        m1 *= beta1
        m1 += np.multiply(1 - beta1, g, out=num)
        m2 *= beta2
        np.multiply(1 - beta2, g, out=num)
        m2 += np.multiply(num, g, out=num)
        np.divide(m1, 1 - beta1 ** t, out=num)
        num *= learning_rate
        np.divide(m2, 1 - beta2 ** t, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        vec -= num
        if not np.all(np.isfinite(vec)):
            raise TrainingDiverged("parameters diverged")
    model.vec[:] = vec
    return TrainResult(params=model.params, total_trace=total_trace, pal_trace=pal_trace)
