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
    return mats.mean(axis=-2)


def palette_invariance_loss_grad(members):
    """Loss (mean squared distance of each embedding from the member
    centroid) and per-member gradients; d/dz_m = (2/M)(z_m - centroid).

    members is (M, D), or (N, M, D) for N independent groups, in which case
    the loss is an (N,) array.
    """
    mats = np.asarray(members, dtype=np.float64)
    diff = mats - embedding_centroid(mats)[..., None, :]
    loss = np.mean(np.sum(diff ** 2, axis=-1), axis=-1)
    return loss, (2.0 / mats.shape[-2]) * diff


# ---------------------------------------------------------------------------
# Gated fusion
# ---------------------------------------------------------------------------

def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gated_fuse(z_bar: np.ndarray, r: np.ndarray, weight: np.ndarray,
               bias: np.ndarray):
    """u = g * z_bar + (1 - g) * r with g = sigmoid(W [z_bar ; r] + b).

    z_bar and r are (D,) vectors or (N, D) rows; W is (D, 2D), b is (D,).
    """
    z_bar = np.asarray(z_bar, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    dim = z_bar.shape[-1]
    if z_bar.shape != r.shape or weight.shape != (dim, 2 * dim):
        raise FusionError("gate/embedding shape mismatch")
    zr = np.concatenate([z_bar, r], axis=-1)
    g = _sigmoid_vec(zr @ weight.T + bias)
    u = g * z_bar + (1.0 - g) * r
    return u, g


def gated_fuse_backward(z_bar, r, weight, g, du):
    """Backprop through gated_fuse; returns (dz_bar, dr, dW, db), with dW
    and db summed over the rows."""
    zr = np.concatenate([z_bar, r], axis=-1)
    ds = du * (z_bar - r) * g * (1.0 - g)
    d_w = np.atleast_2d(ds).T @ np.atleast_2d(zr)
    d_b = np.atleast_2d(ds).sum(axis=0)
    dzr = ds @ weight
    dim = z_bar.shape[-1]
    dz_bar = du * g + dzr[..., :dim]
    dr = du * (1.0 - g) + dzr[..., dim:]
    return dz_bar, dr, d_w, d_b


# ---------------------------------------------------------------------------
# Focal loss
# ---------------------------------------------------------------------------

def focal_loss_grad(pred_prob, is_positive, alpha: float = 0.25,
                    gamma: float = 2.0):
    """Loss and d(loss)/d(pred_prob), row-wise over (K,) probabilities and
    labels; a scalar probability gives a (float, float) pair."""
    p = np.clip(np.atleast_1d(np.asarray(pred_prob, dtype=np.float64)),
                PROB_EPS, 1.0 - PROB_EPS)
    positive = np.asarray(is_positive, dtype=bool)
    pt = np.where(positive, p, 1.0 - p)
    log_pt = np.log(pt)
    loss = -alpha * (1.0 - pt) ** gamma * log_pt
    d_pt = -alpha * (1.0 - pt) ** gamma / pt
    if gamma > 0:
        d_pt += alpha * gamma * (1.0 - pt) ** (gamma - 1.0) * log_pt
    d_p = np.where(positive, d_pt, -d_pt)
    if np.ndim(pred_prob) == 0:
        return float(loss[0]), float(d_p[0])
    return loss, d_p


# ---------------------------------------------------------------------------
# GIoU loss
# ---------------------------------------------------------------------------

# Per column of an (x1, y1, x2, y2) box: -1 for a lower corner, +1 for an
# upper one, so that (a - b) * _SIDE < 0 where box a lies inside box b.
_SIDE = np.array([-1.0, -1.0, 1.0, 1.0])


def giou_loss_grad(a, b):
    """Loss and gradient w.r.t. the first box's (x1, y1, x2, y2), row-wise
    over (K, 4) pairs of boxes; a single (4,) pair gives (float, (4,) grad).
    A degenerate box in any row raises FusionError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1:] != (4,) or a.ndim > 2:
        raise FusionError("boxes must be (4,) or (K, 4) arrays of one shape")
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    # (K, 2) extents along x and y: of each box, the intersection, the hull.
    size_a = a2[:, 2:] - a2[:, :2]
    size_b = b2[:, 2:] - b2[:, :2]
    if np.any(size_a <= 0.0) or np.any(size_b <= 0.0):
        raise FusionError("degenerate box")
    size_i = np.maximum(np.minimum(a2[:, 2:], b2[:, 2:])
                        - np.maximum(a2[:, :2], b2[:, :2]), 0.0)
    size_c = np.maximum(a2[:, 2:], b2[:, 2:]) - np.minimum(a2[:, :2], b2[:, :2])
    inter = size_i[:, 0] * size_i[:, 1]
    union = size_a[:, 0] * size_a[:, 1] + size_b[:, 0] * size_b[:, 1] - inter
    hull = size_c[:, 0] * size_c[:, 1]
    loss = 1.0 - (inter / union - (hull - union) / hull)

    # The partial of an area w.r.t. a side of box a is the extent across
    # that side, (h, w, h, w) signed by _SIDE: of box a for its own area; of
    # the intersection where the boxes overlap and a's side is the inner
    # one; of the hull where a's side is the outer one; zero elsewhere.
    side = (a2 - b2) * _SIDE
    d_area = _SIDE * np.tile(size_a[:, ::-1], 2)
    overlap = (size_i > 0.0).all(axis=1, keepdims=True)
    d_inter = np.where(overlap & (side < 0.0),
                       _SIDE * np.tile(size_i[:, ::-1], 2), 0.0)
    d_hull = np.where(side > 0.0, _SIDE * np.tile(size_c[:, ::-1], 2), 0.0)
    d_union = d_area - d_inter
    union, inter, hull = union[:, None], inter[:, None], hull[:, None]
    d_iou = (d_inter * union - inter * d_union) / union ** 2
    # d giou = d_iou + d(U/C) = d_iou + (d_union * hull - union * d_hull) / hull^2
    d_giou = d_iou + (d_union * hull - union * d_hull) / hull ** 2
    if a.ndim == 1:
        return float(loss[0]), -d_giou[0]
    return loss, -d_giou


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
                    dz: np.ndarray) -> dict:
    """Gradients of a downstream loss w.r.t. the encoder's parameters,
    summed over the input rows x, given encode's hidden activations h and
    the embedding gradients dz. Keys carry the prefix, like params."""
    x = x.reshape(-1, x.shape[-1])
    h = h.reshape(-1, h.shape[-1])
    dz = dz.reshape(-1, dz.shape[-1])
    dpre = (dz @ params[prefix + ".w2"]) * (1.0 - h ** 2)
    return {prefix + ".w1": dpre.T @ x, prefix + ".b1": dpre.sum(axis=0),
            prefix + ".w2": dz.T @ h, prefix + ".b2": dz.sum(axis=0)}


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
        self.crop_size = crop_size
        self.in_dim = crop_size * crop_size * 3
        self.hidden = hidden
        self.dim = dim
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
        self.vec = np.zeros(sum(math.prod(shape) for _, shape, _ in self.layout))
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
        out, pos = {}, 0
        for key, shape, _ in self.layout:
            n = math.prod(shape)
            out[key] = vec[pos:pos + n].reshape(shape)
            pos += n
        return out

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
        pal_l, d_zs_pal = palette_invariance_loss_grad(zs)
        z_bar = embedding_centroid(zs)
        r, h_r = encode(x_r, params, "r")
        u, g = gated_fuse(z_bar, r, params["gate.w"], params["gate.b"])

        # Classification head: focal loss over the rows.
        p = _sigmoid_vec(u @ params["head.w_cls"] + params["head.b_cls"][0])
        cls_l, d_p = focal_loss_grad(p, positive, weights.focal_alpha,
                                     weights.focal_gamma)
        d_logit = d_p * p * (1.0 - p) / n

        # Box head: sigmoid (cx, cy, w, h) -> corners.
        s_box = _sigmoid_vec(u @ params["head.w_box"].T + params["head.b_box"])
        half_w = (0.02 + s_box[:, 2]) / 2.0
        half_h = (0.02 + s_box[:, 3]) / 2.0
        pred = np.stack([s_box[:, 0] - half_w, s_box[:, 1] - half_h,
                         s_box[:, 0] + half_w, s_box[:, 1] + half_h], axis=1)
        # GIoU over the positive rows, scattered back so that the sums below
        # run over all n rows.
        k = len(batch.boxes)
        box_l = np.zeros(n)
        d_corners = np.zeros((n, 4))
        box_l[positive], d_corners[positive] = giou_loss_grad(pred[positive],
                                                              batch.boxes)
        d_box = np.stack([d_corners[:, 0] + d_corners[:, 2],
                          d_corners[:, 1] + d_corners[:, 3],
                          (d_corners[:, 2] - d_corners[:, 0]) / 2.0,
                          (d_corners[:, 3] - d_corners[:, 1]) / 2.0], axis=1)
        box_w = weights.lambda_box / k if k else 0.0
        d_t_box = d_box * s_box * (1.0 - s_box) * box_w

        # Backward: each weight gradient is one contraction over the batch,
        # copied into its view of the flat gradient.
        du = np.outer(d_logit, params["head.w_cls"]) + d_t_box @ params["head.w_box"]
        dz_bar, dr, d_gw, d_gb = gated_fuse_backward(
            z_bar, r, params["gate.w"], g, du)
        dzs = dz_bar[:, None, :] / m + (weights.lambda_pal / n) * d_zs_pal
        grads = {"head.w_cls": d_logit @ u, "head.b_cls": d_logit.sum(),
                 "head.w_box": d_t_box.T @ u, "head.b_box": d_t_box.sum(axis=0),
                 "gate.w": d_gw, "gate.b": d_gb,
                 **encode_backward(x_t, h_t, params, "t", dzs),
                 **encode_backward(x_r, h_r, params, "r", dr)}
        grad = np.empty_like(vec)
        for key, view in self.views(grad).items():
            view[...] = grads[key]

        aux = {"cls": float(cls_l.mean()), "pal": float(pal_l.mean()),
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
    draws = []
    noise = []
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
