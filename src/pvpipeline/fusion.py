"""Fusion mathematics at toy scale: palette-invariance loss, gated fusion,
focal and GIoU losses, the composite training objective, small trainable
encoders with hand-derived analytic gradients, and finite-difference
gradient verification.

Embeddings are plain float64 numpy vectors of a fixed dimension D. The
encoders, the gate and the palette term also take stacked rows, and
FusionModel.loss_and_grads runs forward and backward once over the whole
batch of samples and palettes, each weight gradient one contraction over
the rows; only the scalar focal and GIoU terms are evaluated per sample.
Every weight lives in one flat parameter dict keyed by PARAM_KEYS: the
encoders read theirs from it by prefix, and the backward pass reuses the
hidden activations of the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import TemperatureMap, apply_palette, load_all_palettes, \
    normalize_temperature

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

def focal_loss_grad(pred_prob: float, is_positive: bool,
                    alpha: float = 0.25, gamma: float = 2.0):
    """Loss and d(loss)/d(pred_prob)."""
    p = min(max(pred_prob, PROB_EPS), 1.0 - PROB_EPS)
    pt = p if is_positive else 1.0 - p
    loss = -alpha * (1.0 - pt) ** gamma * math.log(pt)
    d_pt = -alpha * (1.0 - pt) ** gamma / pt
    if gamma > 0:
        d_pt += alpha * gamma * (1.0 - pt) ** (gamma - 1.0) * math.log(pt)
    return loss, d_pt if is_positive else -d_pt


# ---------------------------------------------------------------------------
# GIoU loss
# ---------------------------------------------------------------------------

def giou_loss_grad(a, b):
    """Loss and gradient w.r.t. the first box's (x1, y1, x2, y2)."""
    ax1, ay1, ax2, ay2 = np.asarray(a, dtype=np.float64)
    bx1, by1, bx2, by2 = np.asarray(b, dtype=np.float64)
    if ax2 <= ax1 or ay2 <= ay1 or bx2 <= bx1 or by2 <= by1:
        raise FusionError("degenerate box")

    ix1, ix2 = max(ax1, bx1), min(ax2, bx2)
    iy1, iy2 = max(ay1, by1), min(ay2, by2)
    iw, ih = max(ix2 - ix1, 0.0), max(iy2 - iy1, 0.0)
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    cx1, cx2 = min(ax1, bx1), max(ax2, bx2)
    cy1, cy2 = min(ay1, by1), max(ay2, by2)
    cw, ch = cx2 - cx1, cy2 - cy1
    hull = cw * ch
    iou = inter / union
    giou = iou - (hull - union) / hull
    loss = 1.0 - giou

    # Partials of area_a.
    d_area = np.array([-(ay2 - ay1), -(ax2 - ax1), (ay2 - ay1), (ax2 - ax1)])
    # Partials of intersection (zero when boxes are disjoint on that axis).
    d_inter = np.zeros(4)
    if iw > 0 and ih > 0:
        if ax1 > bx1:
            d_inter[0] = -ih
        if ax2 < bx2:
            d_inter[2] = ih
        if ay1 > by1:
            d_inter[1] = -iw
        if ay2 < by2:
            d_inter[3] = iw
    d_union = d_area - d_inter
    d_iou = (d_inter * union - inter * d_union) / union ** 2
    # Partials of hull.
    d_hull = np.zeros(4)
    if ax1 < bx1:
        d_hull[0] = -ch
    if ax2 > bx2:
        d_hull[2] = ch
    if ay1 < by1:
        d_hull[1] = -cw
    if ay2 > by2:
        d_hull[3] = cw
    # d giou = d_iou + d(U/C) = d_iou + (d_union * hull - union * d_hull) / hull^2
    d_giou = d_iou + (d_union * hull - union * d_hull) / hull ** 2
    return float(loss), -d_giou


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

PARAM_KEYS = ("t.w1", "t.b1", "t.w2", "t.b2",
              "r.w1", "r.b1", "r.w2", "r.b2",
              "gate.w", "gate.b",
              "head.w_cls", "head.b_cls", "head.w_box", "head.b_box")


@dataclass
class ToySample:
    """One synthetic crop pair: M palette renderings of a thermal crop plus
    an RGB crop, a defect label, and (for positives) a target box in
    normalized [0, 1] image coordinates."""

    palette_inputs: np.ndarray  # (M, in_dim) flattened RGB renders in [0, 1]
    rgb_input: np.ndarray       # (in_dim,)
    is_positive: bool
    box: np.ndarray | None      # (4,) normalized or None


class FusionModel:
    """Toy thermal/RGB fusion model with analytic gradients."""

    def __init__(self, seed: int = 0, crop_size: int = 16, hidden: int = 16,
                 dim: int = 32):
        self.crop_size = crop_size
        self.in_dim = crop_size * crop_size * 3
        self.hidden = hidden
        self.dim = dim
        rng = np.random.default_rng(seed)
        self.params = {}
        for prefix in ("t", "r"):  # thermal, then RGB encoder
            self.params.update({
                prefix + ".w1": 0.5 * rng.standard_normal((hidden, self.in_dim))
                / math.sqrt(self.in_dim),
                prefix + ".b1": np.zeros(hidden),
                prefix + ".w2": 0.5 * rng.standard_normal((dim, hidden))
                / math.sqrt(hidden),
                prefix + ".b2": np.zeros(dim)})
        self.params.update({
            "gate.w": 0.1 * rng.standard_normal((dim, 2 * dim)),
            "gate.b": np.zeros(dim),
            "head.w_cls": 0.1 * rng.standard_normal(dim), "head.b_cls": np.zeros(1),
            "head.w_box": 0.1 * rng.standard_normal((4, dim)), "head.b_box": np.zeros(4),
        })

    # -- parameter vector helpers --------------------------------------

    def flatten(self, params=None) -> np.ndarray:
        params = self.params if params is None else params
        return np.concatenate([params[k].ravel() for k in PARAM_KEYS])

    def unflatten(self, vec: np.ndarray) -> dict:
        out = {}
        pos = 0
        for k in PARAM_KEYS:
            shape = self.params[k].shape
            n = int(np.prod(shape))
            out[k] = vec[pos:pos + n].reshape(shape).copy()
            pos += n
        return out

    # -- forward --------------------------------------------------------

    def loss_and_grads(self, params, samples, weights: LossWeights):
        """Mean composite loss over samples plus aggregated gradients.

        L_cls and L_pal average over all samples; L_box averages over the
        positive samples carrying a target box. The whole batch goes through
        the encoders, gate and heads at once, so every sample needs the same
        (M, in_dim) palette inputs and the same RGB input shape.
        """
        if not samples:
            raise FusionError("need at least one sample")
        shapes = sorted({(np.shape(s.palette_inputs), np.shape(s.rgb_input))
                         for s in samples})
        if len(shapes) > 1:
            raise FusionError("samples must share palette and RGB input shapes, "
                              f"got (palette, rgb) shapes {shapes}")
        n = len(samples)
        x_t = np.concatenate([s.palette_inputs for s in samples])  # (N*M, in)
        x_r = np.stack([s.rgb_input for s in samples])             # (N, in)
        m = x_t.shape[0] // n

        zs, h_t = encode(x_t, params, "t")
        zs = zs.reshape(n, m, -1)
        pal_l, d_zs_pal = palette_invariance_loss_grad(zs)
        z_bar = embedding_centroid(zs)
        r, h_r = encode(x_r, params, "r")
        u, g = gated_fuse(z_bar, r, params["gate.w"], params["gate.b"])

        # Classification head: focal loss per row in its scalar form.
        p = _sigmoid_vec(u @ params["head.w_cls"] + params["head.b_cls"][0])
        cls_l = np.empty(n)
        d_p = np.empty(n)
        for i, s in enumerate(samples):
            cls_l[i], d_p[i] = focal_loss_grad(float(p[i]), s.is_positive,
                                               weights.focal_alpha,
                                               weights.focal_gamma)
        d_logit = d_p * p * (1.0 - p) / n

        # Box head: sigmoid (cx, cy, w, h) -> corners, GIoU per boxed row.
        s_box = _sigmoid_vec(u @ params["head.w_box"].T + params["head.b_box"])
        half_w = (0.02 + s_box[:, 2]) / 2.0
        half_h = (0.02 + s_box[:, 3]) / 2.0
        pred = np.stack([s_box[:, 0] - half_w, s_box[:, 1] - half_h,
                         s_box[:, 0] + half_w, s_box[:, 1] + half_h], axis=1)
        boxed = [i for i, s in enumerate(samples)
                 if s.is_positive and s.box is not None]
        box_l = np.zeros(n)
        d_corners = np.zeros((n, 4))
        for i in boxed:
            box_l[i], d_corners[i] = giou_loss_grad(pred[i], samples[i].box)
        d_box = np.stack([d_corners[:, 0] + d_corners[:, 2],
                          d_corners[:, 1] + d_corners[:, 3],
                          (d_corners[:, 2] - d_corners[:, 0]) / 2.0,
                          (d_corners[:, 3] - d_corners[:, 1]) / 2.0], axis=1)
        box_w = weights.lambda_box / len(boxed) if boxed else 0.0
        d_t_box = d_box * s_box * (1.0 - s_box) * box_w

        # Backward: each weight gradient is one contraction over the batch.
        du = np.outer(d_logit, params["head.w_cls"]) + d_t_box @ params["head.w_box"]
        dz_bar, dr, d_gw, d_gb = gated_fuse_backward(
            z_bar, r, params["gate.w"], g, du)
        dzs = dz_bar[:, None, :] / m + (weights.lambda_pal / n) * d_zs_pal
        grads = {"head.w_cls": d_logit @ u, "head.b_cls": np.array([d_logit.sum()]),
                 "head.w_box": d_t_box.T @ u, "head.b_box": d_t_box.sum(axis=0),
                 "gate.w": d_gw, "gate.b": d_gb}
        grads.update(encode_backward(x_t, h_t, params, "t", dzs))
        grads.update(encode_backward(x_r, h_r, params, "r", dr))

        aux = {"cls": float(cls_l.mean()), "pal": float(pal_l.mean()),
               "box": float(box_l.sum()) / len(boxed) if boxed else 0.0}
        total = total_loss(aux["cls"], aux["box"], aux["pal"], weights)
        if not math.isfinite(total):
            raise TrainingDiverged("non-finite loss")
        return total, {k: grads[k] for k in PARAM_KEYS}, aux

    def loss_closure(self, samples, weights: LossWeights):
        """(flat params) -> (loss, flat grad) for optimization and checking."""
        def closure(vec: np.ndarray):
            params = self.unflatten(vec)
            loss, grads, _ = self.loss_and_grads(params, samples, weights)
            return loss, self.flatten(grads)
        return closure


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

def make_toy_samples(n: int, seed: int = 0, crop_size: int = 16) -> list:
    """Synthetic thermal/RGB crop pairs.

    Every crop shows a hot Gaussian blob; only the RGB stream separates a
    real defect (dark damage spot) from a look-alike glint (clean panel).
    This mirrors the field failure mode where reflections mimic hotspots.
    Positives carry the blob's bounding box. Inputs are zero-centered.
    """
    rng = np.random.default_rng(seed)
    luts = load_all_palettes()
    yy, xx = np.mgrid[0:crop_size, 0:crop_size].astype(np.float64)
    samples = []
    for i in range(n):
        positive = bool(i % 2 == 0)
        base = 25.0 + 3.0 * rng.random() * (xx / crop_size)
        cx = rng.uniform(0.25, 0.75) * crop_size
        cy = rng.uniform(0.25, 0.75) * crop_size
        sig = rng.uniform(1.0, 2.5)
        excess = rng.uniform(8.0, 25.0)
        blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig ** 2))
        temp = base + excess * blob
        gray = normalize_temperature(TemperatureMap(temp_c=temp))
        pal_inputs = np.stack([
            apply_palette(gray, lut).pixels.astype(np.float64).ravel() / 255.0 - 0.5
            for lut in luts])
        rgb_gray = 0.6 + 0.02 * rng.standard_normal((crop_size, crop_size))
        box = None
        if positive:
            rgb_gray = rgb_gray - 0.4 * blob
            half = 2.0 * sig / crop_size
            box = np.array([cx / crop_size - half, cy / crop_size - half,
                            cx / crop_size + half, cy / crop_size + half])
        rgb = np.clip(np.repeat(rgb_gray[..., None], 3, axis=2), 0, 1) - 0.5
        samples.append(ToySample(palette_inputs=pal_inputs,
                                 rgb_input=rgb.ravel(),
                                 is_positive=positive, box=box))
    return samples


@dataclass
class TrainResult:
    params: dict
    total_trace: list
    pal_trace: list


def train_toy(samples, epochs: int = 600, learning_rate: float = 0.02,
              weights: LossWeights = LossWeights(), seed: int = 0,
              model: FusionModel | None = None) -> TrainResult:
    """Full-batch Adam on the composite loss (deterministic given the seed)."""
    if len(samples) < 32:
        raise FusionError("need at least 32 samples")
    if model is None:
        crop = int(round(math.sqrt(samples[0].rgb_input.size / 3)))
        model = FusionModel(seed=seed, crop_size=crop)
    vec = model.flatten()
    m1 = np.zeros_like(vec)
    m2 = np.zeros_like(vec)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    total_trace = []
    pal_trace = []
    for t in range(1, epochs + 1):
        params = model.unflatten(vec)
        loss, grads, aux = model.loss_and_grads(params, samples, weights)
        total_trace.append(loss)
        pal_trace.append(aux["pal"])
        g = model.flatten(grads)
        m1 = beta1 * m1 + (1 - beta1) * g
        m2 = beta2 * m2 + (1 - beta2) * g * g
        step = learning_rate * (m1 / (1 - beta1 ** t)) / (np.sqrt(m2 / (1 - beta2 ** t)) + eps)
        vec = vec - step
        if not np.all(np.isfinite(vec)):
            raise TrainingDiverged("parameters diverged")
    model.params = model.unflatten(vec)
    return TrainResult(params=model.params, total_trace=total_trace, pal_trace=pal_trace)
