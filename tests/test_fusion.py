import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvpipeline import fusion
from pvpipeline.fusion import (PROB_EPS, FusionError, FusionModel,
                               LossWeights, ToyBatch, TrainingDiverged,
                               embedding_centroid, focal_loss_grad,
                               gated_fuse, gated_fuse_backward,
                               giou_loss_grad, gradient_check,
                               make_toy_samples,
                               palette_invariance_loss_grad, total_loss,
                               train_toy)
from pvpipeline.thermal import load_all_palettes

from oracles import (focal_loss_grad_reference, giou_loss_grad_reference,
                     mean_pairwise_distance, sigmoid_masked)

TRACE_PATH = Path(__file__).parent / "data" / "toy_train_trace.json"
BENCH_REFERENCE = (Path(__file__).parent.parent / "perfbench"
                   / "reference.json")

GRAD_TOL = 1e-4
N_INSTANCES = 100


# ---------------------------------------------------------------------------
# Per-term gradient checks against central finite differences
# ---------------------------------------------------------------------------

def test_palette_loss_gradient_100_instances():
    rng = np.random.default_rng(10)
    for _ in range(N_INSTANCES):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        members = rng.standard_normal((m, d))

        def closure(vec):
            mats = vec.reshape(m, d)
            loss, grads = palette_invariance_loss_grad(mats)
            return loss, np.asarray(grads).ravel()

        assert gradient_check(closure, members.ravel()) < GRAD_TOL


def test_gate_gradient_100_instances():
    rng = np.random.default_rng(11)
    for _ in range(N_INSTANCES):
        d = int(rng.integers(2, 5))
        z = rng.standard_normal(d)
        r = rng.standard_normal(d)
        gate_w = 0.5 * rng.standard_normal((d, 2 * d))
        du = rng.standard_normal(d)  # fixed upstream gradient
        n_zw = 2 * d
        n_w = d * 2 * d

        def closure(vec):
            zr = vec[:n_zw]
            gw = vec[n_zw:n_zw + n_w].reshape(d, 2 * d)
            u, g = gated_fuse(zr, gw, vec[n_zw + n_w:])
            grad = np.empty_like(vec)
            grad[:d], grad[d:n_zw] = gated_fuse_backward(
                zr, gw, g, du, grad[n_zw:n_zw + n_w].reshape(d, 2 * d),
                grad[n_zw + n_w:])
            return float(du @ u), grad

        vec0 = np.concatenate([z, r, gate_w.ravel(), np.zeros(d)])
        assert gradient_check(closure, vec0) < GRAD_TOL


def test_focal_gradient_100_instances():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(N_INSTANCES):
        p = float(rng.uniform(0.05, 0.95))
        positive = bool(rng.integers(0, 2))
        alpha = float(rng.uniform(0.1, 1.0))
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        _, grad = focal_loss_grad(p, positive, alpha, gamma)
        num = (focal_loss_grad(p + h, positive, alpha, gamma)[0]
               - focal_loss_grad(p - h, positive, alpha, gamma)[0]) / (2 * h)
        assert abs(grad - num) / max(abs(num), 1e-6) < GRAD_TOL


def _random_box(rng, lo=0.0, hi=10.0):
    x = np.sort(rng.uniform(lo, hi, 2))
    y = np.sort(rng.uniform(lo, hi, 2))
    while x[1] - x[0] < 0.2 or y[1] - y[0] < 0.2:
        x = np.sort(rng.uniform(lo, hi, 2))
        y = np.sort(rng.uniform(lo, hi, 2))
    return np.array([x[0], y[0], x[1], y[1]])


def test_giou_gradient_100_instances():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < N_INSTANCES:
        a = _random_box(rng)
        b = _random_box(rng)

        def closure(vec, b=b):
            return giou_loss_grad(vec, b)

        assert gradient_check(closure, a, step=1e-6) < GRAD_TOL
        checked += 1


def test_giou_gradient_covers_disjoint_boxes():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = _random_box(rng, 0.0, 4.0)
        b = _random_box(rng, 6.0, 10.0)
        assert giou_loss_grad(a, b)[0] > 1.0  # disjoint => negative GIoU

        def closure(vec, b=b):
            return giou_loss_grad(vec, b)

        assert gradient_check(closure, a, step=1e-6) < GRAD_TOL


def test_gate_gradient_at_dim_48_is_off_only_by_central_difference_noise():
    # fuse-check's fourth gate instance at --seed 1 --dim 48, drawn in
    # run_fuse_check's order, fails GRAD_TOL at its 1e-5 step. On every
    # failing coordinate the analytic gradient, at most about 1e-6 and so
    # measured against the 1e-6 floor, agrees with a 1e-3 step's central
    # difference to 1e-11, and the 1e-5 step's error is what evaluating a
    # loss of size |L| in doubles leaves after dividing by 2h: about
    # |L| u / h, u = 2^-53. So the gradient is right; the check's step is
    # too short for gradients this small.
    dim, n_w = 48, 2 * 48 * 48
    rng = np.random.default_rng(1)
    for _ in range(4):
        rng.standard_normal((4, dim))                 # palette instance
        gate_w = 0.5 * rng.standard_normal((dim, 2 * dim))
        zr = rng.standard_normal(2 * dim)
        du = rng.standard_normal(dim)
        rng.normal(), rng.integers(2), rng.uniform(0, 1, (4, 2))  # focal, GIoU

    def closure(vec):
        gw = vec[2 * dim:2 * dim + n_w].reshape(dim, 2 * dim)
        u, g = gated_fuse(vec[:2 * dim], gw, vec[2 * dim + n_w:])
        grad = np.empty_like(vec)
        grad[:dim], grad[dim:2 * dim] = gated_fuse_backward(
            vec[:2 * dim], gw, g, du,
            grad[2 * dim:2 * dim + n_w].reshape(dim, 2 * dim),
            grad[2 * dim + n_w:])
        return float(du @ u), grad

    vec0 = np.concatenate([zr, gate_w.ravel(), np.zeros(dim)])
    loss, grad = closure(vec0)

    def central(i, step):
        hi, lo = vec0.copy(), vec0.copy()
        hi[i] += step
        lo[i] -= step
        return (closure(hi)[0] - closure(lo)[0]) / (2.0 * step)

    num = np.array([central(i, 1e-5) for i in range(vec0.size)])
    rel = np.abs(grad - num) / np.maximum(np.maximum(np.abs(grad),
                                                     np.abs(num)), 1e-6)
    assert gradient_check(closure, vec0) == rel.max() > GRAD_TOL
    failing = np.flatnonzero(rel > GRAD_TOL)
    assert np.abs(grad[failing]).max() < 2e-6
    noise = abs(loss) * 2.0 ** -53 / 1e-5
    assert np.abs(grad - num)[failing].max() <= 2.0 * noise
    assert max(abs(grad[i] - central(i, 1e-3)) for i in failing) <= 1e-11


# ---------------------------------------------------------------------------
# Composite model gradient (directional finite differences for speed)
# ---------------------------------------------------------------------------

def test_composite_model_directional_gradients():
    model = FusionModel(seed=3, crop_size=8, hidden=6, dim=8)
    batch = make_toy_samples(6, seed=3, crop_size=8)
    closure = model.loss_closure(batch, LossWeights())
    vec = model.vec
    loss0, grad = closure(vec)
    assert math.isfinite(loss0)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(20):
        d = rng.standard_normal(vec.size)
        d /= np.linalg.norm(d)
        num = (closure(vec + h * d)[0] - closure(vec - h * d)[0]) / (2 * h)
        ana = float(grad @ d)
        assert abs(ana - num) / max(abs(num), abs(ana), 1e-6) < GRAD_TOL


def test_composite_model_full_check_small():
    model = FusionModel(seed=0, crop_size=4, hidden=3, dim=4)
    batch = make_toy_samples(4, seed=0, crop_size=4)
    closure = model.loss_closure(batch, LossWeights())
    assert gradient_check(closure, model.vec) < GRAD_TOL


# ---------------------------------------------------------------------------
# Loss identities
# ---------------------------------------------------------------------------

def test_palette_loss_zero_for_identical_members():
    z = np.ones((4, 5)) * 3.0
    assert palette_invariance_loss_grad(z)[0] == pytest.approx(0.0)
    assert np.allclose(embedding_centroid(z), 3.0)


def test_palette_loss_hand_value():
    # Two 1-D members at 0 and 2: centroid 1, each deviation 1 => loss 1.
    members = np.array([[0.0], [2.0]])
    assert palette_invariance_loss_grad(members)[0] == pytest.approx(1.0)
    assert mean_pairwise_distance(members) == pytest.approx(2.0)


def test_focal_reduces_to_cross_entropy_at_gamma_zero():
    p = 0.3
    assert focal_loss_grad(p, True, alpha=1.0, gamma=0.0)[0] == pytest.approx(
        -math.log(p))
    assert focal_loss_grad(p, False, alpha=1.0, gamma=0.0)[0] == pytest.approx(
        -math.log(1.0 - p))


def test_focal_downweights_easy_examples():
    # gamma > 0 shrinks well-classified losses far more than hard ones.
    easy_ce = focal_loss_grad(0.95, True, alpha=1.0, gamma=0.0)[0]
    easy_fl = focal_loss_grad(0.95, True, alpha=1.0, gamma=2.0)[0]
    hard_ce = focal_loss_grad(0.10, True, alpha=1.0, gamma=0.0)[0]
    hard_fl = focal_loss_grad(0.10, True, alpha=1.0, gamma=2.0)[0]
    assert easy_fl / easy_ce < 0.01
    assert hard_fl / hard_ce > 0.5


def test_giou_identical_boxes_zero_loss():
    box = [1.0, 2.0, 4.0, 5.0]
    assert giou_loss_grad(box, box)[0] == pytest.approx(0.0)


def test_giou_degenerate_box_rejected():
    with pytest.raises(FusionError):
        giou_loss_grad([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Row-wise focal and GIoU against their single-row calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 3.0])
def test_focal_rows_equal_single_row_calls(gamma):
    rng = np.random.default_rng(15)
    p = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.0, 1e-13, 0.5, 1.0]])
    positive = rng.integers(0, 2, p.size).astype(bool)
    loss, grad = focal_loss_grad(p, positive, 0.3, gamma)
    assert loss.shape == grad.shape == p.shape
    for i in range(p.size):
        one = focal_loss_grad(float(p[i]), bool(positive[i]), 0.3, gamma)
        assert isinstance(one[0], float) and isinstance(one[1], float)
        assert (loss[i], grad[i]) == one


def test_giou_rows_equal_single_row_calls():
    rng = np.random.default_rng(16)
    a = np.array([_random_box(rng, 0.0, 6.0) for _ in range(60)])
    b = np.array([_random_box(rng, 4.0, 10.0) for _ in range(60)])
    b[:5] = a[:5]                                  # identical boxes
    size = a[5:10, 2:] - a[5:10, :2]
    b[5:10] = a[5:10] + np.hstack([size, -size]) / 4  # nested inside
    b[10:15] = a[10:15] + [0.0, 0.0, 1.0, 0.0]     # shared edges
    loss, grad = giou_loss_grad(a, b)
    assert loss.shape == (60,) and grad.shape == (60, 4)
    assert np.any(loss > 1.0) and np.any(loss < 1.0)  # disjoint and overlapping
    for i in range(60):
        one_loss, one_grad = giou_loss_grad(a[i], b[i])
        assert isinstance(one_loss, float) and one_grad.shape == (4,)
        assert loss[i] == one_loss
        assert np.array_equal(grad[i], one_grad)
    empty = giou_loss_grad(np.empty((0, 4)), np.empty((0, 4)))
    assert empty[0].shape == (0,) and empty[1].shape == (0, 4)


@pytest.mark.parametrize("row", range(5))
@pytest.mark.parametrize("side", ["a", "b"])
def test_giou_degenerate_box_in_any_row_rejected(row, side):
    rng = np.random.default_rng(17)
    boxes = {"a": np.array([_random_box(rng) for _ in range(5)]),
             "b": np.array([_random_box(rng) for _ in range(5)])}
    box = boxes[side][row]
    box[2 + row % 2] = box[row % 2]                # zero width or height
    with pytest.raises(FusionError, match="degenerate box"):
        giou_loss_grad(boxes["a"], boxes["b"])


@pytest.mark.parametrize("a,b", [
    (np.zeros((3, 4)), np.zeros((2, 4))),
    (np.zeros(3), np.zeros(3)),
    (np.zeros((2, 2, 4)), np.zeros((2, 2, 4))),
])
def test_giou_rejects_mismatched_box_shapes(a, b):
    with pytest.raises(FusionError, match="boxes must be"):
        giou_loss_grad(a, b)


def test_gate_output_is_convex_combination():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(6)
    r = rng.standard_normal(6)
    u, g = gated_fuse(np.concatenate([z, r]), 0.5 * rng.standard_normal((6, 12)),
                      np.zeros(6))
    assert np.all((g > 0) & (g < 1))
    lo = np.minimum(z, r) - 1e-12
    hi = np.maximum(z, r) + 1e-12
    assert np.all((u >= lo) & (u <= hi))


def test_total_loss_weighting():
    w = LossWeights(lambda_box=2.0, lambda_pal=0.5)
    assert total_loss(1.0, 3.0, 4.0, w) == pytest.approx(1.0 + 6.0 + 2.0)
    with pytest.raises(FusionError):
        LossWeights(lambda_pal=-0.1)


# ---------------------------------------------------------------------------
# The trimmed sigmoid, focal and GIoU forms against their earlier bodies
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324,
                1e-310, -1e-310, math.inf, -math.inf, math.nan, -math.nan]


def _same_bits(got, want):
    return (np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@given(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), max_size=70),
       st.sampled_from([1, 2, 4]))
def test_sigmoid_bits_equal_the_masked_form(values, columns):
    x = np.array(values[:len(values) // columns * columns]).reshape(-1, columns)
    assert _same_bits(fusion._sigmoid_vec(x), sigmoid_masked(x))
    # Each value on its own, and all of them as one row.
    for row in (x.ravel(), *x.ravel()[:, None]):
        assert _same_bits(fusion._sigmoid_vec(row), sigmoid_masked(row))


_probabilities = (st.floats(0.0, 1.0) | st.floats(0.0, 1e-11)
                  | st.floats(0.0, 1e-11).map(lambda e: 1.0 - e)
                  | st.sampled_from([0.0, 5e-324, 1e-13, PROB_EPS, 0.5,
                                     1.0 - PROB_EPS, 1.0 - 2.0 ** -53, 1.0]))


@given(st.lists(st.tuples(_probabilities, st.booleans()), min_size=1,
                max_size=40),
       st.floats(0.01, 1.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
def test_focal_bits_equal_the_reference_form(rows, alpha, gamma):
    p = np.array([q for q, _ in rows])
    positive = np.array([y for _, y in rows])
    got = focal_loss_grad(p, positive, alpha, gamma)
    want = focal_loss_grad_reference(p, positive, alpha, gamma)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    one = focal_loss_grad(float(p[0]), bool(positive[0]), alpha, gamma)
    ref = focal_loss_grad_reference(float(p[0]), bool(positive[0]), alpha,
                                    gamma)
    assert [type(v) for v in one] == [float, float]
    assert [v.hex() for v in one] == [v.hex() for v in ref]


@st.composite
def box_pairs(draw):
    """A box a and a box b that is nested in it or holds it, equals it,
    touches it along an edge or at a corner, lies apart from it, or cuts
    it."""
    coord = st.floats(-10.0, 10.0)
    side = st.floats(0.01, 5.0)
    x, y, w, h = draw(st.tuples(coord, coord, side, side))
    a = np.array([x, y, x + w, y + h])
    kind = draw(st.sampled_from(["nested", "holds", "identical", "edge",
                                 "corner", "apart", "cuts"]))
    f = draw(st.tuples(*[st.floats(0.0, 0.49)] * 4))
    if kind == "nested":
        b = a + np.array([w * f[0], h * f[1], -w * f[2], -h * f[3]])
    elif kind == "holds":
        b = a + np.array([-w * f[0], -h * f[1], w * f[2], h * f[3]])
    elif kind == "identical":
        b = a.copy()
    elif kind in ("edge", "corner"):
        dy = h if kind == "corner" else h * f[0]
        b = np.array([x + w, y + dy, x + w + draw(side), y + dy + draw(side)])
    else:
        gap = draw(st.floats(0.01, 5.0)) if kind == "apart" else -w * f[0]
        b = np.array([x + w + gap, y + h * f[1], x + 2 * w + gap,
                      y + h * (1 + f[2])])
    if draw(st.booleans()):
        a, b = b, a
    return a, b


@given(st.lists(box_pairs(), max_size=20))
def test_giou_bits_equal_the_reference_form(pairs):
    pairs = [(a, b) for a, b in pairs
             if (a[2:] > a[:2]).all() and (b[2:] > b[:2]).all()]
    a = np.array([p[0] for p in pairs]).reshape(-1, 4)
    b = np.array([p[1] for p in pairs]).reshape(-1, 4)
    got, want = giou_loss_grad(a, b), giou_loss_grad_reference(a, b)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    for row_a, row_b in zip(a, b):
        one, ref = giou_loss_grad(row_a, row_b), giou_loss_grad_reference(
            row_a, row_b)
        assert type(one[0]) is float and one[0].hex() == ref[0].hex()
        assert _same_bits(one[1], ref[1])


# ---------------------------------------------------------------------------
# Batched loss_and_grads against the per-sample, per-palette loop
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _encode_vec(x, params, prefix):
    h = np.tanh(params[prefix + ".w1"] @ x + params[prefix + ".b1"])
    return h, params[prefix + ".w2"] @ h + params[prefix + ".b2"]


def _encode_vec_backward(x, h, params, prefix, dz, grads):
    dpre = (params[prefix + ".w2"].T @ dz) * (1.0 - h ** 2)
    grads[prefix + ".w1"] += np.outer(dpre, x)
    grads[prefix + ".b1"] += dpre
    grads[prefix + ".w2"] += np.outer(dz, h)
    grads[prefix + ".b2"] += dz


def _loop_loss_and_grads(params, batch, weights):
    """Reference: one batch row and one palette vector at a time, with its
    own encoder, gate and head arithmetic; only the scalar focal and GIoU
    functions (finite-difference checked above) are shared."""
    n = len(batch.x_r)
    n_pos = int(np.count_nonzero(batch.positive))
    boxes = iter(batch.boxes)
    grads = {k: np.zeros_like(w) for k, w in params.items()}
    cls_acc = box_acc = pal_acc = 0.0
    for x_t, x_r, positive in zip(batch.x_t, batch.x_r, batch.positive):
        box_w = 1.0 / n_pos if positive else 0.0
        enc = [_encode_vec(x, params, "t") for x in x_t]
        zs = np.stack([z for _, z in enc])
        m, dim = zs.shape
        z_bar = zs.mean(axis=0)
        diff = zs - z_bar
        pal_l = float(np.mean(np.sum(diff ** 2, axis=1)))
        h_r, r = _encode_vec(x_r, params, "r")
        zr = np.concatenate([z_bar, r])
        g = np.array([_sigmoid(v) for v in params["gate.w"] @ zr + params["gate.b"]])
        u = g * z_bar + (1.0 - g) * r

        p = _sigmoid(float(params["head.w_cls"] @ u + params["head.b_cls"][0]))
        cls_l, d_p = focal_loss_grad(p, positive, weights.focal_alpha,
                                     weights.focal_gamma)
        d_logit = d_p * p * (1.0 - p) / n
        box_l = 0.0
        d_t_box = np.zeros(4)
        if positive:
            sb = np.array([_sigmoid(v) for v in
                           params["head.w_box"] @ u + params["head.b_box"]])
            cx, cy, w, h = sb[0], sb[1], 0.02 + sb[2], 0.02 + sb[3]
            box_l, d = giou_loss_grad([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2],
                                      next(boxes))
            d_t_box = (np.array([d[0] + d[2], d[1] + d[3], (d[2] - d[0]) / 2,
                                 (d[3] - d[1]) / 2])
                       * sb * (1 - sb) * box_w * weights.lambda_box)

        du = d_logit * params["head.w_cls"] + params["head.w_box"].T @ d_t_box
        grads["head.w_cls"] += d_logit * u
        grads["head.b_cls"] += d_logit
        grads["head.w_box"] += np.outer(d_t_box, u)
        grads["head.b_box"] += d_t_box
        ds = du * (z_bar - r) * g * (1.0 - g)
        grads["gate.w"] += np.outer(ds, zr)
        grads["gate.b"] += ds
        dzr = params["gate.w"].T @ ds
        _encode_vec_backward(x_r, h_r, params, "r",
                             du * (1.0 - g) + dzr[dim:], grads)
        dz_bar = du * g + dzr[:dim]
        for (h_t, _), x, dd in zip(enc, x_t, diff):
            dz = dz_bar / m + (weights.lambda_pal / n) * (2.0 / m) * dd
            _encode_vec_backward(x, h_t, params, "t", dz, grads)
        cls_acc += cls_l / n
        box_acc += box_l * box_w
        pal_acc += pal_l / n
    total = cls_acc + weights.lambda_box * box_acc + weights.lambda_pal * pal_acc
    return total, grads, {"cls": cls_acc, "box": box_acc, "pal": pal_acc}


def _random_batch(rng, n, m, in_dim, kinds):
    """A ToyBatch whose rows cycle through kinds: 'pos' (positive, with a
    random target box) or 'neg'."""
    x_t, x_r, positive, boxes = [], [], [], []
    for i in range(n):
        positive.append(kinds[i % len(kinds)] == "pos")
        if positive[-1]:
            lo = rng.uniform(0.05, 0.45, 2)
            boxes.append(np.concatenate([lo, lo + rng.uniform(0.1, 0.5, 2)]))
        x_t.append(rng.uniform(-0.5, 0.5, (m, in_dim)))
        x_r.append(rng.uniform(-0.5, 0.5, in_dim))
    return ToyBatch(x_t=np.stack(x_t), x_r=np.stack(x_r),
                    positive=np.array(positive),
                    boxes=np.array(boxes).reshape(len(boxes), 4))


def _assert_rel(actual, expected, rtol=1e-12):
    """Largest absolute difference within rtol of the largest |expected|
    (exact equality when expected is all zero)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("n,m,kinds", [
    (1, 2, ("pos",)),
    (1, 3, ("neg",)),                   # no positive row: n_pos == 0
    (2, 4, ("pos", "neg")),
    (5, 2, ("pos", "neg", "neg")),
    (5, 3, ("neg", "pos")),
    (5, 4, ("neg", "pos", "neg", "pos")),
    (4, 3, ("pos",)),                   # every row positive
])
def test_batched_loss_and_grads_matches_loop(n, m, kinds):
    rng = np.random.default_rng(100 + 10 * n + m)
    model = FusionModel(seed=n + m, crop_size=4, hidden=5, dim=6)
    vec = model.vec * rng.uniform(0.5, 3.0)
    params = model.views(vec)
    weights = LossWeights(lambda_box=1.5, lambda_pal=0.3,
                          focal_alpha=0.4, focal_gamma=2.0)
    batch = _random_batch(rng, n, m, model.in_dim, kinds)

    total, grad, aux = model.loss_and_grads(vec, batch, weights)
    ref_total, ref_grads, ref_aux = _loop_loss_and_grads(params, batch, weights)

    _assert_rel(total, ref_total)
    assert set(aux) == set(ref_aux)
    for term in ref_aux:
        _assert_rel(aux[term], ref_aux[term])
    assert grad.shape == vec.shape
    for key, view in model.views(grad).items():
        _assert_rel(view, ref_grads[key])


@pytest.mark.parametrize("fields,bad,match", [
    (("x_t", "x_r", "positive", "boxes"), lambda a: a[:0],
     "at least one sample"),
    (("x_t",), lambda a: a[:2], "disagree"),                      # fewer rows
    (("x_t",), lambda a: a[:, :, :-3], "disagree"),               # shorter inputs
    (("x_t",), lambda a: a.reshape(-1, a.shape[2]), "disagree"),  # (N * M, in_dim)
    (("x_r",), lambda a: a[:2], "disagree"),
    (("x_r",), lambda a: a[:, :-3], "disagree"),
    (("positive",), lambda a: a[:2], "disagree"),
    (("positive",), lambda a: a.astype(int), "disagree"),         # not bool
    (("boxes",), lambda a: a[:1], "disagree"),    # a positive row without one
    (("boxes",), lambda a: a[:, :3], "disagree"),
], ids=["no-rows", "x_t-rows", "x_t-in_dim", "x_t-2d", "x_r-rows",
        "x_r-in_dim", "positive-rows", "positive-dtype", "boxes-rows",
        "boxes-columns"])
def test_toy_batch_checks(fields, bad, match):
    batch = make_toy_samples(3, seed=0, crop_size=4)
    with pytest.raises(FusionError, match=match):
        replace(batch, **{f: bad(getattr(batch, f)) for f in fields})


def test_toy_training_trace_matches_recorded_loop_trace():
    ref = json.loads(TRACE_PATH.read_text())
    result = train_toy(make_toy_samples(32, seed=7), epochs=20, seed=7)
    np.testing.assert_allclose(result.total_trace, ref["total_trace"], rtol=1e-10, atol=0)
    np.testing.assert_allclose(result.pal_trace, ref["pal_trace"], rtol=1e-10, atol=0)


def test_model_params_are_views_of_its_one_weight_vector():
    model = FusionModel(seed=2, crop_size=4, hidden=5, dim=6)
    assert list(model.params) == [key for key, _, _ in model.layout]
    assert sum(w.size for w in model.params.values()) == model.vec.size
    before = model.vec.copy()
    train_toy(make_toy_samples(32, seed=2, crop_size=4), epochs=3, model=model)
    assert not np.array_equal(model.vec, before)
    for key, shape, _ in model.layout:
        assert model.params[key].shape == shape
        assert np.shares_memory(model.params[key], model.vec)
    assert np.array_equal(np.concatenate([w.ravel() for w in
                                          model.params.values()]), model.vec)


def test_diverged_training_leaves_the_model_untouched():
    model = FusionModel(seed=2, crop_size=4, hidden=5, dim=6)
    before = model.vec.copy()
    step = model.loss_and_grads
    calls = []

    def diverge_at_third_step(vec, batch, weights):
        calls.append(vec.copy())
        if len(calls) == 3:
            raise TrainingDiverged("non-finite loss")
        return step(vec, batch, weights)

    model.loss_and_grads = diverge_at_third_step
    with pytest.raises(TrainingDiverged):
        train_toy(make_toy_samples(32, seed=2, crop_size=4), epochs=5,
                  model=model)
    assert not np.array_equal(calls[2], before)  # two steps were taken
    assert np.array_equal(model.vec, before)


def test_benchmark_fusion_train_call_matches_its_reference():
    # The fusion_train workload's op, called as perfbench/worker.py calls
    # it, held to perfbench/run.py's LOSS_RTOL against its reference trace.
    want = json.loads(BENCH_REFERENCE.read_text())["fusion_train"]["0"]["loss"]
    result = fusion.train_toy(fusion.make_toy_samples(32, seed=0), epochs=20,
                              seed=0)
    assert len(result.total_trace) == len(want) == 20
    for a, b in zip(result.total_trace, want):
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Batched make_toy_samples against the per-sample loop
# ---------------------------------------------------------------------------

def _loop_toy_samples(n, seed, crop_size):
    """Reference: one sample at a time, each palette rendered on its own
    through its LUT index, with the same RNG draws in the same order, the
    rows stacked at the end."""
    rng = np.random.default_rng(seed)
    luts = load_all_palettes()
    yy, xx = np.mgrid[0:crop_size, 0:crop_size].astype(np.float64)
    x_t, x_r, positive, boxes = [], [], [], []
    for i in range(n):
        positive.append(i % 2 == 0)
        base = 25.0 + 3.0 * rng.random() * (xx / crop_size)
        cx = rng.uniform(0.25, 0.75) * crop_size
        cy = rng.uniform(0.25, 0.75) * crop_size
        sig = rng.uniform(1.0, 2.5)
        excess = rng.uniform(8.0, 25.0)
        blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig ** 2))
        temp = base + excess * blob
        lo, hi = float(temp.min()), float(temp.max())
        gray = np.full_like(temp, 0.5) if hi - lo <= 0.0 else (temp - lo) / (hi - lo)
        idx = np.rint(gray * 255.0).astype(np.intp)
        x_t.append(np.stack([lut[idx].astype(np.float64).ravel() / 255.0 - 0.5
                             for lut in luts]))
        rgb_gray = 0.6 + 0.02 * rng.standard_normal((crop_size, crop_size))
        if positive[-1]:
            rgb_gray = rgb_gray - 0.4 * blob
            half = 2.0 * sig / crop_size
            boxes.append([cx / crop_size - half, cy / crop_size - half,
                          cx / crop_size + half, cy / crop_size + half])
        rgb = np.clip(np.repeat(rgb_gray[..., None], 3, axis=2), 0, 1) - 0.5
        x_r.append(rgb.ravel())
    return np.stack(x_t), np.stack(x_r), np.array(positive), np.array(boxes)


@pytest.mark.parametrize("crop_size", [1, 4, 5, 8, 16])
@pytest.mark.parametrize("n", [0, 1, 3, 32])
def test_make_toy_samples_bit_identical_to_loop(n, crop_size):
    if n == 0:
        with pytest.raises(FusionError, match="at least one sample"):
            make_toy_samples(n, crop_size=crop_size)
        return
    for seed in (0, 1, 7, 123):
        got = make_toy_samples(n, seed=seed, crop_size=crop_size)
        want = _loop_toy_samples(n, seed, crop_size)
        for field, w in zip(("x_t", "x_r", "positive", "boxes"), want):
            g = getattr(got, field)
            assert g.dtype == w.dtype and np.array_equal(g, w), field
