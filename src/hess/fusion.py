"""Cross-branch interaction blocks.

Three modules couple the frame (ANN) and event (SNN) branches:

* the adaptive temporal-weighting injector pools the spike tensor, runs a
  bottleneck adaptor to score timesteps per channel, collapses time with
  the softmaxed scores and injects the result into the frame features via
  single-head deformable cross-attention with a residual, zero-initialized
  output projection;
* the event-driven sparse injector projects frame features into the spike
  feature space and, at event-anchored reference points only, mixes
  bilinear samples of both branches at learned offset locations back into
  the spike stream;
* channel-selection fusion gates each branch by a global channel score and
  sums the two gated maps.

A block's parameters are a dict of Tensors keyed by checkpoint suffix, as
the init_*_params functions build them.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ops
from .tensor import charge, constant, fan_in_uniform, parameter


def init_atw_params(c, reduction, k_points, rng):
    """ATW tensors keyed by checkpoint suffix: w_down (C, C/r) and w_up
    (C/r, C) the bottleneck adaptor; q.w (C, C, 1, 1) the query
    projection; off.w (2K, C, 1, 1) the offset head, K (dy, dx) pairs;
    attw.w (K, C, 1, 1) the attention-weight head; out.w (C, C, 1, 1) the
    output projection, zero at init; each .b the matching bias, zero."""
    if c % reduction:
        raise ValueError(f"channels {c} not divisible by reduction {reduction}")
    cr = c // reduction
    return {"w_down": fan_in_uniform(rng, (c, cr), c),
            "w_up": fan_in_uniform(rng, (cr, c), cr),
            "q.w": fan_in_uniform(rng, (c, c, 1, 1), c),
            "q.b": parameter(np.zeros(c)),
            "off.w": fan_in_uniform(rng, (2 * k_points, c, 1, 1), c),
            "off.b": parameter(np.zeros(2 * k_points)),
            "attw.w": fan_in_uniform(rng, (k_points, c, 1, 1), c),
            "attw.b": parameter(np.zeros(k_points)),
            "out.w": parameter(np.zeros((c, c, 1, 1))),
            "out.b": parameter(np.zeros(c))}


def init_eds_params(c_snn, c_ann, k_points, rng):
    """EDS tensors keyed by checkpoint suffix: off.w (2K, C_snn, 1, 1) the
    shared offset head; attw.w (K, C_snn, 1, 1) the attention-weight head;
    proj.w (C_snn, C_ann, 1, 1) the frame-to-spike projection; each .b
    the matching bias, zero."""
    return {"off.w": fan_in_uniform(rng, (2 * k_points, c_snn, 1, 1), c_snn),
            "off.b": parameter(np.zeros(2 * k_points)),
            "attw.w": fan_in_uniform(rng, (k_points, c_snn, 1, 1), c_snn),
            "attw.b": parameter(np.zeros(k_points)),
            "proj.w": fan_in_uniform(rng, (c_snn, c_ann, 1, 1), c_ann),
            "proj.b": parameter(np.zeros(c_snn))}


def init_csf_params(c, rng):
    """CSF gate tensors: w (C, C, 1, 1) the gate convolution, b its bias."""
    return {"w": fan_in_uniform(rng, (c, c, 1, 1), c), "b": parameter(np.zeros(c))}


# -- adaptive temporal weighting ---------------------------------------------


def atw_temporal_weights(f_snn, params):
    """Per-channel convex weights over time: N*T*C*H*W -> alpha N*T*C.

    Spatially pools the spike tensor, scores it with the bottleneck
    adaptor and softmaxes over the T axis independently per (n, c).
    """
    f_snn = constant(f_snn)
    n, t, c, h, w = f_snn.shape
    if t == 0:
        raise ValueError("temporal weighting needs at least one timestep")
    pool = f_snn.reshape((n * t, c, h, w)).mean(axis=(2, 3)).reshape((n, t, c))
    hidden = ops.linear(pool, params["w_down"]).relu()
    scores = ops.linear(hidden, params["w_up"])
    return ops.softmax_axis(scores, axis=1)


def atw_collapse(f_snn, alpha):
    """Weighted sum over time: (N*T*C*H*W, N*T*C) -> N*C*H*W."""
    f_snn, alpha = constant(f_snn), constant(alpha)
    n, t, c = alpha.shape
    if f_snn.shape[:3] != (n, t, c):
        raise ValueError("alpha and spike tensor disagree on N*T*C")
    return (f_snn * alpha.reshape((n, t, c, 1, 1))).sum(axis=1)


@functools.lru_cache(maxsize=64)
def _base_grid(h, w, k):
    """(H*W*K, 2) float64 texel positions, each repeated K times (read-only)."""
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    pts = np.stack([ys.reshape(-1), xs.reshape(-1)], axis=1)     # (H*W, 2)
    grid = np.repeat(pts, k, axis=0)                             # (H*W*K, 2)
    grid.flags.writeable = False
    return grid


def atw_inject(f_ann, f_snn_w, params):
    """Deformable cross-attention from the collapsed spike map into the
    frame features, with a residual zero-initialized projection.

    Every frame location queries K learned offsets around itself, samples
    the collapsed spike map there and adds the projected attended value.
    """
    f_ann, f_snn_w = constant(f_ann), constant(f_snn_w)
    if f_ann.shape != f_snn_w.shape:
        raise ValueError("frame and collapsed spike maps must share a shape")
    n, c, h, w = f_ann.shape
    k = params["attw.w"].shape[0]
    q = ops.conv2d(f_ann, params["q.w"], params["q.b"])
    off = ops.conv2d(q, params["off.w"], params["off.b"])        # (N, 2K, H, W)
    attw = ops.softmax_axis(ops.conv2d(q, params["attw.w"], params["attw.b"]), axis=1)
    pts = constant(_base_grid(h, w, k)) + \
        off.reshape((n, k, 2, h, w)).transpose((0, 3, 4, 1, 2)) \
           .reshape((n, h * w * k, 2))
    samples = ops.bilinear_sample_many(f_snn_w, pts)             # (N, H*W*K, C)
    wts = attw.transpose((0, 2, 3, 1)).reshape((n, h * w * k, 1))
    mixed = (samples * wts).reshape((n, h * w, k, c)).sum(axis=2)
    charge(samples.size)                                         # the K-point mix
    attended = mixed.reshape((n, h, w, c)).transpose((0, 3, 1, 2))
    out = ops.conv2d(attended, params["out.w"], params["out.b"])
    return f_ann + out


def atw_apply(f_ann, f_snn, params):
    """Full injector: temporal weights -> collapse -> attention."""
    alpha = atw_temporal_weights(f_snn, params)
    return atw_inject(f_ann, atw_collapse(f_snn, alpha), params)


# -- event-driven sparse injection -------------------------------------------


def eds_offsets(feats, params):
    """The shared offset and weight heads on spike features gathered at
    reference points, T*P*C.

    Returns (offsets, weights): offsets T*P*2K, K (dy, dx) pairs in
    feature-scale pixels; weights T*P*K, softmax-normalized over K.
    """
    feats = constant(feats)
    k = params["attw.w"].shape[0]
    c = feats.shape[-1]
    off = ops.linear(feats, params["off.w"].reshape((2 * k, c)).transpose((1, 0)),
                     params["off.b"])
    logits = ops.linear(feats, params["attw.w"].reshape((k, c)).transpose((1, 0)),
                        params["attw.b"])
    return off, ops.softmax_axis(logits, axis=2)


def eds_inject(f_snn, f_ann, refs, params):
    """Mix projected frame features into the spike stream at reference
    points only; all other locations pass through unchanged.

    refs is the batch's ReferencePointSet, on the samples' h*w maps
    stacked along rows (height N*h). The update at reference point r and
    timestep t is sum_k A_k * (proj(F_ann)[r + dr_k] * F_snn[t, r + dr_k])
    with both factors sampled bilinearly at the offset position. All
    samples' points go through the heads, the sampling and the scatter
    together.
    """
    f_snn, f_ann = constant(f_snn), constant(f_ann)
    n, t, c, h, w = f_snn.shape
    if f_ann.shape[0] != n or f_ann.shape[2:] != (h, w):
        raise ValueError("frame features must match the spike tensor batch/geometry")
    if (refs.height, refs.width) != (n * h, w):
        raise ValueError(f"reference points lie on {refs.height}x{refs.width} "
                         f"stacked maps, expected {n * h}x{w}")
    ys = np.asarray(refs.ys, dtype=np.int64)
    xs = np.asarray(refs.xs, dtype=np.int64)
    if np.any((ys < 0) | (ys >= n * h) | (xs < 0) | (xs >= w)):
        raise ValueError("reference point outside the feature geometry")
    p = len(ys)
    if p == 0:
        return f_snn
    sample, ys = np.divmod(ys, h)

    k = params["attw.w"].shape[0]
    # map n*T + t of the (N*T)*C*H*W view is sample n at timestep t
    maps = f_snn.reshape((n * t, c, h, w))
    index = sample * t + np.arange(t)[:, None]                    # (T, P)
    off, a = eds_offsets(ops.gather_pixels_many(maps, ys, xs, index), params)
    base = np.repeat(np.stack([ys, xs], axis=1).astype(np.float64), k, axis=0)
    pts = constant(base) + off.reshape((t, p * k, 2))             # (T, P*K, 2)
    s_snn = ops.bilinear_sample_many(maps, pts, np.repeat(index, k, axis=1))
    proj = ops.conv2d(f_ann, params["proj.w"], params["proj.b"])
    s_ann = ops.bilinear_sample_many(proj, pts, np.repeat(sample, k))  # (T, P*K, C)
    mixed = ((s_ann * s_snn).reshape((t, p, k, c)) *
             a.reshape((t, p, k, 1))).sum(axis=2)                 # (T, P, C)
    charge(s_snn.size)                                            # the K-point mix
    out = ops.scatter_points_many(maps, mixed, ys, xs, index)
    return out.reshape((n, t, c, h, w))


# -- channel selection fusion -------------------------------------------------


def csf_select(x, params):
    """Gate a map by the spatial average of a 1x1 conv on its sigmoid:
    s = x * AvgPool(Conv(Sigmoid(x))), broadcast per channel."""
    x = constant(x)
    n, c = x.shape[:2]
    gate = ops.conv2d(x.sigmoid(), params["w"], params["b"]).mean(axis=(2, 3))
    s = x * gate.reshape((n, c, 1, 1))
    # + 0.0 canonicalizes -0.0 so a silent branch stays bit-exact under
    # the later fusion add
    return s + 0.0


def csf_fuse(f_ann_o, f_snn_o, params_ann, params_snn):
    """Sum the gated frame map and the gated time-collapsed spike map."""
    f_ann_o, f_snn_o = constant(f_ann_o), constant(f_snn_o)
    n, c, h, w = f_ann_o.shape
    if f_snn_o.shape[0] != n or f_snn_o.shape[2:] != (c, h, w):
        raise ValueError("fusion inputs disagree on N*C*H*W")
    x_snn = f_snn_o.sum(axis=1)
    return csf_select(f_ann_o, params_ann) + csf_select(x_snn, params_snn)
