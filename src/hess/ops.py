"""Structured differentiable operations: convolution, pooling, sampling,
resizing, normalization and the segmentation loss. conv2d, linear and
bilinear_sample_many charge their MACs to the active tensor.cost_scope."""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, charge, constant, record_op, _single, tmean


def _scatter_add_rows(target, rows, vals):
    """target[rows[i], :] += vals[i, :] with repeats, via one bincount.

    Much faster than np.add.at, which lacks a fast inner loop for
    float32. target is (R, C), rows (P,) int64, vals (P, C).
    """
    r, c = target.shape
    flat = rows[:, None] * c + np.arange(c, dtype=np.int64)[None, :]
    acc = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=r * c)
    target += acc.reshape(r, c).astype(target.dtype, copy=False)
    return target


def _im2col(xp, kh, kw, stride, oh, ow):
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im(dcols, xp_shape, kh, kw, stride, oh, ow):
    n, c, hp, wp = xp_shape
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    return dxp


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation of N*Cin*H*W input with Cout*Cin*Kh*Kw weights.

    Output spatial size is floor((H + 2*pad - Kh)/stride) + 1 per axis.
    Kernel sides must be odd.
    """
    x, w, b = constant(x), constant(w), constant(b)
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weight")
    n, cin, h, ww = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input Cin={cin}, weight Cin={cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d kernel sides must be odd")
    if stride < 1 or pad < 0:
        raise ValueError("conv2d needs stride >= 1 and pad >= 0")
    if b.shape != (cout,):
        raise ValueError("conv2d bias must have one entry per output channel")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv2d output would be empty")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    cols = _im2col(xp, kh, kw, stride, oh, ow)            # (N, Cin*Kh*Kw, L)
    wmat = w.data.reshape(cout, -1)                       # (Cout, Cin*Kh*Kw)
    y = np.matmul(wmat, cols) + b.data[:, None]           # (N, Cout, L)
    charge(y.size * cin * kh * kw, x.data)
    out = Tensor(y.reshape(n, cout, oh, ow))

    def backward(g):
        gmat = g.reshape(n, cout, oh * ow)
        dw = np.tensordot(gmat, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
        db = gmat.sum(axis=(0, 2))
        dcols = np.matmul(wmat.T, gmat)                   # (N, Cin*Kh*Kw, L)
        dxp = _col2im(dcols, xp.shape, kh, kw, stride, oh, ow)
        dx = dxp[:, :, pad:pad + h, pad:pad + ww] if pad else dxp
        return dx, dw, db

    record_op([out], [x, w, b], backward)
    return out


def linear(x, w, b=None):
    """y = x @ w (+ b) applied along the trailing dimension of x."""
    x, w = constant(x), constant(w)
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear dimension mismatch: x trailing {x.shape[-1]}, W rows {w.shape[0]}")
    lead = x.shape[:-1]
    # one vector-matrix product per row: a row's result does not depend on
    # how many rows share the call (a single GEMM rounds differently for
    # different row counts), so a batch gives each sample's own values
    rows = x.data.reshape(-1, 1, x.shape[-1])
    y = np.matmul(rows, w.data)[:, 0]
    if b is not None:
        b = constant(b)
        if b.shape != (w.shape[1],):
            raise ValueError("linear bias must match output width")
        y = y + b.data
    out = Tensor(y.reshape(*lead, w.shape[1]))
    charge(y.size * w.shape[0], x.data)

    def backward(g):
        gm = g.reshape(-1, w.shape[1])
        dx = (gm @ w.data.T).reshape(x.shape)
        dw = x.data.reshape(-1, x.shape[-1]).T @ gm
        if b is None:
            return dx, dw
        return dx, dw, gm.sum(axis=0)

    record_op([out], [x, w] + ([b] if b is not None else []), backward)
    return out


def softmax_axis(x, axis):
    """Numerically stable softmax along one axis; slices sum to 1."""
    x = constant(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _single(y, [x], backward)


def global_avg_pool(x):
    """Spatial mean of an N*C*H*W map, giving N*C."""
    x = constant(x)
    if x.ndim != 4:
        raise ValueError("global_avg_pool expects N*C*H*W")
    return tmean(x, axis=(2, 3))


def _map_index(m, index, shape):
    """The map each point reads, broadcast to ``shape`` (R*P) and checked;
    by default point row r reads map r."""
    if index is None:
        if shape[0] != m:
            raise ValueError("without a map index, need one row of points per map")
        index = np.arange(m)[:, None]
    index = np.broadcast_to(np.asarray(index, dtype=np.int64), shape)
    if np.any((index < 0) | (index >= m)):
        raise ValueError("map index outside the maps")
    return index


def bilinear_sample_many(maps, points, index=None):
    """Sample M maps (M*C*H*W) at fractional positions (R*P*2), giving
    R*P*C.

    index (integers broadcastable to R*P) names the map each point reads;
    by default row r reads map r (R = M). Integer coordinates address
    texel centers; texels outside a map contribute zero (border-zero).
    Differentiable in both the maps and the sampling positions.
    """
    maps, points = constant(maps), constant(points)
    if maps.ndim != 4 or points.ndim != 3 or points.shape[2] != 2:
        raise ValueError("bilinear_sample_many expects M*C*H*W maps and R*P*2 points")
    m, c, h, w = maps.shape
    r, p = points.shape[:2]
    index = _map_index(m, index, (r, p))
    # texel rows of all maps, then one zero row that out-of-map corners
    # read, so they add exactly +0 whatever the maps hold
    flat = np.empty((m * h * w + 1, c), dtype=maps.data.dtype)
    flat[:-1].reshape(m, h, w, c)[...] = maps.data.transpose(0, 2, 3, 1)
    flat[-1] = 0
    base = index * (h * w)
    y = points.data[:, :, 0]
    x = points.data[:, :, 1]
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x).astype(np.int64)
    fy = y - y0
    fx = x - x0
    corners = []
    for (yy, xx, wt) in (
        (y0, x0, (1 - fy) * (1 - fx)),
        (y0, x0 + 1, (1 - fy) * fx),
        (y0 + 1, x0, fy * (1 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    ):
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        idx = np.where(valid, base + yy * w + xx, m * h * w)
        corners.append((idx, wt, flat[idx]))               # val: (R, P, C)
    out_data = corners[0][1][:, :, None] * corners[0][2]
    for (_, wt, val) in corners[1:]:
        out_data += wt[:, :, None] * val
    out = Tensor(out_data)
    charge(4 * out_data.size)    # one MAC per corner

    def backward(g):
        dmaps = None
        if maps.requires_grad:
            dflat = np.zeros_like(flat)
            for (idx, wt, _) in corners:
                _scatter_add_rows(dflat, idx.reshape(-1),
                                  (g * wt[:, :, None]).reshape(r * p, c))
            dmaps = dflat[:-1].reshape(m, h, w, c).transpose(0, 3, 1, 2)
        dpts = None
        if points.requires_grad:
            v00, v01, v10, v11 = (cr[2] for cr in corners)
            ddy = (v10 - v00) * (1 - fx)[:, :, None] + (v11 - v01) * fx[:, :, None]
            ddx = (v01 - v00) * (1 - fy)[:, :, None] + (v11 - v10) * fy[:, :, None]
            dpts = np.stack([(g * ddy).sum(axis=2), (g * ddx).sum(axis=2)], axis=2)
        return dmaps, dpts

    record_op([out], [maps, points], backward)
    return out


def _points(maps_shape, iy, ix, index, shape):
    """Map and texel numbers, flattened, of integer points (iy, ix) on the
    maps that index names, all broadcast to ``shape``."""
    m, _, h, w = maps_shape
    index = _map_index(m, index, shape)
    iy, ix = (np.broadcast_to(np.asarray(v, dtype=np.int64), shape) for v in (iy, ix))
    if np.any((iy < 0) | (iy >= h) | (ix < 0) | (ix >= w)):
        raise ValueError("point position outside the map")
    return index.ravel(), (iy * w + ix).ravel()


def _texel_sums(mi, pos, vals, hw):
    """(map, texel, float64 sum of the vals rows) of each distinct point;
    repeated points are summed in point order."""
    uniq, inv = np.unique(mi * hw + pos, return_inverse=True)
    sums = _scatter_add_rows(np.zeros((uniq.size, vals.shape[1])), inv, vals)
    return (*np.divmod(uniq, hw), sums)


def gather_pixels_many(maps, iy, ix, index=None):
    """Read maps (M*C*H*W) at integer points (iy, ix), giving R*P*C.

    index (integers broadcastable with iy and ix to R*P) names the map each
    point reads; by default point row r reads map r (R = M, positions
    shared by all maps).
    """
    maps = constant(maps)
    m, c, h, w = maps.shape
    shape = np.broadcast_shapes((m, 1) if index is None else np.shape(index),
                                np.shape(iy), np.shape(ix))
    mi, pos = _points(maps.shape, iy, ix, index, shape)
    out = Tensor(maps.data.reshape(m, c, h * w)[mi, :, pos].reshape(*shape, c))

    def backward(g):
        umi, upos, acc = _texel_sums(mi, pos, g.reshape(-1, c), h * w)
        dmaps = np.zeros((m, c, h * w), dtype=g.dtype)
        dmaps[umi, :, upos] = acc
        return (dmaps.reshape(maps.shape),)

    record_op([out], [maps], backward)
    return out


def scatter_points_many(base, updates, iy, ix, index=None):
    """base (M*C*H*W) plus updates (R*P*C) added at integer points (iy, ix)
    of the maps that index names (as in gather_pixels_many). Only the
    touched texels are computed; repeated points accumulate."""
    base, updates = constant(base), constant(updates)
    m, c, h, w = base.shape
    if updates.ndim != 3 or updates.shape[2] != c:
        raise ValueError("scatter_points_many expects R*P*C updates matching the maps")
    mi, pos = _points(base.shape, iy, ix, index, updates.shape[:2])
    umi, upos, acc = _texel_sums(mi, pos, updates.data.reshape(-1, c), h * w)
    out_data = base.data.copy()
    out_data.reshape(m, c, h * w)[umi, :, upos] += acc.astype(out_data.dtype)
    out = Tensor(out_data)

    def backward(g):
        return g, g.reshape(m, c, h * w)[mi, :, pos].reshape(updates.shape)

    record_op([out], [base, updates], backward)
    return out


@functools.lru_cache(maxsize=64)
def _resize_matrix(src, dst):
    """Dense (dst, src) interpolation matrix: half-pixel mapping, clamped
    at the borders (standard image resize)."""
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    i1 = np.clip(i0 + 1, 0, src - 1)
    i0 = np.clip(i0, 0, src - 1)
    mat = np.zeros((dst, src))
    np.add.at(mat, (np.arange(dst), i0), 1.0 - frac)
    np.add.at(mat, (np.arange(dst), i1), frac)
    return mat


def interp_resize(x, out_h, out_w):
    """Bilinear resize of an N*C*H*W tensor to out_h x out_w.

    Separable linear map: rows through a (out_h, H) matrix, columns
    through a (out_w, W) matrix; the backward pass is the transposed
    pair.
    """
    x = constant(x)
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x
    ay = _resize_matrix(h, out_h).astype(x.data.dtype)
    ax_t = _resize_matrix(w, out_w).T.astype(x.data.dtype)
    out = Tensor(np.matmul(np.matmul(ay, x.data), ax_t))

    def backward(g):
        return (np.matmul(np.matmul(ay.T, g), ax_t.T),)

    record_op([out], [x], backward)
    return out


def group_norm(x, gamma, beta, eps=1e-5):
    """Single-group normalization over (C, H, W) per sample, then a
    per-channel affine. Deterministic at batch size 1."""
    x, gamma, beta = constant(x), constant(gamma), constant(beta)
    m = x.mean(axis=(1, 2, 3), keepdims=True)
    d = x - m
    var = (d * d).mean(axis=(1, 2, 3), keepdims=True)
    inv = (var + eps) ** -0.5
    xhat = d * inv
    g = gamma.reshape((1, -1, 1, 1))
    b = beta.reshape((1, -1, 1, 1))
    return xhat * g + b


def cross_entropy(logits, labels, ignore_index=255):
    """Mean per-pixel softmax cross-entropy over non-ignored pixels.

    logits: N*K*H*W, labels: N*H*W integer class ids (or ignore_index).
    """
    logits = constant(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ValueError("labels must be N*H*W")
    mask = labels != ignore_index
    if not mask.any():
        raise ValueError("all pixels ignored; loss undefined")
    if np.any(mask & ((labels < 0) | (labels >= k))):
        raise ValueError("label outside [0, num_classes)")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsum                                       # (N,K,H,W)
    safe = np.where(mask, labels, 0)
    picked = np.take_along_axis(logp, safe[:, None], axis=1)[:, 0]
    count = mask.sum()
    loss = -(picked * mask).sum() / count
    out = Tensor(loss)

    def backward(g):
        soft = np.exp(logp)
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, safe[:, None], 1.0, axis=1)
        d = (soft - onehot) * mask[:, None] / count
        return (g * d,)

    record_op([out], [logits], backward)
    return out
