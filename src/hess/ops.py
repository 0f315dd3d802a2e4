"""Structured differentiable operations: convolution, sampling, resizing,
normalization and the segmentation loss. conv2d, linear and
bilinear_sample_many charge their MACs to the active tensor.cost_scope."""

from __future__ import annotations

import functools

import numpy as np

from .metrics import IGNORE_INDEX
from .tensor import Tensor, charge, constant, record_op, _single


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
    Kernel sides must be odd. A 5-D N*T*Cin*H*W input is T timesteps
    sharing the kernel (the spiking stages): one call over the N*T maps
    gives N*T*Cout*OH*OW, bit for bit what T calls on the timesteps give,
    and charges the MACs of all T steps at once.
    """
    x, w, b = constant(x), constant(w), constant(b)
    if x.ndim not in (4, 5) or w.ndim != 4:
        raise ValueError("conv2d expects 4-D (or N*T*C*H*W) input and 4-D weight")
    steps = x.shape[1] if x.ndim == 5 else 1
    cin, h, ww = x.shape[-3:]
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

    xd = x.data.reshape(-1, cin, h, ww)                   # (M, Cin, H, W) maps
    maps = xd.shape[0]
    xp = xd
    if pad:
        xp = np.zeros((maps, cin, h + 2 * pad, ww + 2 * pad), dtype=xd.dtype)
        xp[:, :, pad:pad + h, pad:pad + ww] = xd
    pointwise = kh == kw == 1 and stride == 1 and not pad
    cols = (xd.reshape(maps, cin, h * ww) if pointwise      # (M, Cin*Kh*Kw, L)
            else _im2col(xp, kh, kw, stride, oh, ow))
    wmat = w.data.reshape(cout, -1)                       # (Cout, Cin*Kh*Kw)
    y = np.matmul(wmat, cols) + b.data[:, None]           # (M, Cout, L)
    charge(y.size * cin * kh * kw, x.data)
    out = Tensor(y.reshape(x.shape[:-3] + (cout, oh, ow)))

    def backward(g):
        gmat = g.reshape(maps, cout, oh * ow)
        # per timestep, summed from the last one down: the order in which
        # the tape adds up the gradients of T single-step calls
        g_t = gmat.reshape(-1, steps, cout, oh * ow)
        cols_t = cols.reshape(-1, steps, cols.shape[1], oh * ow)
        dw = np.tensordot(g_t[:, -1], cols_t[:, -1], axes=([0, 2], [0, 2]))
        db = g_t[:, -1].sum(axis=(0, 2))
        for t in reversed(range(steps - 1)):
            dw += np.tensordot(g_t[:, t], cols_t[:, t], axes=([0, 2], [0, 2]))
            db += g_t[:, t].sum(axis=(0, 2))
        dx = None
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat)               # (M, Cin*Kh*Kw, L)
            if pointwise:
                dx = dcols + 0.0     # col2im's sum into zeros: -0.0 becomes +0.0
            else:
                dx = _col2im(dcols, xp.shape, kh, kw, stride, oh, ow)
                dx = dx[:, :, pad:pad + h, pad:pad + ww] if pad else dx
            dx = dx.reshape(x.shape)
            if x.ndim == 5:       # one gradient of the input's dtype, as for a stack
                dx = dx.astype(x.data.dtype, copy=False)
        return dx, dw.reshape(w.shape), db

    return record_op(out, [x, w, b], backward)


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

    return record_op(out, [x, w] + ([b] if b is not None else []), backward)


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


def _row_blocks(rows, width):
    """Slices over ``rows`` rows of ``width`` values, 16K values (128 KiB of
    float64) each, so a block's temporaries stay in cache."""
    step = max(1, (1 << 14) // width)
    return [slice(s, s + step) for s in range(0, rows, step)]


def bilinear_sample_many(maps, points, index=None):
    """Sample M maps (M*C*H*W) at fractional positions (R*P*2), giving
    R*P*C.

    index (integers broadcastable to R*P) names the map each point reads;
    by default row r reads map r (R = M). Integer coordinates address
    texel centers; texels outside a map contribute zero (border-zero).
    Differentiable in both the maps and the sampling positions. Weights,
    products and sums are float64 whatever the maps' dtype.
    """
    maps, points = constant(maps), constant(points)
    if maps.ndim != 4 or points.ndim != 3 or points.shape[2] != 2:
        raise ValueError("bilinear_sample_many expects M*C*H*W maps and R*P*2 points")
    m, c, h, w = maps.shape
    r, p = points.shape[:2]
    n = r * p
    index = _map_index(m, index, (r, p)).reshape(n)
    # texel rows of all maps, then one zero row that out-of-map corners
    # read, so they add exactly +0 whatever the maps hold
    texels = m * h * w
    flat = np.empty((texels + 1, c), dtype=maps.data.dtype)
    flat[:-1].reshape(m, h, w, c)[...] = maps.data.transpose(0, 2, 3, 1)
    flat[-1] = 0
    y = points.data[:, :, 0].reshape(n, 1)
    x = points.data[:, :, 1].reshape(n, 1)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x).astype(np.int64)
    fy = y - y0                 # float64 even for float32 points
    fx = x - x0
    gy, gx = 1 - fy, 1 - fx
    # corner k of point i: texel row idx[i, k], weight wt[i, k]
    idx = np.empty((n, 4), dtype=np.int64)
    wt = np.empty((n, 4))
    base = (index * (h * w))[:, None]
    for k, (yy, xx, wk) in enumerate(((y0, x0, gy * gx), (y0, x0 + 1, gy * fx),
                                      (y0 + 1, x0, fy * gx), (y0 + 1, x0 + 1, fy * fx))):
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        idx[:, k:k + 1] = np.where(valid, base + yy * w + xx, texels)
        wt[:, k:k + 1] = wk
    out_data = np.empty((n, c))
    for b in _row_blocks(n, c):
        acc = out_data[b]
        np.multiply(wt[b, 0:1], np.take(flat, idx[b, 0], axis=0), out=acc)
        for k in range(1, 4):
            acc += wt[b, k:k + 1] * np.take(flat, idx[b, k], axis=0)
    out = Tensor(out_data.reshape(r, p, c))
    charge(4 * out_data.size)    # one MAC per corner

    def backward(g):
        g = g.reshape(n, c).astype(np.float64, copy=False)
        dmaps = None
        if maps.requires_grad:
            # the u texel rows some corner reads, numbered 0..u-1
            touched = np.zeros(texels + 1, dtype=bool)
            touched[idx] = True
            rows_read = np.flatnonzero(touched)
            number = np.empty(texels + 1, dtype=np.int64)
            number[rows_read] = np.arange(len(rows_read))
            u = len(rows_read)
            # one sparse operator, row k*u + j for corner k of read texel j,
            # one column per point: its product sums each row in point
            # order, the bits of one bincount per corner
            from scipy import sparse
            op = sparse.csc_matrix((wt.reshape(-1),
                                    (number[idx] + np.arange(4) * u).reshape(-1),
                                    np.arange(0, 4 * n + 1, 4)), shape=(4 * u, n))
            acc = (op @ g).reshape(4, u, c)
            sums = np.zeros((u, c), dtype=flat.dtype)
            for k in range(4):
                sums += acc[k].astype(flat.dtype, copy=False)
            dflat = np.zeros_like(flat)
            dflat[rows_read] = sums
            dmaps = dflat[:-1].reshape(m, h, w, c).transpose(0, 3, 1, 2)
        dpts = None
        if points.requires_grad:
            dpts = np.empty((n, 2))
            for b in _row_blocks(n, c):
                v00, v01, v10, v11 = (np.take(flat, idx[b, k], axis=0) for k in range(4))
                # corner differences in the maps' dtype, the rest in float64
                ddy = (v10 - v00) * gx[b] + (v11 - v01) * fx[b]
                ddx = (v01 - v00) * gy[b] + (v11 - v10) * fy[b]
                ddy *= g[b]
                ddx *= g[b]
                ddy.sum(axis=1, out=dpts[b, 0])
                ddx.sum(axis=1, out=dpts[b, 1])
            dpts = dpts.reshape(r, p, 2)
        return dmaps, dpts

    return record_op(out, [maps, points], backward)


def _points(maps_shape, iy, ix, index, shape):
    """Map and texel numbers, flattened, of the distinct integer points
    (iy, ix) on the maps that index names, all broadcast to ``shape``."""
    m, _, h, w = maps_shape
    index = _map_index(m, index, shape)
    iy, ix = (np.broadcast_to(np.asarray(v, dtype=np.int64), shape) for v in (iy, ix))
    if np.any((iy < 0) | (iy >= h) | (ix < 0) | (ix >= w)):
        raise ValueError("point position outside the map")
    mi, pos = index.ravel(), (iy * w + ix).ravel()
    seen = np.zeros(m * h * w, dtype=bool)
    seen[mi * (h * w) + pos] = True
    if np.count_nonzero(seen) != mi.size:
        raise ValueError("repeated point: each (map, texel) may appear once")
    return mi, pos


def gather_pixels_many(maps, iy, ix, index):
    """Read maps (M*C*H*W) at distinct integer points (iy, ix), giving
    R*P*C; index (integers broadcastable with iy and ix to R*P) names the
    map each point reads."""
    maps = constant(maps)
    m, c, h, w = maps.shape
    shape = np.broadcast_shapes(np.shape(index), np.shape(iy), np.shape(ix))
    mi, pos = _points(maps.shape, iy, ix, index, shape)
    out = Tensor(maps.data.reshape(m, c, h * w)[mi, :, pos].reshape(*shape, c))

    def backward(g):
        dmaps = np.zeros((m, c, h * w), dtype=g.dtype)
        dmaps[mi, :, pos] += g.reshape(-1, c)     # on zeros: -0.0 becomes +0.0
        return (dmaps.reshape(maps.shape),)

    return record_op(out, [maps], backward)


def scatter_points_many(base, updates, iy, ix, index):
    """base (M*C*H*W) plus updates (R*P*C) added at distinct integer points
    (iy, ix) of the maps that index names (as in gather_pixels_many). Only
    the touched texels are computed."""
    base, updates = constant(base), constant(updates)
    m, c, h, w = base.shape
    if updates.ndim != 3 or updates.shape[2] != c:
        raise ValueError("scatter_points_many expects R*P*C updates matching the maps")
    mi, pos = _points(base.shape, iy, ix, index, updates.shape[:2])
    out_data = base.data.copy()
    # + 0.0 turns -0.0 into +0.0, as a sum from zero would
    out_data.reshape(m, c, h * w)[mi, :, pos] += (
        updates.data.reshape(-1, c) + 0.0).astype(out_data.dtype, copy=False)
    out = Tensor(out_data)

    def backward(g):
        return g, g.reshape(m, c, h * w)[mi, :, pos].reshape(updates.shape)

    return record_op(out, [base, updates], backward)


@functools.lru_cache(maxsize=64)
def _resize_matrix(src, dst, dtype):
    """Dense (dst, src) interpolation matrix of ``dtype`` (read-only):
    half-pixel mapping, clamped at the borders (standard image resize)."""
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    i1 = np.clip(i0 + 1, 0, src - 1)
    i0 = np.clip(i0, 0, src - 1)
    mat = np.zeros((dst, src))
    np.add.at(mat, (np.arange(dst), i0), 1.0 - frac)
    np.add.at(mat, (np.arange(dst), i1), frac)
    mat = mat.astype(dtype)
    mat.flags.writeable = False
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
    ay = _resize_matrix(h, out_h, x.data.dtype)
    ax_t = _resize_matrix(w, out_w, x.data.dtype).T
    out = Tensor(np.matmul(np.matmul(ay, x.data), ax_t))

    def backward(g):
        return (np.matmul(np.matmul(ay.T, g), ax_t.T),)

    return record_op(out, [x], backward)


def group_norm(x, gamma, beta):
    """Single-group normalization over (C, H, W) per sample, then a
    per-channel affine. Deterministic at batch size 1."""
    x, gamma, beta = constant(x), constant(gamma), constant(beta)
    m = x.mean(axis=(1, 2, 3), keepdims=True)
    d = x - m
    var = (d * d).mean(axis=(1, 2, 3), keepdims=True)
    inv = (var + 1e-5) ** -0.5
    xhat = d * inv
    g = gamma.reshape((1, -1, 1, 1))
    b = beta.reshape((1, -1, 1, 1))
    return xhat * g + b


def cross_entropy(logits, labels):
    """Mean per-pixel softmax cross-entropy over non-ignored pixels.

    logits: N*K*H*W, labels: N*H*W integer class ids (or IGNORE_INDEX).
    """
    logits = constant(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ValueError("labels must be N*H*W")
    mask = labels != IGNORE_INDEX
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

    return record_op(out, [logits], backward)
