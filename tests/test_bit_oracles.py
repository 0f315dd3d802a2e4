"""Byte-for-byte oracles for the fast paths of the train step: the conv over
time against one conv2d call per timestep, the sampling map gradient against
one bincount per corner, and the tape's handling of shared gradients. A
subprocess also checks that inference never imports scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hess import ops
from hess.tensor import constant, cost_scope, count_macs, parameter, using_dtype

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DTYPES = (np.float32, np.float64)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the conv over time --------------------------------------------------------

CONV_CASES = [  # (N, T, Cin, H, W, Cout, k, stride, pad)
    (2, 5, 1, 9, 8, 4, 3, 2, 1),
    (3, 3, 4, 6, 6, 5, 3, 1, 1),
    (1, 4, 3, 5, 7, 2, 1, 1, 0),
    (2, 2, 2, 7, 5, 3, 5, 2, 2),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_over_time_matches_one_call_per_timestep(dtype, case):
    n, t, cin, h, w, cout, k, stride, pad = case
    g = np.random.default_rng(sum(case))
    with using_dtype(dtype):
        xs = g.normal(size=(n, t, cin, h, w))
        wt = parameter(g.normal(size=(cout, cin, k, k)))
        b = parameter(g.normal(size=cout))
        x = parameter(xs)
        y = ops.conv2d(x, wt, b, stride=stride, pad=pad)
        upstream = constant(g.normal(size=y.shape))
        (y * upstream).sum().backward()
        got = y.data, wt.grad, b.grad, x.grad
        wt.grad = b.grad = None

        parts = [parameter(xs[:, i]) for i in range(t)]
        ys = [ops.conv2d(p, wt, b, stride=stride, pad=pad) for p in parts]
        total = None
        for i, yi in enumerate(ys):
            term = (yi * constant(upstream.data[:, i])).sum()
            total = term if total is None else total + term
        total.backward()
    assert same(got[0], np.stack([yi.data for yi in ys], axis=1))
    assert same(got[1], wt.grad) and same(got[2], b.grad)
    assert same(got[3], np.stack([p.grad for p in parts], axis=1))


def test_conv_over_time_casts_a_wider_input_gradient():
    # float32 maps under a float64 upstream gradient (the sampling positions'
    # gradient is float64): dx is cast to float32 like one stacked gradient,
    # dw and db stay float64 as the per-step calls give them
    g = np.random.default_rng(7)
    n, t, cin, h, w, cout = 2, 3, 2, 6, 6, 3
    with using_dtype(np.float32):
        xs = g.normal(size=(n, t, cin, h, w))
        wt = parameter(g.normal(size=(cout, cin, 3, 3)))
        b = parameter(g.normal(size=cout))
        x = parameter(xs)
        y = ops.conv2d(x, wt, b, stride=2, pad=1)
        up = g.normal(size=y.shape)               # float64
        dx, dw, db = y._record.backward(up)
        parts = [parameter(xs[:, i]) for i in range(t)]
        grads = [ops.conv2d(p, wt, b, stride=2, pad=1)._record.backward(up[:, i])
                 for i, p in enumerate(parts)]
    assert dx.dtype == np.float32 and dw.dtype == np.float64
    assert same(dx, np.stack([gi[0] for gi in grads], axis=1).astype(np.float32))
    ref_dw, ref_db = grads[-1][1].copy(), grads[-1][2].copy()
    for gi in reversed(grads[:-1]):
        ref_dw += gi[1]
        ref_db += gi[2]
    assert same(dw, ref_dw) and same(db, ref_db)


def test_conv_over_time_charges_all_steps_once():
    x = constant(np.random.default_rng(8).normal(size=(2, 4, 1, 8, 8)) > 0.5)
    with count_macs() as counts, cost_scope("s", kind="snn"):
        ops.conv2d(x, constant(np.ones((3, 1, 3, 3))), constant(np.zeros(3)),
                   stride=2, pad=1)
    rec = counts["s"]
    assert rec["macs"] == 4 * (2 * 3 * 4 * 4 * 9)     # T x per-step MACs
    assert rec["nonzero"] == np.count_nonzero(x.data) and rec["inputs"] == x.size


# -- the sampling map gradient -------------------------------------------------


def bincount_reference(maps, pts, index, g):
    """The map and position gradients as one bincount per corner."""
    m, c, h, w = maps.shape
    r, p = pts.shape[:2]
    flat = np.zeros((m * h * w + 1, c), dtype=maps.dtype)
    flat[:-1] = maps.transpose(0, 2, 3, 1).reshape(-1, c)
    y, x = pts[:, :, 0], pts[:, :, 1]
    y0, x0 = np.floor(y).astype(np.int64), np.floor(x).astype(np.int64)
    fy, fx = y - y0, x - x0
    dflat = np.zeros_like(flat)
    vals = []
    for yy, xx, wt in ((y0, x0, (1 - fy) * (1 - fx)), (y0, x0 + 1, (1 - fy) * fx),
                       (y0 + 1, x0, fy * (1 - fx)), (y0 + 1, x0 + 1, fy * fx)):
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        idx = np.where(valid, index * h * w + yy * w + xx, m * h * w)
        keys = idx.reshape(-1, 1) * c + np.arange(c)
        acc = np.bincount(keys.ravel(), weights=(g * wt[:, :, None]).ravel(),
                          minlength=flat.size)
        dflat += acc.reshape(flat.shape).astype(flat.dtype)
        vals.append(flat[idx])
    v00, v01, v10, v11 = vals
    ddy = (v10 - v00) * (1 - fx)[:, :, None] + (v11 - v01) * fx[:, :, None]
    ddx = (v01 - v00) * (1 - fy)[:, :, None] + (v11 - v10) * fy[:, :, None]
    dpts = np.stack([(g * ddy).sum(axis=2), (g * ddx).sum(axis=2)], axis=2)
    return dflat[:-1].reshape(m, h, w, c).transpose(0, 3, 1, 2), dpts


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("c", [1, 3, 16, 300])
def test_sampling_gradient_matches_one_bincount_per_corner(dtype, c):
    g = np.random.default_rng(c)
    m, h, w, r, p = 3, 5, 4, 2, 700
    with using_dtype(dtype):
        maps = parameter(g.normal(size=(m, c, h, w)))
        # many points on few texels (repeats), some entirely or partly
        # outside the maps (out-of-map corners)
        pts = np.where(g.random((r, p, 1)) < 0.7,
                       g.integers(0, 3, size=(r, p, 2)) + g.random((r, p, 2)) * 0.5,
                       g.uniform(-2.5, 6.5, size=(r, p, 2)))
        pts = parameter(pts)
        index = g.integers(0, m, size=(r, p))
        out = ops.bilinear_sample_many(maps, pts, index)
        up = g.normal(size=out.shape).astype(dtype)
        (out * constant(up)).sum().backward()
    dmaps, dpts = bincount_reference(maps.data, pts.data, index, up)
    assert same(maps.grad, dmaps)
    assert same(pts.grad, dpts)


# -- shared gradients on the tape ----------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_shared_gradients_stay_correct_and_unmodified(dtype):
    g = np.random.default_rng(9)
    with using_dtype(dtype):
        a = parameter(g.normal(size=(3, 4)))
        b = parameter(g.normal(size=(3, 4)))
        up = constant(g.normal(size=(3, 4)))
        d = a * 3.0                     # recorded before the add: replayed after it
        e = a * 5.0
        c = a + b                       # a and b first get one shared gradient array
        ((c * up).sum() + d.sum() + e.sum()).backward()
    ones = np.ones_like(up.data)
    # b keeps the shared array untouched while a adds two more gradients
    assert same(b.grad, up.data)
    assert same(a.grad, (up.data + 5.0 * ones) + 3.0 * ones)


def test_a_tensor_consumed_twice_by_one_op():
    x = parameter(np.arange(6.0).reshape(2, 3))
    (x * x).sum().backward()
    assert same(x.grad, 2 * x.data)
    y = parameter(np.arange(6.0).reshape(2, 3))
    z = y + y
    (z * z).sum().backward()
    assert same(y.grad, 2 * z.data + 2 * z.data)


# -- inference never loads scipy -----------------------------------------------


def test_inference_path_does_not_import_scipy():
    script = """
import sys
from hess import energy, harness, network
from hess.synthetic import SynthConfig, make_samples
from hess.optim import prepare_batches
samples = make_samples(3, SynthConfig(32, 32, frame_count=6))
net = network.build(network.NetworkConfig())
frames, voxels, _ = prepare_batches(samples[:2], net.config.bins)
network.predict(net, frames, voxels)
harness.run_eval(net, samples)
energy.profile(net, samples[:2])
print("scipy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]
