import numpy as np
import pytest

from hess import fusion, ops
from hess.fusion import (atw_apply, atw_collapse, atw_inject, atw_temporal_weights,
                         csf_fuse, csf_select, eds_inject, eds_offsets,
                         init_atw_params, init_csf_params, init_eds_params)
from hess.tensor import Tensor, constant, grad_check, no_grad, parameter, using_dtype
from hess.voxel import ReferencePointSet


def rng(seed=0):
    return np.random.default_rng(seed)


def make_refs(ys, xs, h, w, scale=1):
    return ReferencePointSet(np.asarray(ys, dtype=np.int64),
                             np.asarray(xs, dtype=np.int64), scale, h, w)


def stacked_refs(points, h, w):
    """One set over len(points) h*w maps stacked along rows, from each
    sample's (ys, xs)."""
    ys = [np.asarray(y, dtype=np.int64) + i * h for i, (y, _) in enumerate(points)]
    xs = [np.asarray(x, dtype=np.int64) for _, x in points]
    return make_refs(np.concatenate(ys), np.concatenate(xs), len(points) * h, w)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestATWWeights:
    def test_zero_input_uniform_alpha(self):
        p = init_atw_params(8, 4, 4, rng(1))
        f = constant(np.zeros((2, 5, 8, 3, 3)))
        alpha = atw_temporal_weights(f, p)
        assert np.allclose(alpha.data, 0.2, atol=1e-15)

    def test_alpha_sums_to_one(self):
        p = init_atw_params(8, 4, 4, rng(2))
        for seed in range(10):
            f = constant((rng(seed).random((1, 4, 8, 5, 5)) > 0.7).astype(float))
            alpha = atw_temporal_weights(f, p)
            assert np.all(np.abs(alpha.data.sum(axis=1) - 1.0) <= 1e-12)

    def test_matches_loop_oracle(self):
        g = rng(3)
        c, r, t = 2, 2, 3
        p = init_atw_params(c, r, 2, g)
        f = g.random((1, t, c, 4, 4))
        alpha = atw_temporal_weights(constant(f), p)

        # explicit-loop re-derivation: pool, bottleneck, softmax over T
        pool = np.zeros((1, t, c))
        for ti in range(t):
            for ci in range(c):
                pool[0, ti, ci] = f[0, ti, ci].mean()
        scores = np.zeros((1, t, c))
        for ti in range(t):
            hidden = np.maximum(pool[0, ti] @ p["w_down"].data, 0.0)
            scores[0, ti] = hidden @ p["w_up"].data
        ref = np.zeros_like(scores)
        for ci in range(c):
            e = np.exp(scores[0, :, ci] - scores[0, :, ci].max())
            ref[0, :, ci] = e / e.sum()
        assert np.max(np.abs(alpha.data - ref)) <= 1e-12


class TestATWCollapse:
    def test_one_hot_selects_timestep(self):
        g = rng(4)
        f = g.random((2, 4, 3, 5, 5))
        alpha = np.zeros((2, 4, 3))
        alpha[:, 2, :] = 1.0
        out = atw_collapse(constant(f), constant(alpha))
        assert np.array_equal(out.data, f[:, 2])

    def test_uniform_alpha_constant_in_time(self):
        g = rng(5)
        single = g.random((1, 1, 2, 3, 3))
        f = np.repeat(single, 4, axis=1)
        alpha = np.full((1, 4, 2), 0.25)
        out = atw_collapse(constant(f), constant(alpha))
        assert np.allclose(out.data, single[:, 0], atol=1e-15)

    def test_matches_loop_oracle(self):
        g = rng(6)
        f = g.random((2, 3, 4, 4, 4))
        alpha = g.random((2, 3, 4))
        out = atw_collapse(constant(f), constant(alpha))
        ref = np.zeros((2, 4, 4, 4))
        for n in range(2):
            for t in range(3):
                for c in range(4):
                    ref[n, c] += alpha[n, t, c] * f[n, t, c]
        assert np.max(np.abs(out.data - ref)) <= 1e-12


class TestATWInject:
    def test_zero_spike_map_is_identity(self):
        g = rng(7)
        p = init_atw_params(4, 4, 4, g)
        f_ann = g.normal(size=(2, 4, 6, 6))
        out = atw_inject(constant(f_ann), constant(np.zeros((2, 4, 6, 6))), p)
        assert np.array_equal(out.data, f_ann)

    def test_zero_init_projection_is_identity(self):
        g = rng(8)
        p = init_atw_params(4, 4, 4, g)
        f_ann = g.normal(size=(1, 4, 5, 5))
        f_w = g.normal(size=(1, 4, 5, 5))
        out = atw_inject(constant(f_ann), constant(f_w), p)
        assert np.array_equal(out.data, f_ann)

    def test_attention_weights_sum_to_one(self):
        g = rng(9)
        p = init_atw_params(4, 2, 3, g)
        f_ann = constant(g.normal(size=(2, 4, 4, 4)))
        q = ops.conv2d(f_ann, p["q.w"], p["q.b"])
        attw = ops.softmax_axis(ops.conv2d(q, p["attw.w"], p["attw.b"]), axis=1)
        assert np.all(np.abs(attw.data.sum(axis=1) - 1.0) <= 1e-12)

    def test_nonzero_projection_matches_loop_oracle(self):
        g = rng(10)
        p = init_atw_params(2, 2, 2, g)
        p["out.w"] = parameter(g.normal(size=(2, 2, 1, 1)) * 0.5)
        p["out.b"] = parameter(g.normal(size=2) * 0.1)
        f_ann = g.normal(size=(1, 2, 3, 3))
        f_w = g.normal(size=(1, 2, 3, 3))
        out = atw_inject(constant(f_ann), constant(f_w), p)

        # independent loop re-derivation
        k = 2
        q = np.zeros((2, 3, 3))
        for c in range(2):
            q[c] = sum(p["q.w"].data[c, ci, 0, 0] * f_ann[0, ci] for ci in range(2))
        off = np.stack([sum(p["off.w"].data[o, ci, 0, 0] * q[ci] for ci in range(2))
                        for o in range(2 * k)])
        aw = np.stack([sum(p["attw.w"].data[o, ci, 0, 0] * q[ci] for ci in range(2))
                       for o in range(k)])
        attended = np.zeros((2, 3, 3))
        for y in range(3):
            for x in range(3):
                logits = aw[:, y, x]
                e = np.exp(logits - logits.max())
                a = e / e.sum()
                val = np.zeros(2)
                for kk in range(k):
                    py = y + off[2 * kk, y, x]
                    px = x + off[2 * kk + 1, y, x]
                    val += a[kk] * bilinear_ref(f_w[0], py, px)
                attended[:, y, x] = val
        ref = f_ann[0].copy()
        for c in range(2):
            ref[c] += sum(p["out.w"].data[c, ci, 0, 0] * attended[ci]
                          for ci in range(2)) + p["out.b"].data[c]
        assert np.max(np.abs(out.data[0] - ref)) <= 1e-12


def bilinear_ref(chw, y, x):
    """Scalar-loop bilinear lookup with border-zero, for oracles."""
    c, h, w = chw.shape
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    out = np.zeros(c)
    for (yy, xx, wt) in ((y0, x0, (1 - (y - y0)) * (1 - (x - x0))),
                         (y0, x0 + 1, (1 - (y - y0)) * (x - x0)),
                         (y0 + 1, x0, (y - y0) * (1 - (x - x0))),
                         (y0 + 1, x0 + 1, (y - y0) * (x - x0))):
        if 0 <= yy < h and 0 <= xx < w:
            out += wt * chw[:, yy, xx]
    return out


class TestEDSOffsets:
    """The heads run on spike features gathered at reference points, T*P*C."""

    def test_zero_input_zero_offsets(self):
        p = init_eds_params(4, 6, 4, rng(11))
        off, attw = eds_offsets(constant(np.zeros((3, 7, 4))), p)
        assert off.shape == (3, 7, 8) and np.all(off.data == 0.0)
        assert np.allclose(attw.data, 0.25, atol=1e-15)

    def test_weights_normalized_everywhere(self):
        p = init_eds_params(3, 3, 5, rng(12))
        f = constant((rng(13).random((2, 9, 3)) > 0.5).astype(float))
        _, attw = eds_offsets(f, p)
        assert np.all(np.abs(attw.data.sum(axis=2) - 1.0) <= 1e-12)

    def test_matches_loop_oracle(self):
        g = rng(14)
        p = init_eds_params(2, 2, 3, g)
        f = g.random((2, 5, 2))
        off, attw = eds_offsets(constant(f), p)
        for t in range(2):
            for i in range(5):
                feat = f[t, i]
                ref_off = p["off.w"].data[:, :, 0, 0] @ feat + p["off.b"].data
                logits = p["attw.w"].data[:, :, 0, 0] @ feat + p["attw.b"].data
                e = np.exp(logits - logits.max())
                assert np.max(np.abs(off.data[t, i] - ref_off)) <= 1e-12
                assert np.max(np.abs(attw.data[t, i] - e / e.sum())) <= 1e-12


class TestEDSInject:
    def test_empty_refs_identity(self):
        g = rng(15)
        p = init_eds_params(3, 4, 4, g)
        f_snn = constant((g.random((2, 3, 3, 4, 4)) > 0.5).astype(float))
        f_ann = constant(g.normal(size=(2, 4, 4, 4)))
        out = eds_inject(f_snn, f_ann, make_refs([], [], 8, 4), p)
        assert out is f_snn

    def test_modifies_only_reference_rows(self):
        g = rng(16)
        p = init_eds_params(3, 4, 2, g)
        f_snn_data = (g.random((1, 2, 3, 6, 6)) > 0.4).astype(float)
        f_ann = constant(g.normal(size=(1, 4, 6, 6)))
        refs = make_refs([1, 3], [2, 5], 6, 6)
        out = eds_inject(constant(f_snn_data), f_ann, refs, p)
        changed = np.any(out.data != f_snn_data, axis=(0, 1, 2))
        mask = np.zeros((6, 6), dtype=bool)
        mask[refs.ys, refs.xs] = True
        assert np.all(changed <= mask)

    def test_hand_case_zero_offsets_identity_projection(self):
        # K=1, offset head zeroed, identity projection: the update at a
        # reference point is elementwise proj(F_ann)[r] * F_snn[t, r]
        g = rng(17)
        p = init_eds_params(2, 2, 1, g)
        p["off.w"] = parameter(np.zeros((2, 2, 1, 1)))
        p["proj.w"] = parameter(np.eye(2).reshape(2, 2, 1, 1))
        p["proj.b"] = parameter(np.zeros(2))
        f_snn = g.random((1, 1, 2, 4, 4)).round()
        f_ann = g.normal(size=(1, 2, 4, 4))
        refs = make_refs([0, 2], [1, 3], 4, 4)
        out = eds_inject(constant(f_snn), constant(f_ann), refs, p)
        ref = f_snn.copy()
        for (y, x) in zip(refs.ys, refs.xs):
            ref[0, 0, :, y, x] += f_ann[0, :, y, x] * f_snn[0, 0, :, y, x]
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_duplicated_points_with_halved_weights_unchanged(self):
        g = rng(18)
        k = 2
        p = init_eds_params(3, 3, k, g)
        # duplicate every sampling point: softmax over duplicated logits
        # halves each weight, so the convex mix is unchanged
        off2 = np.tile(p["off.w"].data.reshape(k, 2, 3, 1, 1), (2, 1, 1, 1, 1))
        p2 = {"off.w": parameter(off2.reshape(4 * k, 3, 1, 1)),
              "off.b": parameter(np.tile(p["off.b"].data.reshape(k, 2), (2, 1)).reshape(-1)),
              "attw.w": parameter(np.tile(p["attw.w"].data, (2, 1, 1, 1))),
              "attw.b": parameter(np.tile(p["attw.b"].data, 2)),
              "proj.w": p["proj.w"], "proj.b": p["proj.b"]}
        f_snn = constant((g.random((1, 2, 3, 5, 5)) > 0.5).astype(float))
        f_ann = constant(g.normal(size=(1, 3, 5, 5)))
        refs = make_refs([0, 2, 4], [1, 2, 3], 5, 5)
        a = eds_inject(f_snn, f_ann, refs, p)
        b = eds_inject(f_snn, f_ann, refs, p2)
        assert np.max(np.abs(a.data - b.data)) <= 1e-12

    def test_matches_loop_oracle(self):
        g = rng(29)
        n, t, c, c_ann, k, h, w = 2, 2, 3, 2, 2, 5, 4
        p = init_eds_params(c, c_ann, k, g)
        p["off.b"] = parameter(g.uniform(-1.5, 1.5, size=2 * k))
        p["proj.b"] = parameter(g.normal(size=c) * 0.1)
        f_snn = g.random((n, t, c, h, w))
        f_ann = g.normal(size=(n, c_ann, h, w))
        points = [([0, 4, 2], [3, 0, 1]), ([1], [2])]
        out = eds_inject(constant(f_snn), constant(f_ann), stacked_refs(points, h, w), p)

        # independent loop re-derivation, one sample and point at a time
        ref = f_snn.copy()
        for i in range(n):
            proj = np.einsum("oc,chw->ohw", p["proj.w"].data[:, :, 0, 0], f_ann[i]) \
                + p["proj.b"].data[:, None, None]
            for y, x in zip(*points[i]):
                for ti in range(t):
                    feat = f_snn[i, ti, :, y, x]
                    off = p["off.w"].data[:, :, 0, 0] @ feat + p["off.b"].data
                    logits = p["attw.w"].data[:, :, 0, 0] @ feat + p["attw.b"].data
                    a = np.exp(logits - logits.max())
                    a /= a.sum()
                    for kk in range(k):
                        py, px = y + off[2 * kk], x + off[2 * kk + 1]
                        ref[i, ti, :, y, x] += a[kk] * (bilinear_ref(proj, py, px) *
                                                        bilinear_ref(f_snn[i, ti], py, px))
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_equals_each_sample_alone(self, dtype):
        # samples with P, 0 and Q points: the batched pass neither mixes
        # samples nor rounds differently from running each one alone
        g = rng(28)
        f_snn = (g.random((3, 2, 3, 6, 5)) > 0.5).astype(dtype)
        f_ann = g.normal(size=(3, 4, 6, 5)).astype(dtype)
        points = [([0, 2, 5, 3], [1, 4, 0, 3]), ([], []), ([5, 1], [4, 0])]
        with using_dtype(dtype):
            p = init_eds_params(3, 4, 2, g)
            p["off.b"] = parameter(g.uniform(-1.5, 1.5, size=4))
            batch = eds_inject(constant(f_snn), constant(f_ann),
                               stacked_refs(points, 6, 5), p).data
            alone = [eds_inject(constant(f_snn[i:i + 1]), constant(f_ann[i:i + 1]),
                                make_refs(*points[i], 6, 5), p).data for i in range(3)]
        assert batch.dtype == dtype
        assert batch.tobytes() == np.concatenate(alone).tobytes()
        assert not np.array_equal(batch[0], f_snn[0])
        assert np.array_equal(batch[1], f_snn[1])

    def test_out_of_geometry_reference_rejected(self):
        p = init_eds_params(2, 2, 1, rng(19))
        f_snn = constant(np.zeros((1, 1, 2, 4, 4)))
        f_ann = constant(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError, match="reference point"):
            eds_inject(f_snn, f_ann, make_refs([4], [0], 4, 4), p)


class TestCSF:
    def test_zero_input_zero_output(self):
        p = init_csf_params(3, rng(20))
        out = csf_select(constant(np.zeros((2, 3, 4, 4))), p)
        assert np.all(out.data == 0.0)

    def test_identity_conv_constant_input(self):
        c_val = 0.7
        p = {"w": parameter(np.eye(3).reshape(3, 3, 1, 1)), "b": parameter(np.zeros(3))}
        x = constant(np.full((1, 3, 5, 5), c_val))
        out = csf_select(x, p)
        assert np.allclose(out.data, c_val * sigmoid(c_val), atol=1e-14)

    def test_gate_frozen_homogeneous(self):
        g = rng(21)
        p = init_csf_params(2, g)
        x = g.normal(size=(1, 2, 3, 3))
        with no_grad():
            gate = ops.conv2d(constant(x).sigmoid(), p["w"], p["b"]).mean(axis=(2, 3)).data
        s1 = x * gate[:, :, None, None]
        s2 = (2 * x) * gate[:, :, None, None]
        assert np.allclose(s2, 2 * s1)

    def test_fuse_zero_spikes_reduces_to_frame_branch(self):
        g = rng(22)
        pa, ps = init_csf_params(3, g), init_csf_params(3, g)
        f_ann = constant(g.normal(size=(2, 3, 4, 4)))
        f_snn = constant(np.zeros((2, 5, 3, 4, 4)))
        fused = csf_fuse(f_ann, f_snn, pa, ps)
        alone = csf_select(f_ann, pa)
        assert fused.data.tobytes() == alone.data.tobytes()

    def test_fuse_both_zero(self):
        g = rng(23)
        pa, ps = init_csf_params(2, g), init_csf_params(2, g)
        out = csf_fuse(constant(np.zeros((1, 2, 3, 3))),
                       constant(np.zeros((1, 4, 2, 3, 3))), pa, ps)
        assert np.all(out.data == 0.0)

    def test_fuse_matches_loop_oracle(self):
        g = rng(24)
        pa, ps = init_csf_params(2, g), init_csf_params(2, g)
        f_ann = g.normal(size=(1, 2, 3, 3))
        f_snn = (g.random((1, 2, 2, 3, 3)) > 0.5).astype(float)
        out = csf_fuse(constant(f_ann), constant(f_snn), pa, ps)

        def select_ref(x, p):
            gmap = np.zeros_like(x)
            sx = sigmoid(x)
            for n in range(x.shape[0]):
                for co in range(x.shape[1]):
                    gmap[n, co] = sum(p["w"].data[co, ci, 0, 0] * sx[n, ci]
                                      for ci in range(x.shape[1])) + p["b"].data[co]
            gate = gmap.mean(axis=(2, 3))
            return x * gate[:, :, None, None]

        ref = select_ref(f_ann, pa) + select_ref(f_snn.sum(axis=1), ps)
        assert np.max(np.abs(out.data - ref)) <= 1e-12


class TestFusionGradients:
    def test_atw_full_chain(self):
        g = rng(25)
        p = init_atw_params(4, 2, 2, g)
        # exercise a nonzero output projection too
        p["out.w"] = parameter(g.normal(size=(4, 4, 1, 1)) * 0.3)
        p["out.b"] = parameter(g.normal(size=4) * 0.1)
        f_ann = parameter(g.normal(size=(1, 4, 4, 4)))
        f_snn = constant((g.random((1, 3, 4, 4, 4)) > 0.5).astype(float))
        wgt = constant(g.normal(size=(1, 4, 4, 4)))
        params = [f_ann, p["w_down"], p["w_up"], p["q.w"], p["q.b"], p["off.w"],
                  p["off.b"], p["attw.w"], p["attw.b"], p["out.w"], p["out.b"]]

        err = grad_check(lambda: (atw_apply(f_ann, f_snn, p) * wgt).sum(),
                         params, eps=1e-6)
        assert err <= 1e-4

    def test_eds_full_chain(self):
        g = rng(26)
        p = init_eds_params(3, 4, 2, g)
        # nonzero offsets so position gradients are exercised; nudge off
        # the integer lattice to stay clear of interpolation kinks
        p["off.b"] = parameter(g.uniform(0.2, 0.4, size=4))
        f_snn = constant((g.random((1, 2, 3, 5, 5)) > 0.5).astype(float))
        f_ann = parameter(g.normal(size=(1, 4, 5, 5)))
        refs = make_refs([1, 3], [2, 4], 5, 5)
        wgt = constant(g.normal(size=(1, 2, 3, 5, 5)))
        params = [f_ann, p["off.w"], p["off.b"], p["attw.w"], p["attw.b"], p["proj.w"],
                  p["proj.b"]]

        err = grad_check(lambda: (eds_inject(f_snn, f_ann, refs, p) * wgt).sum(),
                         params, eps=1e-6)
        assert err <= 1e-4

    def test_csf_chain(self):
        g = rng(27)
        pa, ps = init_csf_params(3, g), init_csf_params(3, g)
        f_ann = parameter(g.normal(size=(1, 3, 3, 3)))
        f_snn = parameter(g.normal(size=(1, 2, 3, 3, 3)))
        wgt = constant(g.normal(size=(1, 3, 3, 3)))
        params = [f_ann, f_snn, pa["w"], pa["b"], ps["w"], ps["b"]]

        err = grad_check(lambda: (csf_fuse(f_ann, f_snn, pa, ps) * wgt).sum(),
                         params, eps=1e-6)
        assert err <= 1e-4
