import gc
import weakref

import numpy as np
import pytest

from hess import ops
from hess.tensor import Tensor, constant, grad_check, no_grad, parameter, using_dtype


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConv2d:
    def test_identity_kernel(self):
        x = constant(rng(1).normal(size=(2, 3, 5, 5)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ops.conv2d(x, constant(w), constant(np.zeros(3)))
        assert np.array_equal(y.data, x.data)

    def test_all_ones_hand_convolution(self):
        # 3x3 ones kernel over a 5x5 ones input, no padding: every output
        # entry sums 9 ones
        x = constant(np.ones((1, 1, 5, 5)))
        w = constant(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w, constant(np.zeros(1)))
        assert y.shape == (1, 1, 3, 3)
        assert np.allclose(y.data, 9.0)

    def test_shape_formula(self):
        x = constant(rng(2).normal(size=(1, 3, 16, 16)))
        w = constant(rng(3).normal(size=(8, 3, 3, 3)))
        y = ops.conv2d(x, w, constant(np.zeros(8)), stride=1, pad=1)
        assert y.shape == (1, 8, 16, 16)

    def test_same_padding_preserves_shape_for_odd_kernels(self):
        g = rng(4)
        for k in (1, 3, 5):
            x = constant(g.normal(size=(1, 2, 9, 7)))
            w = constant(g.normal(size=(4, 2, k, k)))
            y = ops.conv2d(x, w, constant(np.zeros(4)), stride=1, pad=(k - 1) // 2)
            assert y.shape[2:] == (9, 7)

    def test_channel_mismatch_raises(self):
        x = constant(np.zeros((1, 3, 8, 8)))
        w = constant(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv2d(x, w, constant(np.zeros(4)))

    def test_even_kernel_raises(self):
        x = constant(np.zeros((1, 1, 8, 8)))
        w = constant(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="odd"):
            ops.conv2d(x, w, constant(np.zeros(1)))

    def test_strided_matches_loop_oracle(self):
        g = rng(5)
        x = g.normal(size=(2, 3, 7, 8))
        w = g.normal(size=(4, 3, 3, 3))
        b = g.normal(size=4)
        y = ops.conv2d(constant(x), constant(w), constant(b), stride=2, pad=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        oh, ow = y.shape[2:]
        ref = np.zeros((2, 4, oh, ow))
        for n in range(2):
            for co in range(4):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        ref[n, co, i, j] = (patch * w[co]).sum() + b[co]
        assert np.allclose(y.data, ref, atol=1e-12)


class TestLinear:
    def test_identity(self):
        x = constant(rng(6).normal(size=(4, 3)))
        y = ops.linear(x, constant(np.eye(3)), constant(np.zeros(3)))
        assert np.allclose(y.data, x.data)

    def test_hand_product(self):
        y = ops.linear(constant([1.0, 2.0]),
                       constant([[1.0, 0.0], [0.0, 2.0]]),
                       constant([0.0, 1.0]))
        assert np.allclose(y.data, [1.0, 5.0])

    def test_leading_dims_preserved(self):
        x = constant(rng(7).normal(size=(2, 5, 3)))
        y = ops.linear(x, constant(rng(8).normal(size=(3, 4))))
        assert y.shape == (2, 5, 4)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ops.linear(constant(np.zeros((2, 3))), constant(np.zeros((4, 2))))


class TestSoftmax:
    def test_constant_slice_uniform(self):
        y = ops.softmax_axis(constant(np.full((3, 5), 2.7)), axis=1)
        assert np.allclose(y.data, 0.2)

    def test_closed_form(self):
        y = ops.softmax_axis(constant([0.0, np.log(3.0)]), axis=0)
        assert np.allclose(y.data, [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        x = rng(9).normal(size=(4, 6))
        a = ops.softmax_axis(constant(x), axis=1)
        b = ops.softmax_axis(constant(x + 123.5), axis=1)
        assert np.allclose(a.data, b.data, atol=1e-14)

    def test_sums_to_one_random(self):
        g = rng(10)
        for _ in range(50):
            x = constant(g.normal(size=(2, 7, 3)) * 30)
            y = ops.softmax_axis(x, axis=1)
            assert np.all(np.abs(y.data.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(y.data >= 0)


class TestPoolAndSample:
    def test_global_avg_pool_constant(self):
        y = constant(np.full((2, 3, 4, 4), 1.5)).mean(axis=(2, 3))
        assert y.shape == (2, 3)
        assert np.allclose(y.data, 1.5)

    def test_linear_row_independent_of_row_count(self):
        g = rng(19)
        for dtype in (np.float64, np.float32):
            x = g.normal(size=(40, 16)).astype(dtype)
            w = constant(g.normal(size=(16, 12)).astype(dtype))
            b = constant(g.normal(size=12).astype(dtype))
            full = ops.linear(constant(x), w, b).data
            for lo, hi in ((0, 1), (3, 4), (5, 12), (7, 40)):
                part = ops.linear(constant(x[lo:hi]), w, b).data
                assert part.tobytes() == full[lo:hi].tobytes()

    def test_global_avg_pool_hand(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert constant(x).mean(axis=(2, 3)).item() == 2.5

    def test_global_avg_pool_zero(self):
        assert constant(np.zeros((1, 2, 3, 3))).mean(axis=(2, 3)).data.sum() == 0.0

    def test_bilinear_integer_point(self):
        m = rng(11).normal(size=(3, 6, 7))
        y = ops.bilinear_sample_many(constant(m[None]), constant([[[2.0, 4.0]]]))
        assert np.allclose(y.data[0, 0], m[:, 2, 4])

    def test_bilinear_midpoint(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y = ops.bilinear_sample_many(constant(m), constant([[[0.5, 0.5]]]))
        assert np.allclose(y.item(), 2.5)

    def test_bilinear_far_outside_is_zero(self):
        m = constant(rng(12).normal(size=(1, 2, 4, 4)))
        y = ops.bilinear_sample_many(m, constant([[[-5.0, -5.0]]]))
        assert np.all(y.data == 0.0)

    def test_bilinear_linear_in_map(self):
        g = rng(13)
        m1, m2 = g.normal(size=(1, 2, 5, 5)), g.normal(size=(1, 2, 5, 5))
        pts = constant(g.uniform(-1, 5, size=(1, 10, 2)))
        a, b = 1.7, -0.4
        lhs = ops.bilinear_sample_many(constant(a * m1 + b * m2), pts)
        rhs = a * ops.bilinear_sample_many(constant(m1), pts).data + \
            b * ops.bilinear_sample_many(constant(m2), pts).data
        assert np.allclose(lhs.data, rhs, atol=1e-12)

    def test_bilinear_map_index(self):
        # each point reads the map its index names, border-zero there
        g = rng(16)
        maps = parameter(g.normal(size=(3, 2, 4, 5)))
        pts = parameter(g.uniform(-1.4, 5.4, size=(2, 7, 2)).round(1) + 0.03)
        which = g.integers(0, 3, size=(2, 7))
        got = ops.bilinear_sample_many(maps, pts, which)
        for r in range(2):
            for j in range(7):
                alone = ops.bilinear_sample_many(constant(maps.data[which[r, j]][None]),
                                                 constant(pts.data[r, j][None, None]))
                assert got.data[r, j].tobytes() == alone.data[0, 0].tobytes()
        wgt = constant(g.normal(size=(2, 7, 2)))
        assert grad_check(lambda: (ops.bilinear_sample_many(maps, pts, which) * wgt).sum(),
                          [maps, pts], eps=1e-6) <= 1e-4
        with pytest.raises(ValueError, match="map index"):
            ops.bilinear_sample_many(maps, pts, np.full((2, 7), 3))
        with pytest.raises(ValueError, match="one row of points per map"):
            ops.bilinear_sample_many(maps, pts)

    def test_gather_scatter_roundtrip(self):
        g = rng(14)
        m = g.normal(size=(3, 5, 6))
        iy = np.array([0, 2, 4])
        ix = np.array([1, 5, 0])
        got = ops.gather_pixels_many(constant(m[None]), iy, ix, [[0]])
        assert got.shape == (1, 3, 3)
        assert np.allclose(got.data[0], m[:, iy, ix].T)
        back = ops.scatter_points_many(constant(np.zeros((1, 3, 5, 6))), got, iy, ix, 0)
        assert back.shape == (1, 3, 5, 6)
        assert np.allclose(back.data[0][:, iy, ix], m[:, iy, ix])
        mask = np.ones((5, 6), bool)
        mask[iy, ix] = False
        assert np.all(back.data[0][:, mask] == 0.0)

    def map_index_case(self):
        # 3 maps, 2 rows of 6 distinct points: the rows share positions
        # but read each one on different maps
        g = rng(17)
        iy = np.array([2, 0, 3, 2, 1, 2])
        ix = np.array([3, 4, 0, 1, 1, 4])
        index = np.array([[1, 0, 2, 1, 2, 0], [0, 2, 1, 2, 0, 1]])
        maps = parameter(g.normal(size=(3, 2, 4, 5)))
        updates = parameter(g.normal(size=(2, 6, 2)))
        return maps, updates, iy, ix, index

    def test_gather_map_index_matches_loop(self):
        maps, _, iy, ix, index = self.map_index_case()
        got = ops.gather_pixels_many(maps, iy, ix, index)
        assert got.shape == (2, 6, 2)
        for r in range(2):
            for j in range(6):
                want = maps.data[index[r, j], :, iy[j], ix[j]]
                assert got.data[r, j].tobytes() == want.tobytes()

    def test_scatter_map_index_matches_loop(self):
        maps, updates, iy, ix, index = self.map_index_case()
        got = ops.scatter_points_many(maps, updates, iy, ix, index)
        want = maps.data.copy()
        for r in range(2):
            for j in range(6):
                want[index[r, j], :, iy[j], ix[j]] += updates.data[r, j]
        assert got.data.tobytes() == want.tobytes()

    def test_gather_scatter_repeated_point_rejected(self):
        # texel (2, 3) of map 0, named by row 0 and by row 1
        maps, updates, iy, ix, index = self.map_index_case()
        index = index.copy()
        index[0, 0] = 0
        with pytest.raises(ValueError, match="repeated point"):
            ops.gather_pixels_many(maps, iy, ix, index)
        with pytest.raises(ValueError, match="repeated point"):
            ops.scatter_points_many(maps, updates, iy, ix, index)
        # the same texel on different maps is not a repeat
        assert ops.gather_pixels_many(maps, [2, 2], [3, 3], [[0, 1]]).shape == (1, 2, 2)

    def test_gather_scatter_turn_negative_zero_positive(self):
        # as a sum from zero would: the gather's map gradient and a
        # scatter's -0.0 + -0.0 both give +0.0
        maps = parameter(np.full((1, 2, 3, 3), -0.0))
        upd = constant(np.full((1, 1, 2), -0.0))
        out = ops.scatter_points_many(maps, upd, 1, 2, 0)
        assert not np.signbit(out.data[0, :, 1, 2]).any()
        dmaps, = ops.gather_pixels_many(maps, 1, 2, [[0]])._record.backward(
            np.full((1, 1, 2), -0.0))
        assert not np.signbit(dmaps).any()

    def test_gather_scatter_map_index_grads(self):
        maps, updates, iy, ix, index = self.map_index_case()
        w_g = constant(rng(18).normal(size=(2, 6, 2)))
        w_s = constant(rng(19).normal(size=(3, 2, 4, 5)))
        assert grad_check(lambda: (ops.gather_pixels_many(maps, iy, ix, index) * w_g).sum(),
                          [maps], eps=1e-6) <= 1e-4
        assert grad_check(
            lambda: (ops.scatter_points_many(maps, updates, iy, ix, index) * w_s).sum(),
            [maps, updates], eps=1e-6) <= 1e-4

    def test_gather_scatter_bad_points_rejected(self):
        maps, updates, iy, ix, index = self.map_index_case()
        for bad_index in (np.full((2, 6), 3), np.full((2, 6), -1)):
            with pytest.raises(ValueError, match="map index"):
                ops.gather_pixels_many(maps, iy, ix, bad_index)
            with pytest.raises(ValueError, match="map index"):
                ops.scatter_points_many(maps, updates, iy, ix, bad_index)
        with pytest.raises(ValueError, match="outside the map"):
            ops.gather_pixels_many(maps, iy, ix + 2, index)
        with pytest.raises(ValueError, match="outside the map"):
            ops.scatter_points_many(maps, updates, iy + 2, ix, index)

    def test_interp_resize_constant_map(self):
        x = constant(np.full((1, 2, 4, 4), 3.25))
        y = ops.interp_resize(x, 8, 8)
        assert np.allclose(y.data, 3.25)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = parameter(rng(15).normal(size=(3, 4)))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient(self):
        x = parameter([1.0, 2.0, 3.0])
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_two_uses_accumulate(self):
        x = parameter([1.0, 2.0])
        ((x * 3.0).sum() + (x * 2.0).sum()).backward()
        assert np.allclose(x.grad, [5.0, 5.0])

    def test_backward_twice_raises(self):
        x = parameter([1.0])
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()

    def test_graph_freed_without_cyclic_gc(self):
        # a replayed record lets go of its outputs, parents and closure, so
        # reference counting alone frees the graph once the loss is dropped
        gc.disable()
        try:
            x = parameter(rng(18).normal(size=(4, 3)))
            h = (x * 2.0).sigmoid()
            side = h.sigmoid()      # recorded but not on the loss path
            loss = (h * h).sum()
            probes = [weakref.ref(h.data), weakref.ref(side.data)]
            loss.backward()
            del h, side, loss
            assert [p() for p in probes] == [None, None]
            assert x.grad is not None
        finally:
            gc.enable()

    def test_unrecorded_loss_raises(self):
        with no_grad():
            loss = (parameter([1.0]) * 2.0).sum()
        with pytest.raises(RuntimeError, match="recorded"):
            loss.backward()

    def test_non_scalar_raises(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            (x * x).backward()


class TestGradCheck:
    def test_linear_fn_exact(self):
        x = parameter(rng(16).normal(size=5))
        err = grad_check(lambda: (x * 3.0).sum(), [x])
        assert err <= 1e-10

    def test_sigmoid_composed(self):
        x = parameter(rng(17).normal(size=(2, 3)))
        err = grad_check(lambda: (x.sigmoid() * x).sum(), [x], eps=1e-5)
        assert err <= 1e-6

    def test_detects_wrong_backward_rule(self):
        from hess.tensor import Tensor, record_op

        def bad_square(t):
            return record_op(Tensor(t.data ** 2), [t],
                             lambda g: (g * 3.0 * t.data,))  # wrong: 3x not 2x

        x = parameter([1.0, -2.0])
        err = grad_check(lambda: bad_square(x).sum(), [x])
        assert err > 1e-3

    @pytest.mark.parametrize("seed", range(10))
    def test_primitives_random_instances(self, seed):
        # ten random instances per primitive bundle; together with the other
        # classes this covers the op set at the 1e-4 bar
        g = rng(100 + seed)
        x = parameter(g.normal(size=(2, 3, 6, 6)))
        w = parameter(g.normal(size=(4, 3, 3, 3)) * 0.5)
        b = parameter(g.normal(size=4) * 0.1)

        def fn():
            y = ops.conv2d(x, w, b, stride=1, pad=1)
            y = ops.softmax_axis(y, axis=1)
            return (y * y).sum()

        assert grad_check(fn, [x, w, b], eps=1e-5) <= 1e-4

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: 0.5 + x, lambda x, y: x - y,
        lambda x, y: x * y, lambda x, y: 2.0 * x, lambda x, y: x ** 3.0,
        lambda x, y: x.relu() * y, lambda x, y: x.sigmoid(),
        lambda x, y: x.sum(axis=1), lambda x, y: x.sum(axis=0, keepdims=True) * y,
        lambda x, y: x.mean(axis=1), lambda x, y: x.mean(axis=(0, 1), keepdims=True) * y,
        lambda x, y: x.reshape((4, 3)), lambda x, y: x.transpose((1, 0)),
    ], ids=["add", "radd", "sub", "mul", "rmul", "pow", "relu", "sigmoid", "sum_axis",
            "sum_keepdims", "mean_axis", "mean_keepdims", "reshape", "transpose"])
    def test_tensor_method_grads(self, op):
        # each Tensor method on its own, against central differences; the
        # output is weighted so that every entry's gradient differs
        g = rng(400)
        x = parameter(g.uniform(0.5, 1.5, size=(3, 4)) * g.choice([-1.0, 1.0], size=(3, 4)))
        y = parameter(g.normal(size=(3, 4)))
        with no_grad():
            weights = constant(g.normal(size=op(x, y).shape))
        assert grad_check(lambda: (op(x, y) * weights).sum(), [x, y], eps=1e-6) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_sampling_and_resize_grads(self, seed):
        g = rng(200 + seed)
        m = parameter(g.normal(size=(1, 2, 5, 5)))
        # keep sampling positions away from the integer lattice: bilinear
        # interpolation has derivative kinks there
        pts = parameter(g.uniform(0.2, 3.8, size=(1, 6, 2)).round(1) + 0.13)
        wgt = parameter(g.normal(size=(1, 6, 2)))

        def fn():
            s = ops.bilinear_sample_many(m, pts)
            return (s * wgt).sum()

        assert grad_check(fn, [m, pts, wgt], eps=1e-6) <= 1e-4

        x4 = parameter(g.normal(size=(1, 2, 4, 6)))
        assert grad_check(lambda: (ops.interp_resize(x4, 7, 9) ** 2.0).sum(),
                          [x4], eps=1e-5) <= 1e-4

    def test_group_norm_grads(self):
        g = rng(300)
        x = parameter(g.normal(size=(2, 3, 4, 4)))
        gamma = parameter(1.0 + 0.1 * g.normal(size=3))
        beta = parameter(0.1 * g.normal(size=3))

        def fn():
            y = ops.group_norm(x, gamma, beta)
            z = y * 2.0
            return (y * y + z * z).sum()

        assert grad_check(fn, [x, gamma, beta], eps=1e-5) <= 1e-4

    def test_conv_over_time_grads(self):
        g = rng(302)
        x = parameter(g.normal(size=(2, 3, 2, 5, 5)))
        w = parameter(g.normal(size=(3, 2, 3, 3)) * 0.5)
        b = parameter(g.normal(size=3) * 0.1)
        wgt = constant(g.normal(size=(2, 3, 3, 3, 3)))

        def fn():
            return (ops.conv2d(x, w, b, stride=2, pad=1).sigmoid() * wgt).sum()

        assert grad_check(fn, [x, w, b], eps=1e-6) <= 1e-4

    def test_conv_over_time_grad_has_the_input_dtype(self):
        # the sampling positions' gradient is float64; the input of the
        # conv over time still gets one gradient of its own dtype
        g = rng(303)
        with using_dtype(np.float32):
            x = parameter(g.uniform(0.2, 2.8, size=(1, 2, 1, 5, 2)))
            w = constant(np.ones((1, 1, 1, 1)))
            maps = constant(g.normal(size=(2, 2, 4, 4)))
            pts = ops.conv2d(x, w, constant(np.zeros(1))).reshape((2, 5, 2))
            ops.bilinear_sample_many(maps, pts).sum().backward()
        assert x.grad.dtype == np.float32

    def test_cross_entropy_grad_and_hand_value(self):
        g = rng(301)
        logits = parameter(g.normal(size=(1, 3, 2, 1)))
        labels = np.array([[[0], [2]]])
        loss = ops.cross_entropy(logits, labels)
        # hand-computed: mean of -log softmax at the true class
        z = logits.data
        ref = 0.0
        for (n, y, x, k) in ((0, 0, 0, 0), (0, 1, 0, 2)):
            e = np.exp(z[n, :, y, x] - z[n, :, y, x].max())
            ref += -np.log(e[k] / e.sum())
        assert abs(loss.item() - ref / 2) <= 1e-12
        assert grad_check(
            lambda: ops.cross_entropy(logits, labels),
            [logits], eps=1e-6) <= 1e-4

    def test_cross_entropy_ignore_and_errors(self):
        logits = constant(np.zeros((1, 2, 1, 2)))
        lab = np.array([[[255, 1]]])
        loss = ops.cross_entropy(logits, lab)
        assert abs(loss.item() - np.log(2.0)) <= 1e-12
        with pytest.raises(ValueError, match="ignored"):
            ops.cross_entropy(logits, np.full((1, 1, 2), 255))
        with pytest.raises(ValueError, match="label"):
            ops.cross_entropy(logits, np.array([[[0, 7]]]))

    @pytest.mark.parametrize("seed", range(100))
    def test_every_op_family_100_random_instances(self, seed):
        # one random instance per seed, cycling through four op bundles
        # that jointly cover the differentiable operator set
        g = rng(10_000 + seed)
        kind = seed % 4
        if kind == 0:
            x = parameter(g.normal(size=(1, 2, 5, 5)))
            w = parameter(g.normal(size=(3, 2, 3, 3)) * 0.5)
            b = parameter(g.normal(size=3) * 0.1)
            fn = lambda: (ops.conv2d(x, w, b, stride=2, pad=1).sigmoid()
                          * 2.0).sum()
            params = [x, w, b]
        elif kind == 1:
            x = parameter(g.normal(size=(2, 4)))
            w = parameter(g.normal(size=(4, 3)))
            b = parameter(g.normal(size=3))
            fn = lambda: (ops.softmax_axis(ops.linear(x, w, b), axis=1)
                          * ops.linear(x, w, b).sigmoid()).sum()
            params = [x, w, b]
        elif kind == 2:
            m = parameter(g.normal(size=(1, 2, 4, 4)))
            pts = parameter(g.uniform(0.3, 2.7, size=(1, 5, 2)))
            fn = lambda: (ops.bilinear_sample_many(m, pts) ** 2.0).sum()
            params = [m, pts]
        else:
            x = parameter(g.normal(size=(1, 3, 4, 4)))
            gm = parameter(1.0 + 0.1 * g.normal(size=3))
            bt = parameter(0.1 * g.normal(size=3))
            fn = lambda: ((ops.group_norm(x, gm, bt).relu() + 1.0)
                          * ops.interp_resize(x, 6, 6).mean()).sum()
            params = [x, gm, bt]
        assert grad_check(fn, params, eps=1e-5) <= 1e-4
