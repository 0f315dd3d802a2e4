import numpy as np
import pytest

from hess.events import EventStream, make_stream
from hess.voxel import downsample_voxel, extract_reference_points, voxelize, znorm


def brute_force_voxel(stream, bins, t_start, t_end):
    """Direct per-(event, bin) evaluation of the triangular binning kernel."""
    v = np.zeros((bins, stream.height, stream.width))
    span = float(t_end - t_start)
    for x, y, t, p in zip(stream.xs, stream.ys, stream.ts, stream.ps):
        s = (t - t_start) / span * (bins - 1)
        for b in range(bins):
            v[b, y, x] += p * max(0.0, 1.0 - abs(b - s))
    return v


def random_stream(seed, n, width=12, height=10, t_max=10_000):
    g = np.random.default_rng(seed)
    ts = np.sort(g.integers(0, t_max + 1, size=n))
    return make_stream(width, height,
                       g.integers(0, width, size=n),
                       g.integers(0, height, size=n),
                       ts, g.choice([-1, 1], size=n))


class TestVoxelize:
    def test_empty_stream_zero_grid(self):
        v = voxelize(EventStream(8, 8), 5, 0, 100)
        assert np.all(v == 0.0)
        assert v.shape == (5, 8, 8)

    def test_single_event_at_midpoint(self):
        s = make_stream(4, 4, [2], [1], [50], [1])
        v = voxelize(s, 5, 0, 100)
        # scaled time 0.5 * 4 = 2.0: all mass in bin 2
        assert v[2, 1, 2] == 1.0
        assert v.sum() == 1.0

    def test_single_event_split_between_bins(self):
        s = make_stream(4, 4, [0], [3], [375], [-1])
        v = voxelize(s, 5, 0, 1000)
        # scaled time 0.375 * 4 = 1.5: half in bin 1, half in bin 2
        assert v[1, 3, 0] == -0.5
        assert v[2, 3, 0] == -0.5
        assert np.abs(v).sum() == 1.0

    def test_event_at_window_end_maps_to_last_bin(self):
        s = make_stream(4, 4, [1], [1], [1000], [1])
        v = voxelize(s, 5, 0, 1000)
        assert v[4, 1, 1] == 1.0

    def test_missing_bounds_come_from_the_stream(self):
        s = random_stream(5, 40)
        t0, t1 = int(s.ts[0]), int(s.ts[-1])
        assert voxelize(s, 4).tobytes() == voxelize(s, 4, t0, t1).tobytes()
        assert voxelize(s, 4, t_end=t1 + 500).tobytes() == voxelize(s, 4, t0, t1 + 500).tobytes()
        assert voxelize(s, 4, t_start=t0 - 500).tobytes() == voxelize(s, 4, t0 - 500, t1).tobytes()

    def test_single_instant_stream_with_the_end_missing(self):
        # the end taken from the stream is widened to t_start + 1
        s = make_stream(4, 4, [1, 2], [0, 3], [100, 100], [1, -1])
        for v in (voxelize(s, 3), voxelize(s, 3, t_start=100)):
            assert v.tobytes() == voxelize(s, 3, 100, 101).tobytes()
            assert v[0, 0, 1] == 1.0 and v[0, 3, 2] == -1.0 and np.abs(v).sum() == 2.0
        assert voxelize(s, 3, t_start=40).tobytes() == voxelize(s, 3, 40, 100).tobytes()

    def test_single_instant_stream_with_the_start_missing(self):
        # the start comes from the stream; an explicit end is never rewritten
        s = make_stream(4, 4, [1, 2], [0, 3], [100, 100], [1, -1])
        assert voxelize(s, 3, t_end=200).tobytes() == voxelize(s, 3, 100, 200).tobytes()
        for t_end in (50, 100):
            with pytest.raises(ValueError, match="t_start < t_end"):
                voxelize(s, 3, t_end=t_end)

    @pytest.mark.parametrize("bounds", [{}, {"t_start": 0}, {"t_end": 100}])
    def test_empty_stream_with_a_bound_missing(self, bounds):
        with pytest.raises(ValueError, match="explicit t_start and t_end"):
            voxelize(EventStream(8, 8), 3, **bounds)

    def test_explicit_bounds_are_used_as_given(self):
        s = make_stream(4, 4, [1], [1], [100], [1])
        v = voxelize(s, 5, 0, 200)
        assert v[2, 1, 1] == 1.0 and v.sum() == 1.0
        with pytest.raises(ValueError, match="t_start < t_end"):
            voxelize(s, 5, 100, 100)

    def test_window_errors(self):
        s = make_stream(4, 4, [1], [1], [50], [1])
        with pytest.raises(ValueError, match="t_start < t_end"):
            voxelize(s, 5, 100, 100)
        with pytest.raises(ValueError, match="outside"):
            voxelize(s, 5, 60, 100)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        g = np.random.default_rng(1000 + seed)
        n = int(g.integers(1, 400))
        bins = int(g.integers(1, 9))
        s = random_stream(seed, n)
        v = voxelize(s, bins, 0, 10_000)
        ref = brute_force_voxel(s, bins, 0, 10_000)
        assert np.max(np.abs(v - ref)) <= 1e-12

    @pytest.mark.parametrize("bins", [2, 3, 5, 8])
    def test_bin_mass_conservation(self, bins):
        s = random_stream(77, 300)
        v = voxelize(s, bins, 0, 10_000)
        per_pixel = v.sum(axis=0)
        expected = np.zeros((s.height, s.width))
        np.add.at(expected, (s.ys, s.xs), s.ps.astype(float))
        assert np.max(np.abs(per_pixel - expected)) <= 1e-12


class TestZnorm:
    def test_constant_grid_zeroed(self):
        v = np.full((3, 4, 4), 2.5)
        assert np.all(znorm(v) == 0.0)

    def test_mean_zero_std_one(self):
        g = np.random.default_rng(3)
        v = g.normal(2.0, 3.0, size=(5, 8, 8))
        z = znorm(v)
        assert abs(z.mean()) <= 1e-9
        assert abs(z.std() - 1.0) <= 1e-6

    def test_two_entry_hand_case(self):
        v = np.array([-1.0, 1.0]).reshape(2, 1, 1)
        z = znorm(v)
        # population std of {-1, 1} is exactly 1
        assert np.array_equal(z.reshape(-1), [-1.0, 1.0])

    def test_batch_scores_each_grid_alone(self):
        # one constant grid (std guarded), one sparse, one dense
        g = np.random.default_rng(5)
        batch = np.stack([np.full((4, 8, 6), 1.5),
                          g.normal(size=(4, 8, 6)) * (g.random((4, 8, 6)) > 0.8),
                          g.normal(3.0, 2.0, size=(4, 8, 6))])
        alone = [znorm(v) for v in batch]
        assert znorm(batch).tobytes() == np.stack(alone).tobytes()
        assert np.all(alone[0] == 0.0)


class TestDownsample:
    def test_factor_one_identity(self):
        v = np.random.default_rng(4).normal(size=(2, 6, 6))
        assert np.array_equal(downsample_voxel(v, 1), v)

    def test_block_mean(self):
        d = np.zeros((1, 2, 2))
        d[0, 0, 0] = 1.0
        v = downsample_voxel(d, 2)
        assert v.shape == (1, 1, 1)
        assert v[0, 0, 0] == 0.25

    def test_zero_grid(self):
        v = downsample_voxel(np.zeros((2, 8, 8)), 4)
        assert np.all(v == 0.0)

    def test_indivisible_factor(self):
        with pytest.raises(ValueError, match="divide"):
            downsample_voxel(np.zeros((1, 6, 6)), 4)

    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_batch_pools_each_grid_alone(self, factor):
        batch = np.random.default_rng(6).normal(size=(3, 2, 8, 12))
        alone = np.stack([downsample_voxel(v, factor) for v in batch])
        assert downsample_voxel(batch, factor).tobytes() == alone.tobytes()


class TestReferencePoints:
    def test_empty_grid_no_points(self):
        refs = extract_reference_points(np.zeros((3, 4, 4)))
        assert len(refs) == 0

    def test_single_event_single_point(self):
        s = make_stream(8, 8, [5], [2], [50], [1])
        v = voxelize(s, 4, 0, 100)
        refs = extract_reference_points(downsample_voxel(v, 2), scale=2)
        assert len(refs) == 1
        assert (refs.ys[0], refs.xs[0]) == (1, 2)

    def test_dense_grid_all_points(self):
        v = np.ones((2, 3, 5))
        refs = extract_reference_points(v)
        assert len(refs) == 15
        assert (refs.height, refs.width) == (3, 5)

    def test_batch_stacks_grids_along_rows(self):
        # grid n's point (y, x) is row n*H + y of one set over N*H rows
        g = np.random.default_rng(7)
        batch = g.normal(size=(2, 3, 6, 5)) * (g.random((2, 3, 6, 5)) > 0.9)
        batch[1, :, 0, 0] = 1.0
        refs = extract_reference_points(batch, scale=4)
        alone = [extract_reference_points(v, scale=4) for v in batch]
        assert (refs.scale, refs.height, refs.width) == (4, 12, 5)
        assert refs.ys.tolist() == alone[0].ys.tolist() + (alone[1].ys + 6).tolist()
        assert refs.xs.tolist() == alone[0].xs.tolist() + alone[1].xs.tolist()
        assert len(alone[0]) > 0 and len(alone[1]) > 0

    def test_row_major_order(self):
        d = np.zeros((1, 4, 4))
        d[0, 2, 1] = 1.0
        d[0, 0, 3] = -1.0
        refs = extract_reference_points(d)
        assert list(refs.ys) == [0, 2]
        assert list(refs.xs) == [3, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_adding_event_never_removes_point(self, seed):
        g = np.random.default_rng(500 + seed)
        base = random_stream(seed + 50, 60)

        def refs_of(stream):
            v = downsample_voxel(voxelize(stream, 4, 0, 10_000), 2)
            r = extract_reference_points(v, scale=2)
            return set(zip(r.ys.tolist(), r.xs.tolist()))

        before = refs_of(base)
        ev = base.events.copy()
        extra = np.zeros(1, dtype=ev.dtype)
        extra["x"] = g.integers(0, base.width)
        extra["y"] = g.integers(0, base.height)
        extra["t"] = 10_000
        extra["p"] = g.choice([-1, 1])
        augmented = EventStream(base.width, base.height,
                                np.concatenate([ev, extra]))
        after = refs_of(augmented)
        assert before <= after
