import re
import struct
import warnings

import numpy as np
import pytest

from hess.events import _EVENT_DTYPE as EVENT_DTYPE
from hess.events import EventStream, make_stream, read_events, write_events
from hess.imgio import colorize_labels, read_pgm, read_ppm, write_pgm, write_ppm
from hess.synthetic import (CONTRAST_THRESHOLD, SynthConfig, build_scene,
                            gen_synthetic, load_dataset, make_samples,
                            render_sequence, save_dataset)


def random_stream(seed, n=1000, width=64, height=48, t_max=1_000_000):
    g = np.random.default_rng(seed)
    ts = np.sort(g.integers(0, t_max, size=n))
    return make_stream(width, height,
                       g.integers(0, width, size=n),
                       g.integers(0, height, size=n),
                       ts,
                       g.choice([-1, 1], size=n))


class TestEventIO:
    def test_empty_roundtrip(self, tmp_path):
        s = EventStream(32, 24)
        p = tmp_path / "empty.evt1"
        write_events(s, p)
        r = read_events(p)
        assert r.width == 32 and r.height == 24 and len(r) == 0

    def test_random_roundtrip_bitwise(self, tmp_path):
        s = random_stream(0)
        p = tmp_path / "s.evt1"
        write_events(s, p)
        r = read_events(p)
        assert r.events.tobytes() == s.events.tobytes()
        assert (r.width, r.height) == (s.width, s.height)

    def test_csv_roundtrip(self, tmp_path):
        s = random_stream(1, n=50, width=16, height=16)
        p = tmp_path / "s.csv"
        write_events(s, p)
        r = read_events(p)
        assert np.array_equal(r.xs, s.xs) and np.array_equal(r.ts, s.ts)
        assert np.array_equal(r.ps, s.ps)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.evt1"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_events(p)

    def test_truncated_record(self, tmp_path):
        s = random_stream(2, n=10)
        p = tmp_path / "trunc.evt1"
        write_events(s, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-7])
        with pytest.raises(ValueError, match="truncated at record 9"):
            read_events(p)

    def test_decreasing_timestamp_names_index(self, tmp_path):
        s = random_stream(3, n=10)
        ev = s.events.copy()
        ev["t"][7] = ev["t"][6] - 1 if ev["t"][6] > 0 else 0
        ev["t"][7:] = np.minimum(ev["t"][7:], ev["t"][7])
        p = tmp_path / "dec.evt1"
        with open(p, "wb") as f:
            import struct
            f.write(struct.pack("<4sIIQ", b"EVT1", s.width, s.height, len(ev)))
            f.write(ev.tobytes())
        with pytest.raises(ValueError, match="7"):
            read_events(p)

    def test_timestamp_above_int64_rejected(self, tmp_path):
        # .ts would read 2**63 as -2**63, and voxelize would drop the event
        ev = np.zeros(3, EVENT_DTYPE)
        ev["p"] = 1
        ev["t"] = [5, 2**63 - 1, 2**63]
        with pytest.raises(ValueError, match=r"^event 2 has t = 9223372036854775808, above"):
            EventStream(4, 4, ev)
        p = tmp_path / "wide.evt1"
        p.write_bytes(struct.pack("<4sIIQ", b"EVT1", 4, 4, 3) + ev.tobytes())
        with pytest.raises(ValueError, match="event 2 has t ="):
            read_events(p)

    def test_timestamps_ordered_up_to_int64_max(self):
        # the order check compares the u64 field itself, so the largest
        # timestamps pass and a drop from them is still named
        ev = np.zeros(4, EVENT_DTYPE)
        ev["p"] = 1
        ev["t"] = [0, 2**62, 2**63 - 1, 2**63 - 1]
        assert EventStream(4, 4, ev).ts.tolist() == [0, 2**62, 2**63 - 1, 2**63 - 1]
        ev["t"][3] = 2**62
        with pytest.raises(ValueError, match="^event 3 has decreasing timestamp$"):
            EventStream(4, 4, ev)

    def test_out_of_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            make_stream(8, 8, [9], [0], [10], [1])

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            make_stream(8, 8, [1], [1], [10], [0])

    @pytest.mark.parametrize("ps, first", [([1, -1, 1, 0, 1, 2, -1], "event 3 has polarity 0"),
                                           ([-1, 2, 1, 1, 0, 1, -1], "event 1 has polarity 2")])
    def test_bad_polarity_names_the_first_index(self, ps, first):
        n = len(ps)
        with pytest.raises(ValueError, match=f"^{first}, expected -1 or \\+1$"):
            make_stream(8, 8, [1] * n, [2] * n, list(range(n)), ps)

    def test_unit_polarities_pass(self):
        ps = [1, -1, -1, 1, 1]
        stream = make_stream(8, 8, [1] * 5, [2] * 5, list(range(5)), ps)
        assert stream.ps.tolist() == ps

    @pytest.mark.parametrize("record, field", [("70000,1,5,1", "x = 70000"),
                                               ("1,65536,5,1", "y = 65536"),
                                               ("-1,1,5,1", "x = -1"),
                                               ("1,1,-5,1", "t = -5"),
                                               ("1,1,5,257", "p = 257"),
                                               ("1,1,18446744073709551616,1",
                                                "a value outside the 64-bit range")])
    def test_csv_value_outside_evt1_field_rejected(self, tmp_path, record, field):
        # unchecked, the casts would wrap x = 70000 to 4464 and t = -5 to 2**64 - 5
        p = tmp_path / "wide.csv"
        p.write_text(f"x,y,t,p\n0,0,0,1\n{record}\n")
        with pytest.raises(ValueError, match=f"wide.csv: event 1 has {field}"):
            read_events(p)

    def test_make_stream_checks_fields_before_the_cast(self):
        with pytest.raises(ValueError, match="event 2 has t = -1"):
            make_stream(4, 4, [0, 1, 2], [0, 0, 0], [0, 3, -1], [1, 1, 1])

    def test_make_stream_names_the_exact_value_beyond_int64(self):
        # as a float64 array this list would report event 0 with 2**63 - 1
        # rounded up to 2**63
        with pytest.raises(ValueError, match="event 1 has t = 9223372036854775808, "):
            make_stream(4, 4, [0, 0], [0, 0], [2**63 - 1, 2**63], [1, 1])

    def test_make_stream_rejects_u64_max_without_a_cast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="event 1 has t = 18446744073709551615, "):
                make_stream(4, 4, [0, 0], [0, 0], [5, 2**64 - 1], [1, 1])

    @pytest.mark.parametrize("bad, shown", [(1.7, "1.7"), (float("nan"), "nan"),
                                            (float("inf"), "inf"), (-float("inf"), "-inf")])
    def test_make_stream_rejects_a_float_that_is_not_whole(self, bad, shown):
        # unchecked, the cast stored 1.7 as 1 and a NaN failed without its index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"event 1 has x = {shown}, not a whole number"):
                make_stream(4, 4, [2.0, bad], [0, 0], [1, 2], [1, 1])
            with pytest.raises(ValueError, match=f"event 0 has t = {shown}, not a whole number"):
                make_stream(4, 4, [0, 0], [0, 0], np.array([bad, 2.0]), [1, 1])

    def test_make_stream_accepts_whole_floats(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_stream(4, 4, [2.0, 3.0], np.array([1.0, 0.0]), [1.0, 2], [1.0, -1.0])
        assert s.events.tobytes() == make_stream(4, 4, [2, 3], [1, 0], [1, 2], [1, -1]).events.tobytes()

    def test_slice_is_a_read_only_view(self):
        s = random_stream(3, n=20)
        w = s.slice(5, 12)
        assert (w.width, w.height) == (s.width, s.height)
        assert w.events.tobytes() == s.events[5:12].tobytes()
        assert np.shares_memory(w.events, s.events)
        assert not w.events.flags.writeable and s.events.flags.writeable
        assert len(s.slice(20, 20)) == 0 and len(s.slice(0, 20).slice(3, 3)) == 0

    @pytest.mark.parametrize("start, stop", [(-1, 10), (0, 21), (8, 7), (21, 21)])
    def test_slice_outside_the_stream_rejected(self, start, stop):
        # unchecked, slice(-1, 10) wrapped to an empty window
        with pytest.raises(ValueError, match=f"slice {start}..{stop} outside the stream's 0..20"):
            random_stream(3, n=20).slice(start, stop)

    def test_last_window(self):
        # a sample keeps the most recent max_events events of its window
        cfg = SynthConfig(width=16, height=16, frame_count=3, num_shapes=1,
                          min_size=5, max_size=8, duration_us=10_000)
        full = make_samples(4, cfg, max_events=10**9)
        capped = make_samples(4, cfg, max_events=20)
        assert max(len(s.events) for s in full) > 20
        for f, c in zip(full, capped):
            assert len(c.events) == min(20, len(f.events))
            assert np.array_equal(c.events.events, f.events.events[len(f.events) - len(c.events):])
            assert np.all((c.events.ts > c.t_lo) & (c.events.ts <= c.t_hi))


class TestImgIO:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(5).integers(0, 256, size=(17, 23)).astype(np.uint8)
        p = tmp_path / "x.pgm"
        write_pgm(img, p)
        assert np.array_equal(read_pgm(p), img)

    def test_ppm_roundtrip(self, tmp_path):
        img = np.random.default_rng(6).integers(0, 256, size=(9, 11, 3)).astype(np.uint8)
        p = tmp_path / "x.ppm"
        write_ppm(img, p)
        assert np.array_equal(read_ppm(p), img)

    def test_header_comments_and_small_maxval(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# made by hand\n2 1 # two pixels\n15\n\x01\x0f")
        assert read_pgm(p).tolist() == [[1, 15]]

    @pytest.mark.parametrize("reader, data, message", [
        (read_ppm, b"P6\n2 1\n65535\n" + bytes(range(12)), "maxval 65535"),
        (read_pgm, b"P5\n2 1\n65535\n" + bytes(4), "maxval 65535"),
        (read_pgm, b"P5\n2 1\n0\n\x00\x00", "maxval 0"),
        (read_pgm, b"P5\n0 5\n255\n", "image size 0x5"),
        (read_ppm, b"P6\n3 0\n255\n", "image size 3x0"),
        (read_pgm, b"P5\n-2 2\n255\n" + bytes(4), "field 1 is b'-2'"),
        (read_ppm, b"P6\n2 -1\n255\n" + bytes(6), "field 2 is b'-1'"),
        (read_pgm, b"P5\n2 ", "field 2 is b''"),
        (read_pgm, b"P5\n2 2\n255", "truncated pixel data"),
        (read_ppm, b"P6\n2 2\n255\n" + bytes(11), "truncated pixel data"),
        (read_ppm, b"P5\n1 1\n255\n\x00", "not a P6 file"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, reader, data, message):
        p = tmp_path / "bad.pnm"
        p.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{re.escape(message)}"):
            reader(p)

    def test_empty_image_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            write_pgm(np.zeros((0, 4), np.uint8), tmp_path / "e.pgm")
        with pytest.raises(ValueError, match="non-empty"):
            write_ppm(np.zeros((2, 0, 3), np.uint8), tmp_path / "e.ppm")

    def test_palette_shape(self):
        lab = np.array([[0, 1], [2, 18]])
        rgb = colorize_labels(lab)
        assert rgb.shape == (2, 2, 3)


class TestSynthetic:
    @pytest.mark.parametrize("sizes", [(-30, 22), (0, 22), (30, 10)])
    def test_size_bounds_rejected(self, sizes):
        with pytest.raises(ValueError, match="min_size"):
            SynthConfig(min_size=sizes[0], max_size=sizes[1])

    @pytest.mark.parametrize("classes", [1, 256, 300])
    def test_class_count_outside_the_uint8_labels_rejected(self, classes):
        # labels are uint8 and 255 is the ignore index: 300 classes overflowed
        # while painting, and with 256 class 255 was silently ignored
        with pytest.raises(ValueError, match=rf"^num_classes must lie in 2\.\.255 .*got {classes}$"):
            SynthConfig(num_classes=classes)

    def test_largest_class_count_paints(self):
        cfg = SynthConfig(width=16, height=16, num_classes=255, num_shapes=60, frame_count=2)
        _, frames, labels, _ = gen_synthetic(0, cfg)
        assert all(l.dtype == np.uint8 and l.max() <= 254 for l in labels)

    def test_size_bounds_accepted(self):
        for lo, hi in ((1, 50), (2, 19), (7, 7)):
            assert SynthConfig(min_size=lo, max_size=hi).min_size == lo

    def test_render_sequence_follows_the_scene_config(self):
        # a scene renders under the config it was built from, and only that
        cfg = SynthConfig(width=24, height=20, frame_count=5, micro_steps=2)
        stream, frames, labels, times = render_sequence(build_scene(3, cfg))
        assert (stream.width, stream.height) == (24, 20) and len(stream) > 0
        assert len(frames) == len(labels) == len(times) == 5
        assert all(f.shape == l.shape == (20, 24) for f, l in zip(frames, labels))
        assert times[-1] == cfg.duration_us

    def test_zero_shapes(self):
        cfg = SynthConfig(num_shapes=0, frame_count=5)
        stream, frames, labels, _ = gen_synthetic(0, cfg)
        assert len(stream) == 0
        assert all(np.array_equal(frames[0], f) for f in frames)
        assert all(np.all(l == 0) for l in labels)

    def test_determinism(self):
        cfg = SynthConfig(frame_count=8)
        a = gen_synthetic(42, cfg)
        b = gen_synthetic(42, cfg)
        assert a[0].events.tobytes() == b[0].events.tobytes()
        for fa, fb in zip(a[1], b[1]):
            assert np.array_equal(fa, fb)
        for la, lb in zip(a[2], b[2]):
            assert np.array_equal(la, lb)

    def test_events_match_frame_difference_oracle(self):
        # one shape moving right: recompute the expected events by
        # rendering every micro-step and differencing, independently of
        # the generator's event loop
        cfg = SynthConfig(num_shapes=1, frame_count=10, micro_steps=3,
                          duration_us=30_000)
        scene = build_scene(7, cfg)
        scene.shapes[0].vy = 0.0
        scene.shapes[0].vx = 1.0 / (cfg.duration_us / cfg.frame_count)

        stream, _, _, _ = render_sequence(scene)
        total = cfg.frame_count * cfg.micro_steps
        times = [int(round((m + 1) * cfg.duration_us / total)) for m in range(total)]
        expected = []
        prev = scene.render(0)
        for t in times:
            cur = scene.render(t)
            d = cur - prev
            for (yy, xx) in zip(*np.nonzero(np.abs(d) > CONTRAST_THRESHOLD)):
                expected.append((xx, yy, t, int(np.sign(d[yy, xx]))))
            prev = cur
        got = [(e["x"], e["y"], e["t"], e["p"]) for e in stream.events]
        assert got == expected
        # motion along x: changes happen on vertical edges only
        xs = np.array([e[0] for e in got])
        assert len(np.unique(xs)) <= 2 * total

    def test_dataset_save_load_roundtrip(self, tmp_path):
        cfg = SynthConfig(frame_count=4)
        samples = make_samples(3, cfg)
        save_dataset(samples, tmp_path / "d", meta={"num_classes": cfg.num_classes})
        loaded, info = load_dataset(tmp_path / "d")
        assert info["num_classes"] == 3
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert np.array_equal(a.frame, b.frame)
            assert np.array_equal(a.labels, b.labels)
            assert a.events.events.tobytes() == b.events.events.tobytes()

    def test_sample_windows_partition_events(self):
        cfg = SynthConfig(frame_count=6)
        samples = make_samples(9, cfg)
        for s in samples:
            if len(s.events):
                assert s.events.ts[0] > s.t_lo
                assert s.events.ts[-1] <= s.t_hi
