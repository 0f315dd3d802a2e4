"""The data path from scene to training batch: make_samples, then
prepare_batches.

Every number the repository trains or evaluates on comes from these bytes,
so they are pinned by digest, and prepare_batches is checked against a
per-sample reference built from voxelize alone."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hess.events import EventStream, make_stream
from hess.optim import prepare_batches
from hess.synthetic import (BACKGROUND_LEVEL, CLASS_LEVELS, CONTRAST_THRESHOLD,
                            Scene, SynthConfig, _reflect, _Shape, _span,
                            build_scene, make_samples, render_sequence)
from hess.voxel import voxelize

# (seed, SynthConfig fields, max_events, bins) -> sha256 of the bytes, dtype
# and shape of every frame, label map and event record of make_samples, and
# of the three prepare_batches arrays. 16x16 caps windows at 40 events and,
# with one micro-step per frame, gives single-instant windows; the
# shapeless scene gives all-empty windows. 256x256x100 is the ingest
# geometry: 400 micro-steps in which three shapes bounce off a border.
DIGEST_CASES = {
    "16x16": (5, dict(width=16, height=16, num_shapes=2, frame_count=12,
                      micro_steps=1), 40, 3,
              "51bf532857e5f6d68e2eba199a6e511d0faac78f54ace315467fca28ed30ac4a"),
    "64x64": (11, dict(frame_count=10), 6400, 5,
              "b78e8b886e927d9816592a6b69ddcfebc9e16b4090cc05d9fed61b4fe5e62f7c"),
    "256x256": (23, dict(width=256, height=256, num_shapes=6, frame_count=3),
                6400, 5,
                "4786c04cf7b9a2a5bb5e68b1d09ef89c5aa35a4e5b6e1470af292e1e804ff80c"),
    "256x256x100": (29, dict(width=256, height=256, num_shapes=6, frame_count=100),
                    6400, 1,
                    "cfe43364efb3523a2d76e13d9c77e83c4164359f7ece4fde2f8437d8bbb6f3c9"),
    "empty": (2, dict(num_shapes=0, frame_count=3), 6400, 1,
              "52a183d19345be0bd4e6560aebe5311650eed88ef12aac993155bbc3b3d6c21a"),
}


def _update(h, a):
    h.update(f"{a.dtype}|{a.shape}|".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def data_digest(seed, fields, max_events, bins):
    samples = make_samples(seed, SynthConfig(**fields), max_events=max_events)
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.events.width}x{s.events.height}|{s.t_lo}|{s.t_hi}|".encode())
        for a in (s.frame, s.labels, s.events.events):
            _update(h, a)
    for a in prepare_batches(samples, bins):
        _update(h, a)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_data_bytes_pinned(case):
    *args, expected = DIGEST_CASES[case]
    assert data_digest(*args) == expected


def test_prepare_batches_matches_per_sample_reference():
    samples = make_samples(5, SynthConfig(width=16, height=16, num_shapes=2,
                                          frame_count=12, micro_steps=1), max_events=40)
    assert any(len(s.events) == 0 for s in samples)
    frames, voxels, labels = prepare_batches(samples, 3)
    for i, s in enumerate(samples):
        assert frames[i].tobytes() == (s.frame.astype(np.float64) / 255.0)[None].tobytes()
        assert labels[i].tobytes() == s.labels.astype(np.int64).tobytes()
        if len(s.events):
            t0, t1 = int(s.events.ts[0]), int(s.events.ts[-1])
            want = voxelize(s.events, 3, t0, t1 if t1 > t0 else t0 + 1)
        else:
            want = np.zeros((3, 16, 16))
        assert voxels[i].tobytes() == want.tobytes()


def test_scene_boxes_match_full_image_masks():
    # the per-shape row and column spans, computed for all times at once,
    # cover exactly the pixels of the full-image test
    # |yy - y| <= half_h & |xx - x| <= half_w, and so does the single-time
    # render
    cfg = SynthConfig(width=37, height=23, num_shapes=5, min_size=2, max_size=19)
    scene = build_scene(8, cfg)
    yy = np.arange(cfg.height)[:, None]
    xx = np.arange(cfg.width)[None, :]
    times = list(range(0, cfg.duration_us, 4321))
    boxes = scene._boxes(times)
    for t, img_at, lab_at in zip(times, scene._paint(boxes, "level"),
                                 scene._paint(boxes, "class_id"), strict=True):
        img = np.full((cfg.height, cfg.width), BACKGROUND_LEVEL)
        lab = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
        for s in scene.shapes:
            y = _reflect(s.y0 + s.vy * t, s.half_h, cfg.height - 1 - s.half_h)
            x = _reflect(s.x0 + s.vx * t, s.half_w, cfg.width - 1 - s.half_w)
            inside = (np.abs(yy - y) <= s.half_h) & (np.abs(xx - x) <= s.half_w)
            img[inside] = s.level
            lab[inside] = s.class_id
        assert img_at.tobytes() == img.tobytes()
        assert lab_at.tobytes() == lab.tobytes()
        assert scene.render(t).tobytes() == img.tobytes()
        assert scene.labels(t).tobytes() == lab.tobytes()


def render_sequence_full_image(scene, cfg):
    # the former render_sequence, frozen but for painting through
    # Scene.render / Scene.labels: paint the whole image at every
    # micro-step and difference all of its pixels
    total_steps = cfg.frame_count * cfg.micro_steps
    step_times = [int(round((m + 1) * cfg.duration_us / total_steps))
                  for m in range(total_steps)]
    frame_times = [step_times[(k + 1) * cfg.micro_steps - 1]
                   for k in range(cfg.frame_count)]

    xs, ys, ts, ps = [], [], [], []
    prev = scene.render(0)
    frames, labels = [], []
    for m, t in enumerate(step_times):
        cur = scene.render(t)
        diff = (cur - prev).ravel()
        fired = np.flatnonzero((diff > CONTRAST_THRESHOLD) | (diff < -CONTRAST_THRESHOLD))
        if len(fired):
            fy, fx = np.divmod(fired, cfg.width)
            xs.append(fx)
            ys.append(fy)
            ts.append(np.full(len(fired), t, dtype=np.int64))
            ps.append(np.sign(diff[fired]).astype(np.int64))
        prev = cur
        if (m + 1) % cfg.micro_steps == 0:
            gray = cur * 255
            frames.append(np.rint(gray, out=gray).astype(np.uint8))
            labels.append(scene.labels(t))

    if xs:
        stream = make_stream(cfg.width, cfg.height,
                             np.concatenate(xs), np.concatenate(ys),
                             np.concatenate(ts), np.concatenate(ps))
    else:
        stream = EventStream(cfg.width, cfg.height)
    return stream, frames, labels, frame_times


# levels on both sides of the contrast threshold around the background,
# equal to it, and exactly BACKGROUND_LEVEL +- CONTRAST_THRESHOLD
LEVELS = st.sampled_from(CLASS_LEVELS + (BACKGROUND_LEVEL, BACKGROUND_LEVEL + CONTRAST_THRESHOLD,
                                         BACKGROUND_LEVEL - CONTRAST_THRESHOLD)) | st.floats(0, 1)
# half sizes on and off the .5 grid; the last range holds sizes larger
# than the scene and negative ones (an empty box: SynthConfig rejects
# min_size < 0, so only a _Shape built by hand, as here, has one)
HALVES = st.floats(0, 10) | st.integers(0, 20).map(lambda k: k / 2) | st.floats(-6, 40)


@st.composite
def scenes(draw):
    cfg = SynthConfig(width=draw(st.integers(16, 40)), height=draw(st.integers(16, 40)),
                      duration_us=draw(st.sampled_from([1, 2, 7, 100, 100_000])),
                      frame_count=draw(st.integers(1, 8)), micro_steps=draw(st.integers(1, 5)))
    shapes = []
    for cls in range(1, draw(st.integers(0, 9)) + 1):
        # up to 4 px per frame along each axis
        vy, vx = (draw(st.floats(-4, 4)) * cfg.frame_count / cfg.duration_us for _ in range(2))
        shapes.append(_Shape(class_id=cls, level=draw(LEVELS),
                             half_h=draw(HALVES), half_w=draw(HALVES),
                             y0=draw(st.floats(-10, cfg.height + 10)),
                             x0=draw(st.floats(-10, cfg.width + 10)), vy=vy, vx=vx))
    return Scene(cfg, shapes)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scene=scenes())
def test_render_sequence_matches_full_image_differencing(scene):
    # shapes drifting, bouncing, overlapping, empty, or larger than the
    # scene and so pinned; repeated micro-step times when duration_us is
    # below the step count
    stream, frames, labels, times = render_sequence(scene)
    want_stream, want_frames, want_labels, want_times = render_sequence_full_image(
        scene, scene.config)
    assert (stream.width, stream.height) == (want_stream.width, want_stream.height)
    assert stream.events.dtype == want_stream.events.dtype
    assert stream.events.tobytes() == want_stream.events.tobytes()
    assert times == want_times
    for got, want in zip(frames + labels, want_frames + want_labels, strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def within(n, center, half):
    return [i for i in range(n) if abs(i - center) <= half]


def assert_spans_exact(n, centers, halves):
    # the slices cover exactly the i in [0, n) with |i - center| <= half
    start, stop = _span(n, centers, halves)
    i = np.arange(n)
    want = np.abs(i - centers[:, None]) <= np.asarray(halves)[..., None]
    assert ((i >= start[:, None]) & (i < stop[:, None]) == want).all()


@pytest.mark.parametrize("center, half", [(3.0, 2.0), (3.5, 0.4), (0.0, 1.0),
                                          (7.9, 0.5), (5.0, 0.0), (2.5, 100.0)])
def test_span_is_the_set_of_indices_within_half(center, half):
    start, stop = _span(8, np.array([center]), half)
    assert list(range(8)[start[0]:stop[0]]) == within(8, center, half)


def test_span_at_rounding_edges():
    # centers a few ulps from k -/+ half, where center -/+ half rounds onto
    # or across the integer k and the ceil / floor start is off by one
    g = np.random.default_rng(9)
    k = g.integers(-5, 45, 100_000)
    halves = np.concatenate([g.uniform(0, 30, 50_000), g.integers(0, 60, 50_000) / 2])
    centers = k + g.choice([-1.0, 1.0], k.size) * halves
    for _ in range(3):
        centers = np.nextafter(centers, centers + g.integers(-1, 2, k.size))
    assert_spans_exact(40, centers, halves)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40),
       pairs=st.lists(st.tuples(st.floats(-30, 70) | st.integers(-30, 70).map(lambda k: k + 0.5),
                                st.floats(0, 30) | st.integers(0, 60).map(lambda k: k / 2)),
                      min_size=1, max_size=50))
def test_span_over_many_centers_is_the_exact_predicate(n, pairs):
    # one call over many times: centers off the grid, on .5 and outside
    # [0, n); spans that are empty, clipped or cover everything
    centers, halves = map(np.array, zip(*pairs))
    assert_spans_exact(n, centers, halves)


def reflect_scalar(pos, lo, hi):
    # the per-time formula, in Python floats
    if hi <= lo:
        return lo
    span = hi - lo
    z = (pos - lo) % (2.0 * span)
    return lo + (z if z <= span else 2.0 * span - z)


@pytest.mark.parametrize("lo, hi", [(2.5, 17.25), (4.0, 4.0), (6.0, 3.5)])
def test_reflect_matches_the_scalar_formula(lo, hi):
    pos = np.random.default_rng(4).uniform(-300, 300, 500)
    pos[:4] = [lo, hi, 2 * hi - lo, lo - (hi - lo)]
    got = _reflect(pos, lo, hi)
    want = [reflect_scalar(p, lo, hi) for p in pos.tolist()]
    assert got.tobytes() == np.array(want).tobytes()
    if hi <= lo:
        assert (got == lo).all()


def test_voxelize_accumulates_into_out():
    samples = make_samples(11, SynthConfig(frame_count=3))
    stream = samples[1].events
    t0, t1 = int(stream.ts[0]), int(stream.ts[-1])
    fresh = voxelize(stream, 4, t0, t1)
    out = np.full((4, 64, 64), 0.5)
    assert voxelize(stream, 4, t0, t1, out=out) is out
    assert np.array_equal(out - 0.5, fresh)
    batch = np.zeros((2, 4, 64, 64))
    voxelize(stream, 4, t0, t1, out=batch[1])
    assert not batch[0].any() and batch[1].tobytes() == fresh.tobytes()


@pytest.mark.parametrize("out", [np.zeros((4, 64, 63)), np.zeros((3, 64, 64)),
                                 np.zeros((4, 64, 64), np.float32),
                                 np.zeros((4, 64, 128))[..., ::2]])
def test_voxelize_rejects_a_mismatched_out(out):
    stream = make_samples(11, SynthConfig(frame_count=3))[1].events
    with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
        voxelize(stream, 4, 0, 100_000, out=out)
