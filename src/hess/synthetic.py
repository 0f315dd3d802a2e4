"""Synthetic moving-shapes scenes: frames, label maps and event streams.

Rectangles with class-specific gray levels drift over a constant
background and bounce off the borders. Events are produced by differencing
consecutive micro-step renderings: a pixel whose normalized intensity
changes by more than the contrast threshold fires one event with the sign
of the change. Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .events import EventStream, make_stream, read_events, write_events
from .imgio import read_pgm, write_pgm

BACKGROUND_LEVEL = 0.45
CONTRAST_THRESHOLD = 0.15
# gray levels assigned to class ids 1, 2, ... (cycled); all at least 0.2
# away from the background so edges always clear the contrast threshold
CLASS_LEVELS = (0.85, 0.10, 0.70, 0.25, 0.95)
# (value, dtype) of the pixels no shape covers, per painted shape attribute
_BACKGROUND = {"level": (BACKGROUND_LEVEL, np.float64), "class_id": (0, np.uint8)}


@dataclass
class SynthConfig:
    width: int = 64
    height: int = 64
    duration_us: int = 100_000
    num_shapes: int = 3
    num_classes: int = 3
    frame_count: int = 50
    micro_steps: int = 4          # event-sampling substeps per frame interval
    min_size: int = 10
    max_size: int = 22

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise ValueError("scene geometry must be at least 16x16")
        if self.num_classes < 2:
            raise ValueError("need at least background plus one shape class")
        if self.frame_count < 1 or self.micro_steps < 1:
            raise ValueError("frame_count and micro_steps must be >= 1")


@dataclass
class _Shape:
    class_id: int
    level: float
    half_h: float
    half_w: float
    y0: float
    x0: float
    vy: float      # px per microsecond
    vx: float


@dataclass
class Scene:
    config: SynthConfig
    shapes: list[_Shape] = field(default_factory=list)

    def render(self, t):
        """Normalized grayscale image at time t (float in [0, 1])."""
        return self._paint(self._boxes([t])[0], "level")

    def labels(self, t):
        """Class-id map at time t (background is 0)."""
        return self._paint(self._boxes([t])[0], "class_id")

    def _boxes(self, times):
        """Per time, per shape, the (row start, row stop, column start,
        column stop) of the pixels (i, j) with |i - y| <= half_h and
        |j - x| <= half_w around the shape's center (y, x) at that time."""
        cfg = self.config
        t = np.asarray(times)[None, :]
        rows = [(s.y0, s.x0, s.vy, s.vx, s.half_h, s.half_w) for s in self.shapes]
        y0, x0, vy, vx, half_h, half_w = np.array(rows).reshape(-1, 6).T[..., None]
        y = _reflect(y0 + vy * t, half_h, (cfg.height - 1) - half_h)
        x = _reflect(x0 + vx * t, half_w, (cfg.width - 1) - half_w)
        bounds = (*_span(cfg.height, y, half_h), *_span(cfg.width, x, half_w))
        return np.stack(bounds, axis=-1).transpose(1, 0, 2).tolist()

    def _paint(self, boxes, attr):
        """Each shape's ``attr`` on its box over the background's, later
        shapes on top."""
        cfg = self.config
        img = np.full((cfg.height, cfg.width), *_BACKGROUND[attr])
        for (r0, r1, c0, c1), s in zip(boxes, self.shapes):
            img[r0:r1, c0:c1] = getattr(s, attr)
        return img


def _span(n, center, half):
    """(start, stop) of the indices i in [0, n) with |i - center| <= half,
    in float64, elementwise over arrays of centers (stop <= start when
    there are none). The rounded i - center grows with i, so they are
    consecutive: the bounds start from ceil / floor of center -/+ half and
    step until that exact test holds at both ends."""
    def inside(i):
        return np.abs(i - center) <= half

    lo = np.clip(np.ceil(center - half), 0, n).astype(np.int64)
    hi = np.clip(np.floor(center + half), -1, n - 1).astype(np.int64)
    while np.any(step := (lo > 0) & inside(lo - 1)):
        lo -= step
    while np.any(step := (lo <= hi) & ~inside(lo)):
        lo += step
    while np.any(step := (hi < n - 1) & inside(hi + 1)):
        hi += step
    while np.any(step := (hi >= lo) & ~inside(hi)):
        hi -= step
    return lo, hi + 1


def _reflect(pos, lo, hi):
    """pos bounced back and forth inside [lo, hi], elementwise; lo if hi <= lo."""
    # any positive span keeps the lanes that return lo finite
    span = np.where(hi > lo, hi - lo, 1.0)
    z = np.remainder(pos - lo, 2.0 * span)
    return np.where(hi > lo, lo + np.where(z <= span, z, 2.0 * span - z), lo)


def build_scene(seed, config: SynthConfig) -> Scene:
    g = np.random.default_rng(seed)
    scene = Scene(config)
    us_per_frame = config.duration_us / config.frame_count
    # shapes must fit the scene with room to move
    hi = min(config.max_size, min(config.width, config.height) - 6)
    lo = min(config.min_size, hi)
    for i in range(config.num_shapes):
        cls = 1 + i % (config.num_classes - 1)
        half_h = g.uniform(lo, hi) / 2.0
        half_w = g.uniform(lo, hi) / 2.0
        y0 = g.uniform(half_h, config.height - 1 - half_h)
        x0 = g.uniform(half_w, config.width - 1 - half_w)
        # 0.5 .. 1.5 px per frame, random direction
        speed = g.uniform(0.5, 1.5) / us_per_frame
        angle = g.uniform(0, 2 * np.pi)
        scene.shapes.append(_Shape(
            class_id=cls,
            level=CLASS_LEVELS[(cls - 1) % len(CLASS_LEVELS)],
            half_h=half_h, half_w=half_w, y0=y0, x0=x0,
            vy=speed * np.sin(angle), vx=speed * np.cos(angle)))
    return scene


def gen_synthetic(seed, config: SynthConfig):
    """Scene from seed -> (event stream, frames, label maps, frame times)."""
    return render_sequence(build_scene(seed, config), config)


def render_sequence(scene: Scene, config: SynthConfig):
    """Render a scene: (event stream, frames, label maps, frame timestamps).

    Frames are uint8 renderings at uniform timestamps k/frame_count *
    duration (k = 1..frame_count); events come from micro-step
    differencing between them.
    """
    cfg = config
    total_steps = cfg.frame_count * cfg.micro_steps
    step_times = [int(round((m + 1) * cfg.duration_us / total_steps))
                  for m in range(total_steps)]
    frame_times = [step_times[(k + 1) * cfg.micro_steps - 1]
                   for k in range(cfg.frame_count)]

    boxes = scene._boxes([0, *step_times])
    xs, ys, ts, ps = [], [], [], []
    prev = scene._paint(boxes[0], "level")
    frames, labels = [], []
    for m, t in enumerate(step_times):
        cur = scene._paint(boxes[m + 1], "level")
        diff = (cur - prev).ravel()
        # |diff| > threshold, without an image-sized abs temporary
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
            labels.append(scene._paint(boxes[m + 1], "class_id"))

    if xs:
        stream = make_stream(cfg.width, cfg.height,
                             np.concatenate(xs), np.concatenate(ys),
                             np.concatenate(ts), np.concatenate(ps))
    else:
        stream = EventStream(cfg.width, cfg.height)
    return stream, frames, labels, frame_times


# -- dataset assembly --------------------------------------------------------


@dataclass
class SegSample:
    """One training/eval record: a frame, its label map and the event
    window that precedes the frame."""

    frame: np.ndarray          # (H, W) uint8
    labels: np.ndarray         # (H, W) uint8 class ids
    events: EventStream
    t_lo: int
    t_hi: int


def make_samples(seed, config: SynthConfig, max_events=6400):
    """Generate a scene and cut one sample per frame.

    Each sample's window is the inter-frame interval, capped at the most
    recent max_events events.
    """
    stream, frames, labels, frame_times = gen_synthetic(seed, config)
    edges = [0, *frame_times]
    ts = stream.events["t"]
    stops = np.searchsorted(ts, np.array(edges, ts.dtype), side="right").tolist()
    return [SegSample(frames[k], labels[k],
                      stream.slice(max(stops[k], stops[k + 1] - max_events), stops[k + 1]),
                      edges[k], edges[k + 1])
            for k in range(len(frame_times))]


def save_dataset(samples, out_dir, meta=None):
    os.makedirs(out_dir, exist_ok=True)
    for i, s in enumerate(samples):
        write_pgm(s.frame, os.path.join(out_dir, f"frame_{i:04d}.pgm"))
        write_pgm(s.labels, os.path.join(out_dir, f"label_{i:04d}.pgm"))
        write_events(s.events, os.path.join(out_dir, f"events_{i:04d}.evt1"))
    info = {"samples": len(samples),
            "height": int(samples[0].frame.shape[0]) if samples else 0,
            "width": int(samples[0].frame.shape[1]) if samples else 0,
            "windows": [[int(s.t_lo), int(s.t_hi)] for s in samples]}
    if meta:
        info.update(meta)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(info, f, indent=1)


def load_dataset(in_dir):
    """(samples, meta) from a save_dataset directory. meta.json must be an
    object with an int "samples" >= 0 and that many [int, int] "windows";
    otherwise a ValueError names the file."""
    path = os.path.join(in_dir, "meta.json")
    with open(path) as f:
        try:
            info = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    _check_meta(info, path)
    samples = []
    for i, (t_lo, t_hi) in enumerate(info["windows"]):
        frame = read_pgm(os.path.join(in_dir, f"frame_{i:04d}.pgm"))
        labels = read_pgm(os.path.join(in_dir, f"label_{i:04d}.pgm"))
        events = read_events(os.path.join(in_dir, f"events_{i:04d}.evt1"))
        samples.append(SegSample(frame, labels, events, t_lo, t_hi))
    return samples, info


def _check_meta(info, path):
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    if not isinstance(info, dict):
        raise ValueError(f"{path}: must be a JSON object")
    count = info.get("samples")
    if not is_int(count) or count < 0:
        raise ValueError(f"{path}: 'samples' must be an integer >= 0, got {count!r}")
    windows = info.get("windows")
    if not isinstance(windows, list) or len(windows) != count:
        raise ValueError(f"{path}: 'windows' must be a list of {count} [t_lo, t_hi] pairs")
    for i, win in enumerate(windows):
        if not (isinstance(win, list) and len(win) == 2 and all(map(is_int, win))):
            raise ValueError(f"{path}: window {i} must be [int, int], got {win!r}")
