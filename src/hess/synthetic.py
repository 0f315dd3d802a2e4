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
from .metrics import IGNORE_INDEX

BACKGROUND_LEVEL = 0.45
CONTRAST_THRESHOLD = 0.15
# gray levels assigned to class ids 1, 2, ... (cycled); all at least 0.2
# away from the background so edges always clear the contrast threshold
CLASS_LEVELS = (0.85, 0.10, 0.70, 0.25, 0.95)
# (value, dtype) of the pixels no shape covers, per painted shape attribute
_BACKGROUND = {"level": (BACKGROUND_LEVEL, np.float64), "class_id": (0, np.uint8),
               "gray": (np.rint(BACKGROUND_LEVEL * 255), np.uint8)}


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
        if not 2 <= self.num_classes <= IGNORE_INDEX:   # uint8 ids, all below it
            raise ValueError(f"num_classes must lie in 2..{IGNORE_INDEX} (background "
                             f"plus shape classes), got {self.num_classes}")
        if self.frame_count < 1 or self.micro_steps < 1:
            raise ValueError("frame_count and micro_steps must be >= 1")
        if self.duration_us < 1:
            raise ValueError(f"duration_us must be >= 1, got {self.duration_us}")
        if self.num_shapes < 0:
            raise ValueError(f"num_shapes must be >= 0, got {self.num_shapes}")
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError(f"min_size {self.min_size} must lie in 1..max_size ({self.max_size})")


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

    @property
    def gray(self):     # the level as a uint8 frame pixel
        return np.rint(self.level * 255)


@dataclass
class Scene:
    config: SynthConfig
    shapes: list[_Shape] = field(default_factory=list)

    def render(self, t):
        """Normalized grayscale image at time t (float in [0, 1])."""
        return self._paint(self._boxes([t]), "level")[0]

    def labels(self, t):
        """Class-id map at time t (background is 0)."""
        return self._paint(self._boxes([t]), "class_id")[0]

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
        return np.stack(bounds, axis=-1).transpose(1, 0, 2)

    def _paint(self, boxes, attr):
        """Per time of ``boxes``, each shape's ``attr`` on its box over the
        background's, later shapes on top."""
        cfg = self.config
        imgs = np.full((len(boxes), cfg.height, cfg.width), *_BACKGROUND[attr])
        values = [getattr(s, attr) for s in self.shapes]
        for img, row in zip(imgs, boxes.tolist()):
            for (r0, r1, c0, c1), v in zip(row, values):
                img[r0:r1, c0:c1] = v
        return imgs


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
    return render_sequence(build_scene(seed, config))


def render_sequence(scene: Scene):
    """Render a scene under its own config: (event stream, frames, label
    maps, frame timestamps).

    Frames are uint8 renderings at uniform timestamps k/frame_count *
    duration (k = 1..frame_count); events come from micro-step
    differencing between them, of the pixels where a shape's box moved (no
    other can change), in time, then row-major pixel order.
    """
    cfg = scene.config
    total_steps = cfg.frame_count * cfg.micro_steps
    step_times = [int(round((m + 1) * cfg.duration_us / total_steps))
                  for m in range(total_steps)]
    boxes = scene._boxes([0, *step_times])

    key = np.sort(_moved_pixels(boxes, cfg))
    step, pix = np.divmod(key[np.diff(key, prepend=-1) != 0], cfg.height * cfg.width)
    ys, xs = np.divmod(pix, cfg.width)
    diff = _levels(scene, boxes, step + 1, ys, xs) - _levels(scene, boxes, step, ys, xs)
    fired = (diff > CONTRAST_THRESHOLD) | (diff < -CONTRAST_THRESHOLD)
    stream = make_stream(cfg.width, cfg.height, xs[fired], ys[fired],
                         np.array(step_times, np.int64)[step[fired]],
                         np.sign(diff[fired]).astype(np.int64))

    frames, labels = (list(scene._paint(boxes[cfg.micro_steps::cfg.micro_steps], attr))
                      for attr in ("gray", "class_id"))
    return stream, frames, labels, step_times[cfg.micro_steps - 1::cfg.micro_steps]


def _moved_pixels(boxes, cfg):
    """Keys (m * height + row) * width + col, repeats included, of pixels
    covering every one that enters or leaves a shape's box between
    boxes[m] and boxes[m + 1]: per shape, the row bands swept by its top
    and bottom edges across its column hull and the column bands swept by
    its left and right edges down its row hull."""
    lo, hi = np.minimum(boxes[:-1], boxes[1:]), np.maximum(boxes[:-1], boxes[1:])
    rows, cols = (lo[..., 0], hi[..., 1]), (lo[..., 2], hi[..., 3])
    # (row start, row stop, col start, col stop), each (4 bands, steps, shapes)
    r0, r1, c0, c1 = np.stack([[lo[..., 0], hi[..., 0], *cols], [lo[..., 1], hi[..., 1], *cols],
                               [*rows, lo[..., 2], hi[..., 2]], [*rows, lo[..., 3], hi[..., 3]]],
                              axis=1)
    width = np.maximum(c1 - c0, 0)
    n = (np.maximum(r1 - r0, 0) * width).ravel()
    at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    width = np.repeat(width.ravel(), n)
    first = (np.arange(len(lo))[:, None] * cfg.height + r0) * cfg.width + c0
    return np.repeat(first.ravel(), n) + at // width * cfg.width + at % width


def _levels(scene, boxes, at, ys, xs):
    """The level _paint gives pixel (ys[k], xs[k]) under boxes[at[k]]."""
    out = np.full(len(ys), BACKGROUND_LEVEL)
    for (r0, r1, c0, c1), s in zip(boxes.transpose(1, 2, 0), scene.shapes):
        out[(r0[at] <= ys) & (ys < r1[at]) & (c0[at] <= xs) & (xs < c1[at])] = s.level
    return out


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
    if max_events < 1:
        raise ValueError(f"max_events must be >= 1, got {max_events}")
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
