"""AdamW with a warmup + polynomial-decay schedule, and the training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import HybridNetwork, forward
# train calls the loss through this module global, so a caller can wrap it
from .ops import cross_entropy as loss
from .voxel import voxelize


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    total_iterations: int = 2000
    warmup_iterations: int = 100
    poly_power: float = 0.9
    batch_size: int = 4
    seed: int = 0
    augment_flip: bool = False   # random horizontal flip per visit

    def __post_init__(self):
        for key in ("learning_rate", "weight_decay", "poly_power"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value!r}")
        if self.total_iterations < 1:
            raise ValueError(f"total_iterations must be >= 1, got {self.total_iterations!r}")
        if self.warmup_iterations < 0:
            raise ValueError(f"warmup_iterations must be >= 0, got {self.warmup_iterations!r}")
        if self.warmup_iterations > self.total_iterations:
            raise ValueError("warmup must not exceed total iterations")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


def lr_at(cfg: TrainConfig, iteration):
    """base * iter/warmup while warming up, then poly decay
    base * (1 - iter/total)^power."""
    base = cfg.learning_rate
    if cfg.warmup_iterations and iteration < cfg.warmup_iterations:
        return base * iteration / cfg.warmup_iterations
    return base * (1.0 - iteration / cfg.total_iterations) ** cfg.poly_power


class AdamW:
    """Decoupled weight-decay Adam."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict, weight_decay=0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data -= lr * (update + self.weight_decay * p.data)

    def state(self):
        return {"step": self.step_count, "m": self.m, "v": self.v}


def prepare_frames(samples):
    """Frames (N, 1, H, W) in [0, 1], the frame part of prepare_batches."""
    return np.stack([s.frame for s in samples])[:, None] / 255.0


def prepare_batches(samples, bins):
    """Frames (N, 1, H, W) in [0, 1], raw voxels (N, B, H, W), each binned
    into the batch over its own events' span, and int64 labels (N, H, W).

    Each sample's arrays depend on that sample alone, so train, run_eval
    and profile call this on one batch at a time and hold no more."""
    frames = prepare_frames(samples)
    labels = np.stack([s.labels for s in samples]).astype(np.int64)
    voxels = np.zeros((len(samples), bins) + frames.shape[2:])
    for s, grid in zip(samples, voxels):
        if len(s.events):
            voxelize(s.events, bins, out=grid)
    return frames, voxels, labels


def check_shapes(samples):
    """Raise ValueError unless all frames, and all label maps, share one
    shape; a split is checked whole before its first batch is prepared."""
    for name in ("frame", "labels"):
        shapes = {getattr(s, name).shape for s in samples}
        if len(shapes) > 1:
            raise ValueError(f"samples differ in {name} shape: {sorted(shapes)}")


def train(net: HybridNetwork, samples, cfg: TrainConfig, log_every=0):
    """Train in place; returns (net, per-iteration loss array).

    Batches follow one seeded shuffle of the dataset, then cycle in that
    fixed order, so runs are bit-reproducible for fixed seeds. Each step
    prepares only its own batch_size samples: memory grows with the batch,
    not with the dataset.
    """
    if not samples:
        raise ValueError("empty training dataset")
    if log_every < 0:
        raise ValueError(f"log_every must be >= 0, got {log_every!r}")
    check_shapes(samples)
    order = np.random.default_rng(cfg.seed).permutation(len(samples))
    aug_rng = np.random.default_rng(cfg.seed + 0x5E5)
    optimizer = AdamW(net.params, weight_decay=cfg.weight_decay)
    losses = np.zeros(cfg.total_iterations)
    cursor = 0
    for it in range(cfg.total_iterations):
        idx = order[[(cursor + j) % len(samples) for j in range(cfg.batch_size)]]
        cursor = (cursor + cfg.batch_size) % len(samples)
        f, v, l = prepare_batches([samples[i] for i in idx], net.config.bins)
        if cfg.augment_flip:
            flip = aug_rng.random(len(idx)) < 0.5
            f = np.where(flip[:, None, None, None], f[..., ::-1], f)
            v = np.where(flip[:, None, None, None], v[..., ::-1], v)
            l = np.where(flip[:, None, None], l[..., ::-1], l)
        net.zero_grad()
        logits = forward(net, f, v)
        out = loss(logits, l)
        value = out.item()
        if not np.isfinite(value):
            raise FloatingPointError(
                f"non-finite loss {value} at iteration {it}; aborting")
        out.backward()
        optimizer.step(lr_at(cfg, it))
        losses[it] = value
        if log_every and (it + 1) % log_every == 0:
            recent = losses[max(0, it - log_every + 1):it + 1].mean()
            print(f"iter {it + 1:5d}/{cfg.total_iterations}  "
                  f"loss {recent:.4f}  lr {lr_at(cfg, it):.5f}")
    return net, losses
