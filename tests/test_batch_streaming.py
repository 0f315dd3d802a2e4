"""train, run_eval and profile prepare one batch at a time.

Each pins two things: prepare_batches never sees more than one batch, and
every number equals the former algorithm's, which prepared the whole split
once and then indexed it."""

import numpy as np
import pytest

from hess import energy, harness, optim
from hess.energy import profile
from hess.events import EventStream
from hess.harness import run_eval
from hess.imgio import colorize_labels, read_pgm, read_ppm
from hess.metrics import confusion, metrics
from hess.network import NetworkConfig, build, forward, predict, save_checkpoint
from hess.ops import cross_entropy
from hess.optim import AdamW, TrainConfig, lr_at, prepare_batches, train
from hess.synthetic import SynthConfig, make_samples
from hess.tensor import using_dtype
from hess.voxel import voxelize

NET = dict(scales=((2, 4), (4, 8)), bins=2, timesteps=2, k_points=2,
           adaptor_ratio=2, num_classes=3)


def split(seed=2, n=7):
    # 7 samples and batch 3: batches wrap round the shuffled order
    cfg = SynthConfig(width=16, height=16, frame_count=n, num_shapes=2,
                      min_size=5, max_size=9, duration_us=20_000)
    return make_samples(seed, cfg)


def without_events(samples):
    """The same samples with empty event windows."""
    for s in samples:
        s.events = EventStream(s.events.width, s.events.height)
    return samples


def net_for(dtype, seed=1):
    with using_dtype(dtype):
        return build(NetworkConfig(seed=seed, **NET))


def train_cfg(flip):
    return TrainConfig(learning_rate=2e-3, total_iterations=6, warmup_iterations=2,
                       batch_size=3, seed=5, augment_flip=flip)


def train_whole_split(net, samples, cfg):
    """The former train loop: prepare every sample, then index each batch."""
    frames, voxels, labels = prepare_batches(samples, net.config.bins)
    order = np.random.default_rng(cfg.seed).permutation(len(samples))
    aug_rng = np.random.default_rng(cfg.seed + 0x5E5)
    optimizer = AdamW(net.params, weight_decay=cfg.weight_decay)
    losses = np.zeros(cfg.total_iterations)
    for it in range(cfg.total_iterations):
        idx = order[[(it * cfg.batch_size + j) % len(samples)
                     for j in range(cfg.batch_size)]]
        f, v, l = frames[idx], voxels[idx], labels[idx]
        if cfg.augment_flip:
            flip = aug_rng.random(len(idx)) < 0.5
            f = np.where(flip[:, None, None, None], f[..., ::-1], f)
            v = np.where(flip[:, None, None, None], v[..., ::-1], v)
            l = np.where(flip[:, None, None], l[..., ::-1], l)
        net.zero_grad()
        out = cross_entropy(forward(net, f, v), l)
        losses[it] = out.item()
        out.backward()
        optimizer.step(lr_at(cfg, it))
    return losses


@pytest.fixture
def prepared(monkeypatch):
    """Every batch handed to prepare_batches, through any of the three
    namespaces that call it."""
    batches = []

    def counting(samples, bins):
        batches.append([id(s) for s in samples])
        return prepare_batches(samples, bins)

    for module in (optim, harness, energy):
        monkeypatch.setattr(module, "prepare_batches", counting)
    return batches


def test_train_prepares_each_step_batch_in_shuffled_order(prepared):
    samples = split()
    cfg = train_cfg(flip=False)
    train(net_for(np.float64), samples, cfg)
    order = np.random.default_rng(cfg.seed).permutation(len(samples))
    visits = [id(samples[i]) for i in np.resize(order, cfg.total_iterations * cfg.batch_size)]
    assert len(prepared) == cfg.total_iterations
    assert all(len(b) == cfg.batch_size for b in prepared)
    assert [s for b in prepared for s in b] == visits


def test_run_eval_prepares_one_batch_at_a_time(prepared, monkeypatch):
    samples = split()
    monkeypatch.setattr(harness, "EVAL_BATCH", 3)
    run_eval(net_for(np.float64), samples)
    assert [len(b) for b in prepared] == [3, 3, 1]
    assert [s for b in prepared for s in b] == [id(s) for s in samples]


def test_profile_prepares_one_sample_at_a_time(prepared):
    samples = split(n=3)
    profile(net_for(np.float64), samples)
    assert prepared == [[id(s)] for s in samples]


@pytest.mark.parametrize("with_events", [True, False])
def test_profile_voxelizes_only_when_events_run(monkeypatch, with_events):
    # a sample whose event window is empty keeps its zero grid unbinned
    samples = split(n=3) if with_events else without_events(split(n=3))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return voxelize(*args, **kwargs)

    monkeypatch.setattr(optim, "voxelize", counting)
    profile(net_for(np.float64), samples)
    assert [id(e) for e in calls] == ([id(s.events) for s in samples] if with_events else [])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("flip", [False, True])
def test_train_matches_the_whole_split_algorithm(tmp_path, dtype, flip):
    samples = split()
    cfg = train_cfg(flip)
    streamed, whole = net_for(dtype), net_for(dtype)
    with using_dtype(dtype):
        _, losses = train(streamed, samples, cfg)
        want = train_whole_split(whole, samples, cfg)
    assert losses.tobytes() == want.tobytes()
    save_checkpoint(streamed, tmp_path / "streamed.hess")
    save_checkpoint(whole, tmp_path / "whole.hess")
    assert (tmp_path / "streamed.hess").read_bytes() == (tmp_path / "whole.hess").read_bytes()


def test_run_eval_matches_the_whole_split_algorithm(tmp_path, monkeypatch):
    samples = split()
    net = net_for(np.float64)
    frames, voxels, labels = prepare_batches(samples, net.config.bins)
    preds = np.concatenate([predict(net, frames[lo:lo + 3], voxels[lo:lo + 3])
                            for lo in range(0, len(samples), 3)])
    accuracy, iou, miou = metrics(confusion(preds, labels, 3))
    monkeypatch.setattr(harness, "EVAL_BATCH", 3)
    report = run_eval(net, samples, out_dir=tmp_path)
    assert report == {"samples": len(samples), "accuracy": accuracy,
                      "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
                      "miou": miou}
    for i, p in enumerate(preds):
        assert read_pgm(tmp_path / f"pred_{i:04d}.pgm").tobytes() == p.astype(np.uint8).tobytes()
        assert read_ppm(tmp_path / f"pred_{i:04d}.ppm").tobytes() == colorize_labels(p).tobytes()


@pytest.mark.parametrize("with_events", [True, False])
def test_profile_matches_the_whole_split_algorithm(monkeypatch, with_events):
    # the reduction over per-sample counts is unchanged, so the former
    # algorithm is profile fed rows of the whole-split arrays; the test above
    # pins that each sample is visited once, in order
    samples = split(n=3) if with_events else without_events(split(n=3))
    net = net_for(np.float64)
    streamed = profile(net, samples)
    frames, voxels, labels = prepare_batches(samples, net.config.bins)
    row = {id(s): i for i, s in enumerate(samples)}

    def indexed(batch, bins):
        i = row[id(batch[0])]
        return frames[i:i + 1], voxels[i:i + 1], labels[i:i + 1]

    monkeypatch.setattr(energy, "prepare_batches", indexed)
    assert streamed == profile(net, samples)
    assert any(l.macs for l in streamed.layers)


@pytest.mark.parametrize("field", ["frame", "labels"])
@pytest.mark.parametrize("run", [
    lambda net, samples: train(net, samples, train_cfg(flip=False)),
    lambda net, samples: run_eval(net, samples),
    lambda net, samples: profile(net, samples)], ids=["train", "run_eval", "profile"])
def test_a_mixed_shape_split_is_rejected_before_any_work(monkeypatch, field, run):
    samples = split()
    last = samples[-1]
    setattr(last, field, np.zeros((8, 8), getattr(last, field).dtype))
    steps = []
    monkeypatch.setattr(optim.AdamW, "step", lambda self, lr: steps.append(lr))
    monkeypatch.setattr(harness, "EVAL_BATCH", 3)   # the bad sample is in a later batch
    monkeypatch.setattr(optim, "prepare_batches", None)
    monkeypatch.setattr(harness, "prepare_batches", None)
    monkeypatch.setattr(energy, "prepare_batches", None)
    with pytest.raises(ValueError, match=f"samples differ in {field} shape"):
        run(net_for(np.float64), samples)
    assert steps == []
