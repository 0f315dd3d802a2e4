"""The three workloads: train, infer and ingest.

Each is a closed loop with one client. Inputs come from the seed only; hess
receives the generated inputs. A workload returns a `Result` with its
end-to-end figures, the outputs it checked and, when traced, the tracer and
the indices of its timed units.

Why these three (see README.md for the metric map):

* train   - the tape backward, the bilinear-sampling scatter and AdamW run
            only here; it is most of the test suite's time.
* infer   - float64, no tape, no optimizer: a float32-only or backward-only
            change should leave it unmoved. Frames-only requests skip the
            spiking side and every fusion block.
* ingest  - event and image writes beside reads through events, imgio,
            synthetic and voxel, which the other workloads touch only in
            set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from hess import energy, harness, network, optim, synthetic, tensor

# set-ups timed per run: one before the timed loop, the rest spread over it;
# fewer on ingest, whose set-up is a whole pass
SETUP_REPS = dict(train=25, infer=25, ingest=9)
BINS = network.NetworkConfig().bins

# train: test_08's geometry; the first WARMUP_STEPS step intervals are not
# timed; the loss checks and train_loss_final use the first COUNT_STEPS
# steps, a fixed prefix, so they repeat exactly for a seed.
TRAIN_DATA = dict(width=64, height=64, frame_count=200)
WARMUP_STEPS = 3
COUNT_STEPS = 60
# infer: the held-out split; one round is every request kind over it.
INFER_DATA = dict(width=64, height=64, frame_count=50)
# ingest: sensor-like scenes, cycled so each seed averages several scenes.
INGEST_DATA = dict(width=256, height=256, num_shapes=6, frame_count=100)
INGEST_SCENES = 6


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    samples: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: object = None
    timed_units: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)   # own wall time of each timed unit

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def latency_ms(self, q):
        return float(np.percentile(np.asarray(self.latencies_s) * 1e3, q))


def _seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class _Setups:
    """Times a workload's set-up ``reps`` times into ``result.setup_s``.

    The first set-up runs before the timed loop and its state is the one the
    loop uses; the others run between timed units, evenly spread over the
    loop's window, and their state is dropped. The machine's speed drifts
    over seconds, so set-ups timed in one burst would all see one moment's
    speed. A traced run times only the first.
    """

    def __init__(self, result, setup, seconds, reps, traced):
        self.result, self.setup, self.seconds = result, setup, seconds
        self.reps = 1 if traced else reps
        self.window_start = None

    def run(self):
        t = time.perf_counter()
        state = self.setup()
        self.result.setup_s.append(time.perf_counter() - t)
        return state

    def start(self, now):
        """The timed window opens at now."""
        self.window_start = now

    def due(self, now):
        """Run one set-up if the next is due by now; True when one ran."""
        done = len(self.result.setup_s)
        if (self.window_start is None or done >= self.reps
                or now < self.window_start + done * self.seconds / self.reps):
            return False
        self.run()
        return True

    def finish(self):
        while len(self.result.setup_s) < self.reps:
            self.run()


@contextmanager
def _traced(result, tracer):
    """Install tracer (when given) for the block and keep it on result."""
    result.tracer = tracer
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.end_unit()
        tracer.uninstall()


def _events_per_sample(samples):
    return float(np.mean([len(s.events) for s in samples]))


# -- train -------------------------------------------------------------------


class _Stop(Exception):
    """Raised from the AdamW.step hook once the run has measured enough."""


def train(seed, seconds, workdir, tracer=None):
    data_seed, net_seed = _seeds(seed, 2)
    r = Result()

    # optim.train prepares its own batches before its first (warm-up) step
    def setup():
        samples = synthetic.make_samples(data_seed, synthetic.SynthConfig(**TRAIN_DATA))
        with tensor.using_dtype(np.float32):
            net = network.build(network.NetworkConfig(seed=net_seed % 2**31))
        return samples, net

    setups = _Setups(r, setup, seconds, SETUP_REPS["train"], tracer is not None)
    with _traced(r, tracer):
        samples, net = setups.run()
        cfg = optim.TrainConfig(batch_size=4, seed=net_seed % 2**31)
        returns, losses, tape = [], [], []
        holds_setup = set()   # k: a set-up ran between step returns k and k+1
        deadline = math.inf
        orig_step, orig_loss = optim.AdamW.step, optim.loss

        def loss_hook(*args, **kwargs):
            out = orig_loss(*args, **kwargs)
            losses.append(out.item())
            tape.append(len(tensor._tape.records))
            return out

        def step_hook(self, lr):
            nonlocal deadline
            orig_step(self, lr)
            now = time.perf_counter()
            returns.append(now)
            if len(returns) == WARMUP_STEPS + 1:
                deadline = now + seconds
                setups.start(now)
            if tracer is not None:
                tracer.begin_unit()
            if len(losses) >= COUNT_STEPS and now >= deadline:
                raise _Stop
            if setups.due(now):
                holds_setup.add(len(returns) - 1)

        optim.AdamW.step, optim.loss = step_hook, loss_hook
        try:
            with tensor.using_dtype(np.float32):
                optim.train(net, samples, cfg)
        except _Stop:
            pass
        finally:
            optim.AdamW.step, optim.loss = orig_step, orig_loss
        setups.finish()

    intervals = [returns[k + 1] - returns[k] for k in range(WARMUP_STEPS, len(returns) - 1)
                 if k not in holds_setup]
    r.latencies_s = intervals
    r.samples = cfg.batch_size * len(intervals)
    r.busy_s = float(sum(intervals))
    # unit k spans step return k to k+1 (a traced run times no extra set-ups)
    r.timed_units = list(range(WARMUP_STEPS, len(returns) - 1))
    r.unit_s = intervals
    for i, value in enumerate(losses):
        r.check(math.isfinite(value), f"train: loss {value} at step {i}")
    prefix = np.asarray(losses[:COUNT_STEPS])
    r.check(prefix[:10].mean() > prefix[-10:].mean(),
            "train: loss did not fall over the first "
            f"{COUNT_STEPS} steps ({prefix[:10].mean():.4f} -> {prefix[-10:].mean():.4f})")
    r.counts["train_loss_final"] = float(prefix[-50:].mean())
    r.counts["tensor.tape_records"] = float(np.mean(tape[:COUNT_STEPS]))
    r.counts["events.per_sample"] = _events_per_sample(samples)
    r.info["loss_sha256"] = hashlib.sha256(prefix.tobytes()).hexdigest()[:16]
    r.info["steps"] = len(losses)
    r.info["losses"] = prefix
    r.info["tape"] = tape[:COUNT_STEPS]
    return r


# -- infer -------------------------------------------------------------------


def infer(seed, seconds, workdir, tracer=None):
    data_seed, net_seed = _seeds(seed, 2)
    ckpt = os.path.join(workdir, "net.ckpt")
    r = Result()

    def setup():
        samples = synthetic.make_samples(data_seed, synthetic.SynthConfig(**INFER_DATA))
        batches = optim.prepare_batches(samples, BINS)
        network.save_checkpoint(network.build(network.NetworkConfig(seed=net_seed % 2**31)), ckpt)
        net, _ = network.load_checkpoint(ckpt)
        return samples, batches, net

    setups = _Setups(r, setup, seconds, SETUP_REPS["infer"], tracer is not None)
    with _traced(r, tracer):
        samples, (frames, voxels, labels), net = setups.run()
        n = len(samples)
        num_classes = net.config.num_classes
        first = None
        rounds = []
        deadline = None
        while deadline is None or time.perf_counter() < deadline or len(rounds) < 3:
            if tracer is not None:
                tracer.begin_unit()
            t_round = time.perf_counter()
            b1, lat = [], []
            for i in range(n):
                t = time.perf_counter()
                b1.append(network.predict(net, frames[i:i + 1], voxels[i:i + 1]))
                lat.append(time.perf_counter() - t)
            fo_lat = []
            for i in range(n):
                t = time.perf_counter()
                fo = network.predict(net, frames[i:i + 1], None)
                fo_lat.append(time.perf_counter() - t)
                r.check(fo.shape == (1,) + labels.shape[1:] and fo.min() >= 0
                        and fo.max() < num_classes, f"infer: frames-only labels of sample {i}")
            t = time.perf_counter()
            report = harness.run_eval(net, samples)
            t_eval = time.perf_counter() - t
            prof = energy.profile(net, samples)
            t_prof = time.perf_counter() - t - t_eval
            elapsed = time.perf_counter() - t_round
            if tracer is not None:
                tracer.end_unit()
            if deadline is None:   # round 0 is warm-up
                now = time.perf_counter()
                deadline = now + seconds
                setups.start(now)
            else:
                r.latencies_s += lat
                r.samples += 4 * n
                r.busy_s += elapsed
                r.info.setdefault("frames_only_s", []).extend(fo_lat)
                r.info.setdefault("eval_s", []).append(t_eval)
                r.info.setdefault("profile_s", []).append(t_prof)
            rounds.append(elapsed)
            _check_infer_round(r, net, frames, voxels, labels, b1, report, prof,
                               len(rounds) - 1)
            counts = _energy_counts(prof)
            if first is None:
                first = counts
            r.check(counts == first, f"infer: energy counts of round {len(rounds) - 1} "
                    "differ from round 0")
            setups.due(time.perf_counter())
        setups.finish()
    r.counts.update(first)
    r.counts["events.per_sample"] = _events_per_sample(samples)
    r.timed_units = list(range(1, len(rounds)))
    r.unit_s = rounds[1:]
    r.info["rounds"] = len(rounds)
    r.info["eval_samples_per_s"] = n * len(r.info["eval_s"]) / sum(r.info["eval_s"])
    r.info["profile_samples_per_s"] = n * len(r.info["profile_s"]) / sum(r.info["profile_s"])
    return r


def _check_infer_round(r, net, frames, voxels, labels, b1, report, prof, k):
    num_classes = net.config.num_classes
    b1 = np.concatenate(b1)
    r.check(b1.shape == labels.shape and b1.min() >= 0 and b1.max() < num_classes,
            "infer: batch-1 label shape or range")
    b8 = np.concatenate([network.predict(net, frames[lo:lo + 8], voxels[lo:lo + 8])
                         for lo in range(0, len(frames), 8)])
    r.check(b8.tobytes() == b1.tobytes(),
            f"infer: batch-1 and batch-8 labels differ in round {k}")
    # batch-1 labels scored here must give run_eval's (batch-8) figures
    cm = np.bincount((labels * num_classes + b1).ravel(),
                     minlength=num_classes ** 2).reshape(num_classes, num_classes)
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    accuracy = float(tp.sum() / cm.sum())
    miou = float(np.mean(tp[present] / union[present]))
    r.check(math.isclose(accuracy, report["accuracy"], rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(miou, report["miou"], rel_tol=1e-12, abs_tol=1e-12),
            f"infer: batch-1 labels do not give run_eval's figures in round {k}")
    r.check(math.isclose(prof.e_total_mj, 4.6 * prof.gflops_ann + 0.9 * prof.gflops_snn,
                         rel_tol=1e-12),
            "infer: e_total_mj != 4.6*gflops_ann + 0.9*gflops_snn")
    # the loaded network is freshly built, so no events == an all-zero voxel
    i = k % len(frames)
    with tensor.no_grad():
        a = network.forward(net, frames[i:i + 1], None).data
        b = network.forward(net, frames[i:i + 1], np.zeros_like(voxels[i:i + 1])).data
    r.check(a.shape == b.shape and a.tobytes() == b.tobytes(),
            f"infer: frames-only output differs from zero-voxel output (sample {i})")


def _energy_counts(prof):
    counts = {f"energy.macs.{layer.name}": float(layer.macs) for layer in prof.layers}
    counts["energy.gflops_ann"] = float(prof.gflops_ann)
    counts["energy.gflops_snn"] = float(prof.gflops_snn)
    counts["energy.e_total_mj"] = float(prof.e_total_mj)
    return counts


# -- ingest ------------------------------------------------------------------


def ingest(seed, seconds, workdir, tracer=None):
    scenes = _seeds(seed, INGEST_SCENES)
    cfg = synthetic.SynthConfig(**INGEST_DATA)
    out_dir = os.path.join(workdir, "dataset")
    r = Result()

    def one_pass(scene):
        t0 = time.perf_counter()
        samples = synthetic.make_samples(scene, cfg)
        synthetic.save_dataset(samples, out_dir)
        t1 = time.perf_counter()
        loaded, _ = synthetic.load_dataset(out_dir)
        _, voxels, _ = optim.prepare_batches(loaded, BINS)
        t2 = time.perf_counter()
        return (t1 - t0, t2 - t1), samples, loaded, voxels

    def setup():   # one warm-up pass
        shutil.rmtree(out_dir, ignore_errors=True)
        one_pass(scenes[0])

    setups = _Setups(r, setup, seconds, SETUP_REPS["ingest"], tracer is not None)
    with _traced(r, tracer):
        setups.run()
        first = {}
        passes = 0
        gen_total = load_total = 0.0
        now = time.perf_counter()
        deadline = now + seconds
        setups.start(now)
        while time.perf_counter() < deadline or passes < INGEST_SCENES:
            scene = scenes[passes % INGEST_SCENES]
            shutil.rmtree(out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.begin_unit()
            (gen_s, load_s), samples, loaded, voxels = one_pass(scene)
            if tracer is not None:
                tracer.end_unit()
            elapsed = gen_s + load_s
            gen_total += gen_s
            load_total += load_s
            r.latencies_s.append(elapsed)
            r.samples += len(samples)
            r.busy_s += elapsed
            written = sum(e.stat().st_size for e in os.scandir(out_dir))
            counts = (written, _events_per_sample(samples))
            first.setdefault(scene, counts)
            r.check(_round_trips(samples, loaded, voxels) and counts == first[scene],
                    f"ingest: pass {passes} (scene {scene}) failed its round-trip, "
                    "voxel-sum or repeat check")
            passes += 1
            setups.due(time.perf_counter())
        setups.finish()
    cycle = [first[s] for s in scenes]
    r.counts["ingest.bytes_written"] = float(np.mean([c[0] for c in cycle]))
    r.counts["events.per_sample"] = float(np.mean([c[1] for c in cycle]))
    r.timed_units = list(range(passes))
    r.unit_s = r.latencies_s
    r.info["passes"] = passes
    r.info["gen_samples_per_s"] = r.samples / gen_total
    r.info["load_samples_per_s"] = r.samples / load_total
    return r


def _round_trips(samples, loaded, voxels):
    """EVT1 and PGM round trips are bitwise; voxel mass equals net polarity."""
    if len(samples) != len(loaded):
        return False
    for s, l, v in zip(samples, loaded, voxels):
        if (l.events.width, l.events.height) != (s.events.width, s.events.height):
            return False
        if l.events.events.tobytes() != s.events.events.tobytes():
            return False
        for a, b in ((s.frame, l.frame), (s.labels, l.labels)):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        net_polarity = float(s.events.ps.sum())
        if not math.isclose(float(v.sum()), net_polarity, abs_tol=1e-9 * (1 + len(s.events))):
            return False
    return True


WORKLOADS = {"train": train, "infer": infer, "ingest": ingest}
