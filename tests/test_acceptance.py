"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run pytest with -s or -rA to see
them). Criteria marked quantitative check published reference values;
the training criterion is property-based at desk scale.
"""

import time

import numpy as np
import pytest

from hess import fusion, ops
from hess.energy import energy_total, fit_energy_coefficients
from hess.events import EventStream, make_stream, read_events, write_events
from hess.gradcheck import run_checks
from hess.harness import ablation, run_eval, timestep_sweep
from hess.metrics import confusion, metrics
from hess.network import (NetworkConfig, build, forward, load_checkpoint,
                          save_checkpoint)
from hess.optim import TrainConfig, train
from hess.spiking import LIFConfig, LIFState, constant_input_trajectory, lif_step
from hess.synthetic import SynthConfig, make_samples
from hess.tensor import constant, no_grad, using_dtype
from hess.voxel import downsample_voxel, extract_reference_points, voxelize


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num:2d} PASS  {name}  {detail}")


class TestAcceptance:
    def test_01_energy_table_reproduction(self):
        start = time.monotonic()
        rows = [
            (73.62, 0.0, 338.65), (12.45, 0.0, 57.27), (16.74, 0.0, 77.01),
            (0.0, 54.35, 48.91), (16.65, 0.0, 76.59), (7.88, 0.0, 36.25),
            (14.22, 0.0, 65.41), (9.88, 0.0, 45.42), (3.84, 0.267, 17.89),
            (1.95, 0.110, 9.08),
        ]
        worst = 0.0
        for ga, gs, expected in rows:
            rel = abs(energy_total(ga, gs) - expected) / expected
            worst = max(worst, rel)
            assert rel <= 0.005
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        report(1, "energy table reproduction",
               f"10 rows, worst rel err {worst:.2e}, {elapsed:.2f}s")

    def test_02_coefficient_recovery(self):
        start = time.monotonic()
        ann_pj, snn_pj = fit_energy_coefficients()
        assert abs(ann_pj - 4.60) <= 0.02
        assert abs(snn_pj - 0.90) <= 0.05
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        report(2, "coefficient recovery",
               f"fit ({ann_pj:.4f}, {snn_pj:.4f}) pJ/op, {elapsed:.2f}s")

    def test_03_voxelization_oracle(self):
        start = time.monotonic()
        worst = 0.0
        for case in range(100):
            g = np.random.default_rng(9000 + case)
            n = int(g.integers(1, 1001))
            bins = int(g.integers(1, 9))
            w, h = int(g.integers(4, 24)), int(g.integers(4, 24))
            ts = np.sort(g.integers(0, 100_001, size=n))
            stream = make_stream(w, h, g.integers(0, w, n), g.integers(0, h, n),
                                 ts, g.choice([-1, 1], n))
            grid = voxelize(stream, bins, 0, 100_000)
            ref = np.zeros((bins, h, w))
            span = 100_000.0
            for x, y, t, p in zip(stream.xs, stream.ys, stream.ts, stream.ps):
                s = t / span * (bins - 1)
                for b in range(bins):
                    ref[b, y, x] += p * max(0.0, 1.0 - abs(b - s))
            worst = max(worst, float(np.max(np.abs(grid - ref))))
            assert worst <= 1e-12
            # per-pixel bin-mass conservation, exact
            per_pixel = grid.sum(axis=0)
            expected = np.zeros((h, w))
            np.add.at(expected, (stream.ys, stream.xs), stream.ps.astype(float))
            assert np.max(np.abs(per_pixel - expected)) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(3, "voxelization oracle equivalence",
               f"100 streams, worst abs err {worst:.2e}, {elapsed:.1f}s")

    def test_04_lif_closed_form(self):
        start = time.monotonic()
        cfg = LIFConfig(tau=2.0, v_threshold=1.0)
        # sub-threshold trajectory matches c * (1 - (1 - 1/tau)^t)
        c = 0.8
        state = LIFState.zeros((1,))
        worst = 0.0
        for t in range(1, 60):
            s, state = lif_step(state, np.array([c]), cfg)
            assert s[0] == 0.0
            expected = c * (1.0 - (1.0 - 1.0 / cfg.tau) ** t)
            worst = max(worst, abs(state.v[0] + state.lo[0] - expected))
        assert worst <= 1e-12
        # X = 2 spikes on the first step
        s, _ = lif_step(LIFState.zeros((1,)), np.array([2.0]), cfg)
        assert s[0] == 1.0
        # X = 1 never spikes within a million steps
        _, spike_at = constant_input_trajectory(1.0, cfg, 1_000_000)
        assert spike_at is None
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        report(4, "LIF closed form",
               f"traj err {worst:.2e}, X=2 fires at step 1, X=1 silent, {elapsed:.1f}s")

    def test_05_gradient_checks(self):
        start = time.monotonic()
        results = run_checks("all")
        for name, err, tol in results:
            assert err <= tol, f"{name}: {err:.3e} > {tol}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        detail = ", ".join(f"{n}={e:.1e}" for n, e, _ in results)
        report(5, "gradient checks", f"{detail}, {elapsed:.0f}s")

    def test_06_frames_only_identity(self):
        start = time.monotonic()
        net = build(NetworkConfig(seed=5))
        g = np.random.default_rng(6)
        frames = g.random((2, 1, 64, 64))
        empty = EventStream(64, 64)
        grid = voxelize(empty, net.config.bins, 0, 1000)
        batch = np.stack([grid, grid])
        with no_grad():
            with_events = forward(net, frames, batch)
            frames_only = forward(net, frames, None)
        assert with_events.data.tobytes() == frames_only.data.tobytes()

        # eds_inject is the exact identity on an empty reference set
        refs = extract_reference_points(downsample_voxel(grid, 2), scale=2)
        assert len(refs) == 0
        f_snn = constant((g.random((1, 5, 16, 32, 32)) > 0.5).astype(float))
        f_ann = constant(g.normal(size=(1, 16, 32, 32)))
        with no_grad():
            out = fusion.eds_inject(f_snn, f_ann, refs, net.blocks["eds0"])
        assert out is f_snn

        # the temporal-weighting injector leaves frame features unchanged
        zero_spikes = constant(np.zeros((1, 5, 16, 32, 32)))
        with no_grad():
            injected = fusion.atw_apply(f_ann, zero_spikes, net.blocks["atw0"])
        assert injected.data.tobytes() == f_ann.data.tobytes()
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(6, "frames-only identity", f"bitwise equal, {elapsed:.1f}s")

    def test_07_normalization_invariants(self):
        start = time.monotonic()
        g = np.random.default_rng(7)
        atw_p = fusion.init_atw_params(4, 2, 3, g)
        eds_p = fusion.init_eds_params(4, 4, 3, g)
        worst = 0.0
        with no_grad():
            for i in range(334):
                f = constant((g.random((1, 4, 4, 3, 3)) > 0.6).astype(float))
                alpha = fusion.atw_temporal_weights(f, atw_p)
                worst = max(worst, float(np.max(np.abs(alpha.data.sum(axis=1) - 1))))
            for i in range(333):
                x = constant(g.normal(size=(1, 4, 5, 5)))
                q = ops.conv2d(x, atw_p["q.w"], atw_p["q.b"])
                attw = ops.softmax_axis(
                    ops.conv2d(q, atw_p["attw.w"], atw_p["attw.b"]), axis=1)
                worst = max(worst, float(np.max(np.abs(attw.data.sum(axis=1) - 1))))
            for i in range(333):
                # 2 timesteps x 16 reference points x 4 channels
                f = constant((g.random((2, 16, 4)) > 0.6).astype(float))
                _, a = fusion.eds_offsets(f, eds_p)
                worst = max(worst, float(np.max(np.abs(a.data.sum(axis=2) - 1))))
        assert worst <= 1e-12
        elapsed = time.monotonic() - start
        report(7, "softmax normalization",
               f"1000 instances, worst |sum-1| {worst:.2e}, {elapsed:.1f}s")

    @pytest.mark.slow
    def test_08_toy_training(self):
        start = time.monotonic()
        train_samples = make_samples(100, SynthConfig(width=64, height=64,
                                                      frame_count=200))
        test_samples = make_samples(101, SynthConfig(width=64, height=64,
                                                     frame_count=50))
        # learning rate chosen so the run is still descending at iteration
        # 2000 rather than sitting on a noise plateau; mIoU saturates far
        # above the bar either way
        cfg = TrainConfig(learning_rate=2.5e-4, weight_decay=1e-4,
                          total_iterations=2000, warmup_iterations=100,
                          poly_power=0.9, batch_size=4, seed=0)
        # float32 is the sanctioned speed switch for training runs
        with using_dtype(np.float32):
            net = build(NetworkConfig(seed=0))
            net, losses = train(net, train_samples, cfg)
            result = run_eval(net, test_samples)
        elapsed = time.monotonic() - start
        assert result["miou"] >= 0.60
        # smoothed loss is nonincreasing over the final half of training
        # (1e-6 absolute slack per step: float dust, four orders of
        # magnitude below the final-half descent)
        ma = np.convolve(losses, np.ones(50) / 50, mode="valid")
        tail = ma[len(losses) // 2:]
        assert np.all(np.diff(tail) <= 1e-6)
        assert elapsed <= 600.0
        report(8, "toy training",
               f"mIoU {result['miou']:.3f} (>=0.60), acc {result['accuracy']:.3f}, "
               f"{elapsed/60:.1f} min")

    def test_09_harness_structure(self):
        start = time.monotonic()
        net_cfg = NetworkConfig(scales=((2, 4), (4, 8)), bins=2, timesteps=2,
                                k_points=2, adaptor_ratio=2, num_classes=3,
                                seed=3)
        train_cfg = TrainConfig(learning_rate=2e-3, total_iterations=10,
                                warmup_iterations=2, batch_size=2, seed=0)
        data_cfg = SynthConfig(width=16, height=16, frame_count=8,
                               num_shapes=2, min_size=5, max_size=9)
        tr = make_samples(31, data_cfg)
        te = make_samples(32, SynthConfig(width=16, height=16, frame_count=4,
                                          num_shapes=2, min_size=5, max_size=9))

        ab1 = ablation(net_cfg, train_cfg, tr, te)
        ab2 = ablation(net_cfg, train_cfg, tr, te)
        assert len(ab1) == 8
        combos = {(r["atw_on"], r["eds_on"], r["csf_on"]) for r in ab1}
        assert len(combos) == 8
        assert ab1 == ab2

        sw1 = timestep_sweep(net_cfg, train_cfg, tr, te, t_list=(1, 3, 5, 7))
        sw2 = timestep_sweep(net_cfg, train_cfg, tr, te, t_list=(1, 3, 5, 7))
        assert [r["timesteps"] for r in sw1] == [1, 3, 5, 7]
        assert sw1 == sw2
        elapsed = time.monotonic() - start
        report(9, "harness structure",
               f"8 ablation rows + 4 sweep rows, deterministic, {elapsed:.0f}s")

    def test_10_metric_hand_case(self):
        pred = np.array([[0, 1], [1, 1]])
        gt = np.array([[0, 1], [0, 1]])
        acc, iou, miou = metrics(confusion(pred, gt, 2))
        assert acc == 0.75
        assert miou == pytest.approx(7.0 / 12.0, abs=1e-15)
        report(10, "metric hand case", f"acc {acc}, mIoU {miou:.6f} = 7/12")

    def test_11_io_roundtrips(self, tmp_path):
        g = np.random.default_rng(11)
        n = 1000
        ts = np.sort(g.integers(0, 1_000_000, size=n))
        stream = make_stream(64, 48, g.integers(0, 64, n), g.integers(0, 48, n),
                             ts, g.choice([-1, 1], n))
        path = tmp_path / "events.evt1"
        write_events(stream, path)
        back = read_events(path)
        assert back.events.tobytes() == stream.events.tobytes()

        net = build(NetworkConfig(scales=((2, 4), (4, 8)), bins=2, timesteps=2,
                                  k_points=2, adaptor_ratio=2, seed=11))
        ckpt = tmp_path / "net.hess"
        save_checkpoint(net, ckpt)
        loaded, _ = load_checkpoint(ckpt)
        for k in net.params:
            assert loaded.params[k].data.tobytes() == net.params[k].data.tobytes()
        assert loaded.config == net.config
        report(11, "I/O round-trips", "EVT1 and checkpoint bitwise")
