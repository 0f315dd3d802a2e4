import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hess import fusion, ops, tensor
from hess.energy import (BASELINE_ROWS, EnergyReport, LayerCost, energy_total,
                         fit_energy_coefficients, profile)
from hess.events import EventStream
from hess.network import NetworkConfig, build, forward
from hess.optim import prepare_batches
from hess.synthetic import SynthConfig, make_samples
from hess.tensor import cost_scope, count_macs, no_grad
from hess.voxel import ReferencePointSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every reference row that reports operation counts: (dense GFLOPs,
# spiking GFLOPs) -> published total energy in mJ
TABLE_POINTS = [
    (73.62, 0.0, 338.65),
    (12.45, 0.0, 57.27),
    (16.74, 0.0, 77.01),
    (0.0, 54.35, 48.91),
    (16.65, 0.0, 76.59),
    (7.88, 0.0, 36.25),
    (14.22, 0.0, 65.41),
    (9.88, 0.0, 45.42),
    (3.84, 0.267, 17.89),
    (1.95, 0.110, 9.08),
]


def synops(macs, spike_rate, timesteps):
    """A spiking layer's spike-gated accumulates, as LayerCost reports them."""
    return LayerCost("s", "snn", macs, spike_rate=spike_rate, timesteps=timesteps).ops()


class TestEnergyTotal:
    @pytest.mark.parametrize("ga,gs,expected", TABLE_POINTS)
    def test_reproduces_reference_rows(self, ga, gs, expected):
        got = energy_total(ga, gs)
        assert abs(got - expected) / expected <= 0.005

    def test_zero(self):
        assert energy_total(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            energy_total(-1.0, 0.0)

    def test_baseline_rows_self_consistent(self):
        for (_, _, _, _, ga, gs, e) in BASELINE_ROWS:
            if e is None or (ga is None and gs is None):
                continue
            assert abs(energy_total(ga or 0.0, gs or 0.0) - e) / e <= 0.005


class TestCoefficientFit:
    def test_least_squares_recovers_published_costs(self):
        ann_pj, snn_pj = fit_energy_coefficients()
        assert abs(ann_pj - 4.60) <= 0.02
        assert abs(snn_pj - 0.90) <= 0.05


def counted_macs(op, *args, **kwargs):
    """MACs one op call charges, counted under count_macs()."""
    with count_macs() as counts, cost_scope("op"):
        op(*args, **kwargs)
    return counts["op"]["macs"]


class TestCounts:
    def test_conv_hand_count(self):
        x = np.ones((1, 3, 16, 16))
        w = np.ones((8, 3, 3, 3))
        macs = counted_macs(ops.conv2d, x, w, np.zeros(8), pad=1)
        assert macs == 8 * 16 * 16 * 3 * 9 == 55_296

    def test_pointwise_conv(self):
        macs = counted_macs(ops.conv2d, np.ones((1, 5, 4, 7)),
                            np.ones((5, 5, 1, 1)), np.zeros(5))
        assert macs == 25 * 28

    def test_linear(self):
        assert counted_macs(ops.linear, np.ones((1, 10)), np.ones((10, 5))) == 50

    @pytest.mark.parametrize("n", [1, 3])
    def test_eds_closed_form(self, n):
        # projection over every pixel; heads (2K offsets + K weights) and
        # sampling + mixing (4 + 4 + 1 per point) only at the P reference
        # points, in the same six charged calls whatever the batch size
        t, c, c_ann, k, h, w = 3, 4, 5, 2, 6, 7
        g = np.random.default_rng(3)
        p = fusion.init_eds_params(c, c_ann, k, g)
        # sample i has the first 3 - i points; its rows are offset by i*h
        ys = np.concatenate([np.array([0, 2, 5][:3 - i]) + i * h for i in range(n)])
        xs = np.concatenate([np.array([1, 6, 3][:3 - i]) for i in range(n)])
        refs = ReferencePointSet(ys, xs, 1, n * h, w)
        with count_macs() as counts, cost_scope("eds"):
            fusion.eds_inject(g.random((n, t, c, h, w)), g.normal(size=(n, c_ann, h, w)),
                              refs, p)
        pts = len(refs)
        assert counts["eds"]["macs"] == (n * h * w * c * c_ann + t * pts * 3 * k * c
                                         + 9 * t * pts * k * c)

    def test_synops_zero_rate(self):
        assert synops(55_296, 0.0, 5) == 0

    def test_synops_dense_limit(self):
        assert synops(55_296, 1.0, 1) == 55_296

    def test_synops_formula(self):
        assert synops(55_296, 0.1, 5) == pytest.approx(27_648)

    def test_synops_monotone_in_rate_linear_in_t(self):
        base = synops(1000, 0.2, 3)
        assert synops(1000, 0.4, 3) > base
        assert synops(1000, 0.2, 6) == 2 * base

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="spike rate"):
            synops(100, 1.5, 5)


def small_setup():
    cfg = SynthConfig(width=16, height=16, frame_count=3, num_shapes=1,
                      min_size=5, max_size=8, duration_us=10_000)
    samples = make_samples(5, cfg)
    net = build(NetworkConfig(scales=((2, 8), (4, 8)), bins=3, timesteps=3,
                              k_points=2, adaptor_ratio=2, num_classes=3))
    return net, samples


class TestProfile:
    def test_frames_only_has_no_spike_ops(self):
        # samples whose event windows are empty: every spiking input is zero
        net, samples = small_setup()
        for s in samples:
            s.events = EventStream(s.events.width, s.events.height)
        report = profile(net, samples)
        assert report.gflops_snn == 0.0
        assert report.gflops_ann > 0.0

    def test_doubling_resolution_quadruples_stage_convs(self):
        net, _ = small_setup()
        cfg_small = SynthConfig(width=16, height=16, frame_count=2,
                                num_shapes=1, min_size=5, max_size=8)
        cfg_big = SynthConfig(width=32, height=32, frame_count=2,
                              num_shapes=1, min_size=5, max_size=8)
        r_small = profile(net, make_samples(1, cfg_small))
        r_big = profile(net, make_samples(1, cfg_big))

        def stage_macs(rep, name):
            return [l.macs for l in rep.layers if l.name == name][0]

        for name in ("stage0.ann", "stage1.ann"):
            assert stage_macs(r_big, name) == 4 * stage_macs(r_small, name)

    def test_totals_match_closed_form_recount(self):
        net, samples = small_setup()
        report = profile(net, samples)
        ann = sum(l.macs for l in report.layers if l.kind == "ann")
        snn = sum(l.macs * l.spike_rate * l.timesteps
                  for l in report.layers if l.kind == "snn")
        assert report.gflops_ann == pytest.approx(ann / 1e9, rel=1e-12)
        assert report.gflops_snn == pytest.approx(snn / 1e9, rel=1e-12)
        assert report.e_total_mj == energy_total(report.gflops_ann,
                                                 report.gflops_snn)

    def test_stage_conv_counts_match_geometry(self):
        net, samples = small_setup()
        report = profile(net, samples)
        # stage0: 1->8 channels, 3x3, output 8x8; stage1: 8->8, output 4x4
        expected0 = 8 * 8 * 8 * 1 * 9
        expected1 = 8 * 4 * 4 * 8 * 9
        by_name = {l.name: l for l in report.layers}
        assert by_name["stage0.ann"].macs == expected0
        assert by_name["stage1.ann"].macs == expected1
        assert by_name["stage0.snn"].macs == expected0
        assert by_name["stage1.snn"].timesteps == 3
        assert 0.0 <= by_name["stage0.snn"].spike_rate <= 1.0

    def test_profile_leaves_parameters_untouched(self):
        net, samples = small_setup()
        before = {k: p.data.copy() for k, p in net.params.items()}
        profile(net, samples)
        for k, p in net.params.items():
            assert np.array_equal(p.data, before[k])

    def test_report_serializes(self, tmp_path):
        net, samples = small_setup()
        report = profile(net, samples)
        text = report.to_json(tmp_path / "r.json")
        loaded = json.loads(text)
        assert set(loaded) == {"gflops_ann", "gflops_snn", "e_total_mj", "layers"}
        assert loaded["layers"][0]["name"] == "stage0.ann"


class TestLayerCost:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerCost("x", "ann", macs=-1)
        with pytest.raises(ValueError):
            LayerCost("x", "snn", macs=10, spike_rate=1.2, timesteps=5)

    def test_ops_dispatch(self):
        assert LayerCost("a", "ann", macs=100).ops() == 100
        assert LayerCost("s", "snn", macs=100, spike_rate=0.5,
                         timesteps=4).ops() == 200

    def test_report_invariant(self):
        r = EnergyReport(1.0, 2.0, energy_total(1.0, 2.0), [])
        assert r.e_total_mj == 4.6 + 1.8


def default_profile_setup():
    return build(NetworkConfig()), make_samples(5, SynthConfig(64, 64, frame_count=10))


class TestCountedProfile:
    """The profile is a reduction over the MACs the ops charge."""

    def test_layer_names_match_benchmark_metrics(self):
        script = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
                  "print(json.dumps(run.count_metric_names()))")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout
        bench = [n[len("energy.macs."):] for n in json.loads(out.splitlines()[-1])
                 if n.startswith("energy.macs.")]
        assert len(bench) == 19
        net, samples = default_profile_setup()
        names = [l.name for l in profile(net, samples[:2]).layers]
        assert sorted(names) == sorted(bench)
        # execution order: each scale's stage convs and fusion blocks, then the head
        expected = []
        for i in range(3):
            expected += [f"stage{i}.ann", f"stage{i}.snn", f"atw{i}", f"eds{i}", f"csf{i}"]
        expected += [f"head.lateral{i}" for i in range(3)] + ["head.cls"]
        assert names == expected

    def test_default_counts(self):
        net, samples = default_profile_setup()
        report = profile(net, samples)
        by_name = {l.name: l for l in report.layers}
        assert by_name["atw0"].macs == 1_049_216
        assert by_name["eds0"].macs == 441_472
        assert by_name["csf0"].macs == 524_288
        assert report.gflops_ann == 0.008454144
        assert report.e_total_mj == 0.03959184432

    def test_counting_leaves_logits_bitwise_equal(self):
        net, samples = default_profile_setup()
        frames, voxels, _ = prepare_batches(samples[:2], net.config.bins)
        with no_grad():
            plain = forward(net, frames, voxels).data
            with count_macs() as counts:
                counted = forward(net, frames, voxels).data
        assert counts and plain.tobytes() == counted.tobytes()

    def test_nothing_recorded_outside_count_macs(self):
        net, samples = default_profile_setup()
        frames, voxels, _ = prepare_batches(samples[:1], net.config.bins)
        with count_macs() as counts:
            pass
        with no_grad():
            forward(net, frames, voxels)
        assert counts == {}
        assert tensor._counts is None
        assert cost_scope("x") is cost_scope("y")   # the shared no-op context
