import hashlib
import json
import struct

import numpy as np
import pytest

from hess.network import (HybridNetwork, NetworkConfig, build, config_from_dict, forward,
                          load_checkpoint, predict, save_checkpoint)
from hess.ops import cross_entropy
from hess.optim import AdamW, TrainConfig, lr_at, train
from hess.synthetic import SynthConfig, make_samples
from hess.tensor import constant, grad_check, no_grad, using_dtype


SMALL = dict(scales=((2, 8), (4, 8)), bins=3, timesteps=3, k_points=2,
             adaptor_ratio=2, num_classes=3, input_channels=1)


# LIF settings NetworkConfig rejects when it is built
BAD_LIF = [("tau", 0.5), ("tau", 1.0), ("tau", float("inf")), ("tau", float("nan")),
           ("v_threshold", 0.0), ("v_threshold", -1.0), ("v_threshold", float("inf")),
           ("v_threshold", float("nan")), ("surrogate_alpha", 0.0), ("surrogate_alpha", -4.0),
           ("surrogate_alpha", float("inf")), ("surrogate_alpha", float("nan"))]


def small_net(seed=0, **over):
    kw = dict(SMALL)
    kw.update(over)
    return build(NetworkConfig(seed=seed, **kw))


def rand_inputs(seed, n=2, h=16, w=16, bins=3, sparse=True):
    g = np.random.default_rng(seed)
    frames = g.random((n, 1, h, w))
    voxel = g.normal(size=(n, bins, h, w))
    if sparse:
        voxel *= g.random((n, bins, h, w)) > 0.8
    return frames, voxel


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a, b = small_net(7), small_net(7)
        assert list(a.params) == list(b.params)
        for k in a.params:
            assert a.params[k].data.tobytes() == b.params[k].data.tobytes()

    def test_different_seed_differs(self):
        a, b = small_net(1), small_net(2)
        assert any(not np.array_equal(a.params[k].data, b.params[k].data)
                   for k in a.params)

    def test_toggle_removes_parameters(self):
        full = small_net()
        no_eds = small_net(eds_on=False)
        assert no_eds.param_count() < full.param_count()
        assert not any(k.startswith("eds") for k in no_eds.params)

    def test_default_config_is_desk_scale(self):
        net = build(NetworkConfig())
        assert net.param_count() < 100_000   # far below the 1.79 M full model

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            NetworkConfig(scales=((2, 8), (3, 8)))
        with pytest.raises(ValueError, match="at least one scale"):
            NetworkConfig(scales=())
        with pytest.raises(ValueError, match="integers"):
            NetworkConfig(scales=((2.0, 8), (4, 8)))
        # a zero factor used to pass and then divide by zero at the next scale
        with pytest.raises(ValueError, match="scale factors must be >= 1"):
            NetworkConfig(scales=((0, 8), (4, 8)))

    @pytest.mark.parametrize("field", ["input_channels", "num_classes", "k_points",
                                       "adaptor_ratio", "timesteps", "bins"])
    def test_counts_below_one_rejected(self, field):
        # adaptor_ratio 0 used to raise ZeroDivisionError; the others built a
        # network of empty arrays
        with pytest.raises(ValueError, match=f"{field}.* must be >= 1"):
            NetworkConfig(**{field: 0})

    @pytest.mark.parametrize("key, value", BAD_LIF)
    def test_bad_lif_setting_rejected_when_built(self, key, value):
        # tau = 0.5 used to pass here and fail only at the first forward
        # with events; the others were accepted everywhere
        with pytest.raises(ValueError, match=rf"^where: {key} must be finite and > "):
            config_from_dict(NetworkConfig, {key: value}, "where")

    @pytest.mark.parametrize("values", [{"bins": 4}, {"bins": 3, "timesteps": 2}])
    def test_bins_unequal_timesteps_rejected_when_built(self, values):
        # such a config used to build and train up to its first forward with events
        with pytest.raises(ValueError, match=r"^where: bins must equal timesteps"):
            config_from_dict(NetworkConfig, values, "where")

    def test_zero_initialized_injection_heads(self):
        net = small_net()
        for i in range(len(net.config.scales)):
            assert np.all(net.blocks[f"atw{i}"]["out.w"].data == 0.0)
            assert np.all(net.blocks[f"atw{i}"]["off.b"].data == 0.0)
            assert np.all(net.blocks[f"eds{i}"]["off.b"].data == 0.0)


class TestForward:
    def test_output_shape(self):
        net = small_net()
        frames, voxel = rand_inputs(0)
        out = forward(net, frames, voxel)
        assert out.shape == (2, 3, 16, 16)

    def test_frames_only_identity_bitwise(self):
        net = small_net(3)
        frames, _ = rand_inputs(1)
        zero_voxel = np.zeros((2, 3, 16, 16))
        with no_grad():
            full = forward(net, frames, zero_voxel)
            alone = forward(net, frames, None)
        assert full.data.tobytes() == alone.data.tobytes()

    @pytest.mark.parametrize("toggles", [
        dict(atw_on=False, eds_on=False, csf_on=False),
        dict(atw_on=True, eds_on=False, csf_on=False),
        dict(atw_on=False, eds_on=True, csf_on=True),
    ])
    def test_frames_only_identity_all_toggle_combos(self, toggles):
        net = small_net(4, **toggles)
        frames, _ = rand_inputs(2)
        with no_grad():
            full = forward(net, frames, np.zeros((2, 3, 16, 16)))
            alone = forward(net, frames, None)
        assert full.data.tobytes() == alone.data.tobytes()

    def test_toggles_preserve_output_shape(self):
        frames, voxel = rand_inputs(3)
        shapes = set()
        for atw in (False, True):
            for eds in (False, True):
                for csf in (False, True):
                    net = small_net(5, atw_on=atw, eds_on=eds, csf_on=csf)
                    with no_grad():
                        shapes.add(forward(net, frames, voxel).shape)
        assert shapes == {(2, 3, 16, 16)}

    def test_bin_count_mismatch_rejected(self):
        net = small_net()
        frames, voxel = rand_inputs(4)
        with pytest.raises(ValueError, match="bins"):
            forward(net, frames, voxel[:, :2])

    def test_bins_must_equal_timesteps(self):
        with pytest.raises(ValueError, match="bins must equal timesteps"):
            net = small_net(bins=4)
            frames, _ = rand_inputs(5)
            forward(net, frames, np.zeros((2, 4, 16, 16)))

    def test_indivisible_input_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="divisible"):
            forward(net, np.zeros((1, 1, 18, 18)))

    @pytest.mark.parametrize("entry", ["frames", "voxel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [forward, predict], ids=["forward", "predict"])
    def test_non_finite_input_rejected(self, call, bad, entry):
        net = small_net()
        frames, voxel = rand_inputs(3)
        (frames if entry == "frames" else voxel)[1, 0, 4, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            call(net, frames, voxel)

    def test_voxel_spatial_mismatch_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="spatial"):
            forward(net, np.zeros((1, 1, 16, 16)), np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError, match="N\\*B\\*H\\*W"):   # one grid, no batch axis
            forward(net, np.zeros((1, 1, 16, 16)), np.zeros((3, 16, 16)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_gives_each_sample_its_own_logits(self, dtype):
        # the batch is Z-scored, pooled and searched for reference points
        # once, yet each sample, the all-zero one included, keeps bitwise
        # the logits it gets alone
        frames, voxel = rand_inputs(11, n=3)
        voxel[1] = 0.0
        with using_dtype(dtype):
            net = small_net(4)
            g = np.random.default_rng(12)
            for p in net.params.values():   # wake the zero-initialized heads
                p.data += (0.05 * g.normal(size=p.shape)).astype(dtype)
            batch = forward(net, frames, voxel).data
            alone = [forward(net, frames[i:i + 1], voxel[i:i + 1]).data
                     for i in range(3)]
        assert batch.dtype == dtype
        assert batch.tobytes() == np.concatenate(alone).tobytes()


class TestLossPredict:
    def test_uniform_logits_log_k(self):
        logits = constant(np.zeros((1, 4, 3, 3)))
        labels = np.zeros((1, 3, 3), dtype=np.int64)
        assert abs(cross_entropy(logits, labels).item() - np.log(4.0)) <= 1e-12

    def test_confident_correct_near_zero(self):
        labels = np.random.default_rng(6).integers(0, 3, size=(1, 4, 4))
        logits = np.full((1, 3, 4, 4), -50.0)
        np.put_along_axis(logits, labels[:, None], 50.0, axis=1)
        assert cross_entropy(constant(logits), labels).item() <= 1e-12

    def test_predict_matches_argmax_with_low_index_ties(self):
        logits = np.zeros((1, 3, 1, 2))
        logits[0, 1, 0, 0] = 2.0       # clear winner
        logits[0, :, 0, 1] = 5.0       # three-way tie -> class 0
        assert np.argmax(logits, axis=1)[0, 0, 0] == 1
        assert np.argmax(logits, axis=1)[0, 0, 1] == 0

    def test_predict_composition(self):
        net = small_net(8)
        frames, voxel = rand_inputs(7)
        labels = predict(net, frames, voxel)
        with no_grad():
            logits = forward(net, frames, voxel)
        assert np.array_equal(labels, np.argmax(logits.data, axis=1))
        assert labels.shape == (2, 16, 16)

    def test_single_class_predicts_all_zero(self):
        net = build(NetworkConfig(scales=((2, 4),), bins=2, timesteps=2,
                                  k_points=2, adaptor_ratio=2, num_classes=1,
                                  seed=1))
        g = np.random.default_rng(0)
        labels = predict(net, g.random((1, 1, 8, 8)), g.normal(size=(1, 2, 8, 8)))
        assert np.all(labels == 0)

    def test_three_channel_input(self):
        net = build(NetworkConfig(scales=((2, 4), (4, 8)), bins=2, timesteps=2,
                                  k_points=2, adaptor_ratio=2, num_classes=3,
                                  input_channels=3, seed=2))
        g = np.random.default_rng(1)
        with no_grad():
            out = forward(net, g.random((2, 3, 16, 16)),
                          g.normal(size=(2, 2, 16, 16)))
        assert out.shape == (2, 3, 16, 16)


class TestTraining:
    def make_dataset(self, n=6):
        cfg = SynthConfig(width=16, height=16, frame_count=n, num_shapes=1,
                          min_size=5, max_size=8, duration_us=20_000)
        return make_samples(11, cfg)

    def test_zero_learning_rate_keeps_parameters(self):
        net = small_net(9)
        before = {k: p.data.copy() for k, p in net.params.items()}
        cfg = TrainConfig(learning_rate=0.0, total_iterations=3,
                          warmup_iterations=0, batch_size=2, seed=0)
        train(net, self.make_dataset(), cfg)
        for k, p in net.params.items():
            assert np.array_equal(p.data, before[k])

    def test_negative_log_every_rejected_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr("hess.optim.forward", lambda *a: steps.append(a))
        cfg = TrainConfig(total_iterations=2, warmup_iterations=0, batch_size=2)
        with pytest.raises(ValueError, match="log_every must be >= 0"):
            train(small_net(9), self.make_dataset(), cfg, log_every=-1)
        assert steps == []

    def test_training_is_deterministic(self):
        curves = []
        for _ in range(2):
            net = small_net(10)
            cfg = TrainConfig(learning_rate=2e-3, total_iterations=8,
                              warmup_iterations=2, batch_size=2, seed=3)
            _, losses = train(net, self.make_dataset(), cfg)
            curves.append(losses)
        assert np.array_equal(curves[0], curves[1])

    def test_single_sample_overfit_drives_loss_down(self):
        net = small_net(12)
        data = self.make_dataset(n=2)[:1]
        cfg = TrainConfig(learning_rate=5e-3, total_iterations=120,
                          warmup_iterations=10, batch_size=1, seed=0)
        _, losses = train(net, data, cfg)
        assert losses[-1] < 0.2
        assert losses[-1] < losses[0] / 3

    def test_lr_schedule_shape(self):
        cfg = TrainConfig(learning_rate=1.0, total_iterations=100,
                          warmup_iterations=10, poly_power=0.9)
        assert lr_at(cfg, 0) == 0.0
        assert lr_at(cfg, 5) == 0.5
        assert abs(lr_at(cfg, 50) - 0.5 ** 0.9) <= 1e-12
        assert lr_at(cfg, 99) < 0.02

    def test_warmup_validation(self):
        with pytest.raises(ValueError, match="warmup"):
            TrainConfig(total_iterations=10, warmup_iterations=20)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", float("nan")), ("learning_rate", -1e-3),
        ("learning_rate", float("inf")), ("weight_decay", float("inf")),
        ("weight_decay", -1e-4), ("poly_power", float("nan")),
        ("poly_power", -0.9), ("total_iterations", -5), ("total_iterations", 0),
        ("warmup_iterations", -1)])
    def test_out_of_range_train_values_name_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
        with pytest.raises(ValueError, match=f"cfg.json: train: {key}"):
            config_from_dict(TrainConfig, {key: value}, "cfg.json: train")

    def test_flip_augmentation_trains_and_is_deterministic(self):
        curves = []
        for _ in range(2):
            net = small_net(16)
            cfg = TrainConfig(learning_rate=2e-3, total_iterations=6,
                              warmup_iterations=2, batch_size=2, seed=4,
                              augment_flip=True)
            _, losses = train(net, self.make_dataset(), cfg)
            curves.append(losses)
        assert np.array_equal(curves[0], curves[1])
        # flipping actually changes the trajectory
        net = small_net(16)
        cfg = TrainConfig(learning_rate=2e-3, total_iterations=6,
                          warmup_iterations=2, batch_size=2, seed=4)
        _, plain = train(net, self.make_dataset(), cfg)
        assert not np.array_equal(curves[0], plain)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net = small_net(13)
        p = tmp_path / "net.hess"
        save_checkpoint(net, p)
        loaded, optim = load_checkpoint(p)
        assert optim is None
        assert loaded.config == net.config
        for k in net.params:
            assert loaded.params[k].data.tobytes() == net.params[k].data.tobytes()

    def test_roundtrip_with_optimizer(self, tmp_path):
        net = small_net(14)
        cfg = TrainConfig(learning_rate=1e-3, total_iterations=4,
                          warmup_iterations=0, batch_size=2, seed=1)
        data = TestTraining().make_dataset()
        train(net, data, cfg)
        opt = AdamW(net.params, weight_decay=cfg.weight_decay)
        opt.step(1e-3)
        p = tmp_path / "net.hess"
        save_checkpoint(net, p, opt.state())
        loaded, state = load_checkpoint(p)
        assert state["step"] == 1
        for k in net.params:
            assert np.array_equal(state["m"][k], opt.m[k])
            assert np.array_equal(state["v"][k], opt.v[k])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.hess"
        p.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_every_truncation_raises_value_error(self, tmp_path):
        net = small_net(16, scales=((2, 2),), k_points=1)
        p = tmp_path / "net.hess"
        save_checkpoint(net, p, AdamW(net.params).state())
        data = p.read_bytes()
        cut = tmp_path / "cut.hess"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            with pytest.raises(ValueError, match="cut.hess"):
                load_checkpoint(cut)
        cut.write_bytes(data)
        load_checkpoint(cut)

    @pytest.mark.parametrize("old,new", [
        (b'"adaptor_ratio"', b'"bdaptor_ratio"'),   # one flipped byte in a key
        (b'"tau": 2.0', b'"tau": "2"'),             # a string for a float
        (b'"atw_on": true', b'"atw_on": 1   '),     # a number for a bool
        # one flipped byte each; these raised ZeroDivisionError and
        # OverflowError before the counts and factors were checked
        (b'"adaptor_ratio": 2', b'"adaptor_ratio": 0'),
        (b'"input_channels": 1', b'"input_channels":-1'),
        (b'"scales": [[2,', b'"scales": [[0,')])
    def test_corrupted_config_raises_value_error(self, tmp_path, old, new):
        p = tmp_path / "net.hess"
        save_checkpoint(small_net(18), p)
        data = p.read_bytes()
        assert data.count(old) == 1 and len(old) == len(new)
        p.write_bytes(data.replace(old, new))
        with pytest.raises(ValueError, match="net.hess: config"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value", BAD_LIF)
    def test_bad_lif_setting_in_config_raises_value_error(self, tmp_path, key, value):
        p = tmp_path / "net.hess"
        save_checkpoint(small_net(18), p)
        data = p.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[8:12])
        cfg = json.loads(data[12:12 + cfg_len])
        cfg[key] = value
        text = json.dumps(cfg, sort_keys=True).encode()   # NaN, Infinity
        p.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + cfg_len:])
        with pytest.raises(ValueError, match=f"net.hess: config: {key} must be finite"):
            load_checkpoint(p)

    def test_bins_unequal_timesteps_in_config_raises_value_error(self, tmp_path):
        p = tmp_path / "net.hess"
        save_checkpoint(small_net(18), p)
        data = p.read_bytes()
        assert data.count(b'"bins": 3') == 1
        p.write_bytes(data.replace(b'"bins": 3', b'"bins": 4'))
        with pytest.raises(ValueError, match="net.hess: config: bins must equal timesteps"):
            load_checkpoint(p)

    @pytest.mark.parametrize("where", ["param", "m", "v"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_raises_value_error(self, tmp_path, where, bad):
        # a NaN head.cls.b used to load, and predict then gave class 0 everywhere
        net = small_net(19)
        state = AdamW(net.params).state()
        p = tmp_path / "net.hess"
        save_checkpoint(net, p, state)
        load_checkpoint(p)
        (net.params["head.cls.b"].data if where == "param" else state[where]["head.cls.b"])[1] = bad
        save_checkpoint(net, p, state)
        what = "parameter" if where == "param" else f"optimizer {where} of"
        with pytest.raises(ValueError, match=f"net.hess: {what} head.cls.b holds a non-finite"):
            load_checkpoint(p)

    def test_loaded_parameters_are_writable(self, tmp_path):
        p = tmp_path / "net.hess"
        save_checkpoint(small_net(17), p)
        loaded, _ = load_checkpoint(p)
        assert all(t.data.flags.writeable for t in loaded.params.values())

    def test_forward_equivalence_after_roundtrip(self, tmp_path):
        net = small_net(15)
        frames, voxel = rand_inputs(9)
        p = tmp_path / "net.hess"
        save_checkpoint(net, p)
        loaded, _ = load_checkpoint(p)
        with no_grad():
            a = forward(net, frames, voxel)
            b = forward(loaded, frames, voxel)
        assert a.data.tobytes() == b.data.tobytes()


class TestWholeNetworkGradient:
    def test_grad_check_smooth_mode(self):
        # gradient-verification setup: sigmoid spike surface, threshold
        # nudged off exact crossings, and every parameter moved off its
        # init point (zero-initialized projections otherwise leave whole
        # gradient groups at exactly zero); seeds chosen clear of ReLU /
        # interpolation kink neighborhoods, which central differences
        # cannot straddle
        net = build(NetworkConfig(scales=((2, 4), (4, 4)), bins=2, timesteps=2,
                                  k_points=2, adaptor_ratio=2, num_classes=2,
                                  seed=43, v_threshold=1.0 + np.pi / 1000))
        pg = np.random.default_rng(1043)
        for p in net.params.values():
            p.data += pg.uniform(-0.05, 0.05, size=p.data.shape)
        g = np.random.default_rng(2043)
        frames = g.random((1, 1, 8, 8))
        voxel = g.normal(size=(1, 2, 8, 8)) * (g.random((1, 2, 8, 8)) > 0.7)
        labels = g.integers(0, 2, size=(1, 8, 8))

        def fn():
            return cross_entropy(forward(net, frames, voxel, smooth=True), labels)

        checked = [net.params[k] for k in
                   ("stage0.snn.w", "stage1.ann.w", "atw0.out.w", "atw1.off.w",
                    "eds0.proj.w", "csf1.spike.w", "head.cls.w", "stage0.norm.gamma")]
        assert grad_check(fn, checked, eps=1e-4) <= 1e-3


# The default network's parameters, in checkpoint order: name and shape.
DEFAULT_LAYOUT = """
stage0.ann.w 16x1x3x3
stage0.ann.b 16
stage0.norm.gamma 16
stage0.norm.beta 16
stage0.snn.w 16x1x3x3
stage0.snn.b 16
atw0.w_down 16x4
atw0.w_up 4x16
atw0.q.w 16x16x1x1
atw0.q.b 16
atw0.off.w 8x16x1x1
atw0.off.b 8
atw0.attw.w 4x16x1x1
atw0.attw.b 4
atw0.out.w 16x16x1x1
atw0.out.b 16
eds0.off.w 8x16x1x1
eds0.off.b 8
eds0.attw.w 4x16x1x1
eds0.attw.b 4
eds0.proj.w 16x16x1x1
eds0.proj.b 16
csf0.frame.w 16x16x1x1
csf0.frame.b 16
csf0.spike.w 16x16x1x1
csf0.spike.b 16
stage1.ann.w 32x16x3x3
stage1.ann.b 32
stage1.norm.gamma 32
stage1.norm.beta 32
stage1.snn.w 32x16x3x3
stage1.snn.b 32
atw1.w_down 32x8
atw1.w_up 8x32
atw1.q.w 32x32x1x1
atw1.q.b 32
atw1.off.w 8x32x1x1
atw1.off.b 8
atw1.attw.w 4x32x1x1
atw1.attw.b 4
atw1.out.w 32x32x1x1
atw1.out.b 32
eds1.off.w 8x32x1x1
eds1.off.b 8
eds1.attw.w 4x32x1x1
eds1.attw.b 4
eds1.proj.w 32x32x1x1
eds1.proj.b 32
csf1.frame.w 32x32x1x1
csf1.frame.b 32
csf1.spike.w 32x32x1x1
csf1.spike.b 32
stage2.ann.w 64x32x3x3
stage2.ann.b 64
stage2.norm.gamma 64
stage2.norm.beta 64
stage2.snn.w 64x32x3x3
stage2.snn.b 64
atw2.w_down 64x16
atw2.w_up 16x64
atw2.q.w 64x64x1x1
atw2.q.b 64
atw2.off.w 8x64x1x1
atw2.off.b 8
atw2.attw.w 4x64x1x1
atw2.attw.b 4
atw2.out.w 64x64x1x1
atw2.out.b 64
eds2.off.w 8x64x1x1
eds2.off.b 8
eds2.attw.w 4x64x1x1
eds2.attw.b 4
eds2.proj.w 64x64x1x1
eds2.proj.b 64
csf2.frame.w 64x64x1x1
csf2.frame.b 64
csf2.spike.w 64x64x1x1
csf2.spike.b 64
head.lateral0.w 16x16x1x1
head.lateral0.b 16
head.lateral1.w 16x32x1x1
head.lateral1.b 16
head.lateral2.w 16x64x1x1
head.lateral2.b 16
head.cls.w 3x16x1x1
head.cls.b 3
"""
DEFAULT_CHECKPOINT_SHA256 = "724c00714a9923c0859bb0bf61a1f2579681f94f1af58383d80a30c67d4bcbc8"


class TestDefaultLayout:
    def test_names_shapes_and_order(self):
        net = build(NetworkConfig())
        expected = [(name, tuple(int(d) for d in shape.split("x")))
                    for name, shape in map(str.split, DEFAULT_LAYOUT.strip().splitlines())]
        assert [(k, p.shape) for k, p in net.params.items()] == expected
        assert len(expected) == 86 and net.param_count() == 81595

    def test_seed0_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "net.hess"
        save_checkpoint(build(NetworkConfig()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CHECKPOINT_SHA256
