import json

import numpy as np
import pytest

from hess.cli import main
from hess.events import make_stream, read_events, write_events
from hess.network import NetworkConfig, build, save_checkpoint
from hess.synthetic import SynthConfig, load_dataset, make_samples
from hess.voxel import voxelize

# LIF settings NetworkConfig rejects when it is built
BAD_LIF = [("tau", 0.5), ("tau", float("inf")), ("v_threshold", 0.0),
           ("v_threshold", float("nan")), ("surrogate_alpha", float("nan")),
           ("surrogate_alpha", -4.0)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-synthetic", "--seed", "1", "--out-dir", str(root / "train"),
                 "--width", "16", "--height", "16", "--samples", "6",
                 "--shapes", "2"]) == 0
    assert main(["gen-synthetic", "--seed", "2", "--out-dir", str(root / "test"),
                 "--width", "16", "--height", "16", "--samples", "3",
                 "--shapes", "2"]) == 0
    cfg = {
        "network": {"scales": [[2, 4], [4, 8]], "bins": 2, "timesteps": 2,
                    "k_points": 2, "adaptor_ratio": 2, "num_classes": 3},
        "train": {"learning_rate": 2e-3, "total_iterations": 10,
                  "warmup_iterations": 2, "batch_size": 2, "seed": 0},
    }
    (root / "config.json").write_text(json.dumps(cfg))
    return root


class TestCLI:
    def test_gen_creates_loadable_dataset(self, workspace):
        samples, info = load_dataset(workspace / "train")
        assert info["num_classes"] == 3
        assert len(samples) == 6

    def test_gen_is_idempotent_on_inputs(self, workspace, tmp_path):
        before = (workspace / "train" / "events_0000.evt1").read_bytes()
        assert main(["gen-synthetic", "--seed", "1", "--out-dir", str(tmp_path / "x"),
                     "--width", "16", "--height", "16", "--samples", "2"]) == 0
        assert (workspace / "train" / "events_0000.evt1").read_bytes() == before

    @pytest.mark.parametrize("flag, value, field", [("--duration-us", "0", "duration_us"),
                                                    ("--shapes", "-1", "num_shapes"),
                                                    ("--max-events", "0", "max_events"),
                                                    ("--max-events", "-5", "max_events")])
    def test_gen_rejects_out_of_range_input(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out-dir", str(out), "--samples", "2",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["256", "300"])
    def test_gen_rejects_more_classes_than_uint8_labels_hold(self, tmp_path, capsys, classes):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out-dir", str(out), "--classes", classes,
                     "--shapes", "260", "--width", "16", "--height", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_classes must lie in 2..255" in err
        assert not out.exists()

    def test_voxelize(self, workspace, tmp_path):
        src = workspace / "train" / "events_0001.evt1"
        out = tmp_path / "grid.npy"
        assert main(["voxelize", "--events", str(src), "--bins", "4",
                     "--out", str(out)]) == 0
        grid = np.load(out)
        assert grid.shape == (4, 16, 16)

    def test_voxelize_writes_exactly_the_given_path(self, workspace, tmp_path, capsys):
        # np.save(path) would append .npy, and the printed path would name
        # a file that was never written
        src = workspace / "train" / "events_0001.evt1"
        out = tmp_path / "grid"
        assert main(["voxelize", "--events", str(src), "--bins", "4",
                     "--out", str(out)]) == 0
        assert f"({out})" in capsys.readouterr().out
        assert np.array_equal(np.load(out), voxelize(read_events(src), 4))
        assert not (tmp_path / "grid.npy").exists()

    def test_voxelize_rejects_a_csv_event_file(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("x,y,t,p\n0,0,0,1\n3,2,5,-1\n")
        out = tmp_path / "g.npy"
        assert main(["voxelize", "--events", str(p), "--bins", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{p}: bad magic" in err
        assert not out.exists()

    def test_voxelize_empty_stream_needs_bounds(self, tmp_path):
        from hess.events import EventStream
        p = tmp_path / "empty.evt1"
        write_events(EventStream(8, 8), p)
        assert main(["voxelize", "--events", str(p), "--bins", "2",
                     "--out", str(tmp_path / "g.npy")]) == 1
        assert main(["voxelize", "--events", str(p), "--bins", "2",
                     "--t-start", "0", "--t-end", "10",
                     "--out", str(tmp_path / "g.npy")]) == 0

    @pytest.mark.parametrize("bounds", [["--t-end", "50"], ["--t-start", "100", "--t-end", "50"]])
    def test_voxelize_keeps_an_explicit_end(self, tmp_path, capsys, bounds):
        # every event is at t = 100: an end of 50 is an error, not [100, 101]
        p = tmp_path / "instant.evt1"
        write_events(make_stream(8, 8, [1, 2], [3, 4], [100, 100], [1, -1]), p)
        out = tmp_path / "g.npy"
        assert main(["voxelize", "--events", str(p), "--bins", "2",
                     "--out", str(out)] + bounds) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_train_eval_profile_pipeline(self, workspace):
        ckpt = workspace / "model.hess"
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--data", str(workspace / "train"),
                     "--out", str(ckpt), "--log-every", "0"]) == 0
        assert ckpt.exists()

        report = workspace / "eval.json"
        assert main(["eval", "--ckpt", str(ckpt),
                     "--data", str(workspace / "test"),
                     "--report", str(report),
                     "--emit-images", str(workspace / "img")]) == 0
        data = json.loads(report.read_text())
        assert 0.0 <= data["accuracy"] <= 1.0
        assert (workspace / "img" / "pred_0000.pgm").exists()
        assert (workspace / "img" / "pred_0000.ppm").exists()

        prof = workspace / "profile.json"
        assert main(["profile", "--ckpt", str(ckpt),
                     "--data", str(workspace / "test"),
                     "--report", str(prof)]) == 0
        pdata = json.loads(prof.read_text())
        assert pdata["gflops_snn"] >= 0.0
        assert pdata["e_total_mj"] > 0.0

    def test_eval_missing_checkpoint_fails_cleanly(self, workspace, capsys):
        assert main(["eval", "--ckpt", str(workspace / "nope.hess"),
                     "--data", str(workspace / "test")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_truncated_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "short.hess"
        ckpt.write_bytes(b"HESS\x01\0\0\0")
        assert main(["eval", "--ckpt", str(ckpt),
                     "--data", str(workspace / "test")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_corrupted_checkpoint_config_fails_cleanly(self, workspace, tmp_path,
                                                            capsys):
        ckpt = tmp_path / "flipped.hess"
        save_checkpoint(build(NetworkConfig(scales=((2, 4),), k_points=1)), ckpt)
        ckpt.write_bytes(ckpt.read_bytes().replace(b'"adaptor_ratio"', b'"bdaptor_ratio"'))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "test")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'bdaptor_ratio'" in err

    def test_eval_checkpoint_with_trailing_bytes_fails_cleanly(self, workspace, tmp_path,
                                                               capsys):
        ckpt = tmp_path / "long.hess"
        save_checkpoint(build(NetworkConfig(scales=((2, 4),), k_points=1)), ckpt)
        ckpt.write_bytes(ckpt.read_bytes() + bytes(8))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "test")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "long.hess: unexpected data" in err

    @pytest.mark.parametrize("meta", ['[]', '{"windows": []}', '{"samples": "3"}',
                                      '{"samples": true, "windows": [[0, 1]]}',
                                      '{"samples": -1, "windows": []}',
                                      '{"samples": 3, "windows": [[0, 1]]}',
                                      '{"samples": 1, "windows": [[0]]}',
                                      '{"samples": 1, "windows": [[0, 1.5]]}',
                                      '{"samples": 1,'])
    def test_eval_malformed_meta_fails_cleanly(self, workspace, tmp_path, capsys, meta):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(workspace / "test", data)
        (data / "meta.json").write_text(meta)
        ckpt = tmp_path / "m.hess"
        save_checkpoint(build(NetworkConfig(scales=((2, 4),), k_points=1)), ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "meta.json" in err

    def test_train_rejects_mistyped_config_value(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": {"k_points": 2.5}}))
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'k_points' must be int" in err

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", float("nan")), ("learning_rate", -1.0),
        ("weight_decay", float("inf")), ("poly_power", float("nan")),
        ("total_iterations", -5), ("warmup_iterations", -1)])
    def test_train_rejects_out_of_range_config_value(self, workspace, tmp_path, capsys,
                                                      key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train": {key: value}}))   # NaN, Infinity
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "m.hess").exists()

    @pytest.mark.parametrize("key, value", BAD_LIF)
    def test_train_rejects_bad_lif_setting(self, workspace, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": {key: value}}))   # NaN, Infinity
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be finite and >" in err
        assert not (tmp_path / "m.hess").exists()

    def test_train_rejects_bins_unequal_timesteps(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"network": {"bins": 2}}))     # timesteps stays 5
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bins must equal timesteps" in err
        assert not (tmp_path / "m.hess").exists()

    @pytest.mark.parametrize("where", ["param"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_eval_non_finite_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys,
                                                      where, bad):
        net = build(NetworkConfig(scales=((2, 4),), k_points=1))
        net.params["head.cls.b"].data[0] = bad
        ckpt = tmp_path / "bad.hess"
        save_checkpoint(net, ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "test")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "head.cls.b" in err and "non-finite" in err

    @pytest.mark.parametrize("section", ["network", "train"])
    def test_train_rejects_unknown_config_key(self, workspace, tmp_path, capsys, section):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {"bogus": 1}}))
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'bogus'" in err
        assert not (tmp_path / "m.hess").exists()

    def test_train_rejects_negative_log_every(self, workspace, tmp_path, capsys):
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--data", str(workspace / "train"), "--out", str(tmp_path / "m.hess"),
                     "--log-every", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "log_every" in captured.err
        assert "loss" not in captured.out
        assert not (tmp_path / "m.hess").exists()

    def test_train_rejects_ignore_index_config_key(self, workspace, tmp_path, capsys):
        # the ignore index is metrics.IGNORE_INDEX, not a setting
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train": {"ignore_index": 255}}))
        assert main(["train", "--config", str(cfg), "--data", str(workspace / "train"),
                     "--out", str(tmp_path / "m.hess")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'ignore_index'" in err
        assert not (tmp_path / "m.hess").exists()

    def test_sweep_rejects_an_empty_list(self, workspace, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        assert main(["sweep-timesteps", "--config", str(workspace / "config.json"),
                     "--data", str(workspace / "train"),
                     "--test-data", str(workspace / "test"),
                     "--list", ",", "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty" in err
        assert not report.exists()

    def test_sweep_and_ablate(self, workspace):
        sweep_report = workspace / "sweep.json"
        assert main(["sweep-timesteps", "--config", str(workspace / "config.json"),
                     "--data", str(workspace / "train"),
                     "--test-data", str(workspace / "test"),
                     "--list", "1,2", "--report", str(sweep_report)]) == 0
        rows = json.loads(sweep_report.read_text())
        assert [r["timesteps"] for r in rows] == [1, 2]

        ab_report = workspace / "ablate.json"
        assert main(["ablate", "--config", str(workspace / "config.json"),
                     "--data", str(workspace / "train"),
                     "--test-data", str(workspace / "test"),
                     "--report", str(ab_report)]) == 0
        rows = json.loads(ab_report.read_text())
        assert len(rows) == 8

    def test_gradcheck_lif_module(self, capsys):
        assert main(["gradcheck", "--module", "lif"]) == 0
        assert "ok" in capsys.readouterr().out
