import json

import numpy as np
import pytest

from hess import harness
from hess.harness import ABLATION_ROWS, ablation, format_table, run_eval, timestep_sweep
from hess.imgio import read_pgm
from hess.metrics import confusion, metrics
from hess.network import NetworkConfig, build
from hess.optim import TrainConfig, prepare_batches
from hess.network import predict
from hess.synthetic import SynthConfig, make_samples


NET = dict(scales=((2, 4), (4, 8)), bins=2, timesteps=2, k_points=2,
           adaptor_ratio=2, num_classes=3)
TRAIN = dict(learning_rate=2e-3, total_iterations=12, warmup_iterations=2,
             batch_size=2, seed=0)


def tiny_data(seed, n=6):
    cfg = SynthConfig(width=16, height=16, frame_count=n, num_shapes=2,
                      min_size=5, max_size=9, duration_us=20_000)
    return make_samples(seed, cfg)


class TestRunEval:
    def test_report_consistent_with_direct_metrics(self, tmp_path):
        net = build(NetworkConfig(seed=1, **NET))
        samples = tiny_data(2)
        report = run_eval(net, samples, out_dir=tmp_path / "img",
                          report_path=tmp_path / "report.json")
        frames, voxels, labels = prepare_batches(samples, net.config.bins)
        preds = predict(net, frames, voxels)
        acc, _, miou = metrics(confusion(preds, labels, 3))
        assert report["accuracy"] == acc
        assert report["miou"] == miou
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["accuracy"] == report["accuracy"]

    def test_emitted_pgm_matches_prediction(self, tmp_path):
        net = build(NetworkConfig(seed=3, **NET))
        samples = tiny_data(4, n=3)
        run_eval(net, samples, out_dir=tmp_path / "img")
        frames, voxels, _ = prepare_batches(samples, net.config.bins)
        preds = predict(net, frames, voxels)
        for i in range(len(samples)):
            assert np.array_equal(read_pgm(tmp_path / "img" / f"pred_{i:04d}.pgm"),
                                  preds[i].astype(np.uint8))

    def test_class_id_above_255_is_not_wrapped_into_the_pgm(self, tmp_path):
        # class 299 wins everywhere; a uint8 cast used to write it as 43
        net = build(NetworkConfig(seed=3, **dict(NET, num_classes=300)))
        net.blocks["head"]["cls.b"].data[299] = 1e3
        with pytest.raises(ValueError, match="PGM values must fit in 8 bits"):
            run_eval(net, tiny_data(4, n=1), out_dir=tmp_path / "img")
        assert not (tmp_path / "img" / "pred_0000.pgm").exists()

    def test_perfectly_labeled_sample(self):
        # a constant-class scene the net cannot miss after forcing its
        # prediction: compare against ground truth equal to prediction
        net = build(NetworkConfig(seed=5, **NET))
        samples = tiny_data(6, n=2)
        frames, voxels, _ = prepare_batches(samples, net.config.bins)
        preds = predict(net, frames, voxels)
        for s, p in zip(samples, preds):
            s.labels = p.astype(np.uint8)
        report = run_eval(net, samples)
        assert report["accuracy"] == 1.0
        assert report["miou"] == 1.0

    def test_empty_dataset_rejected(self):
        net = build(NetworkConfig(seed=1, **NET))
        with pytest.raises(ValueError, match="empty"):
            run_eval(net, [])


class TestAblation:
    def test_all_eight_rows_with_finite_metrics(self):
        rows = ablation(NetworkConfig(seed=7, **NET), TrainConfig(**TRAIN),
                        tiny_data(8), tiny_data(9, n=3))
        assert len(rows) == len(ABLATION_ROWS) == 8
        seen = set()
        for row in rows:
            seen.add((row["atw_on"], row["eds_on"], row["csf_on"]))
            assert np.isfinite(row["accuracy"]) and np.isfinite(row["miou"])
        assert len(seen) == 8

    def test_all_on_has_more_parameters_than_all_off(self):
        rows = ablation(NetworkConfig(seed=7, **NET), TrainConfig(**TRAIN),
                        tiny_data(8), tiny_data(9, n=3),
                        rows=(ABLATION_ROWS[0], ABLATION_ROWS[-1]))
        assert rows[1]["params"] > rows[0]["params"]

    def test_deterministic_across_reruns(self):
        args = (NetworkConfig(seed=11, **NET), TrainConfig(**TRAIN),
                tiny_data(10), tiny_data(12, n=3))
        a = ablation(*args, rows=ABLATION_ROWS[:2])
        b = ablation(*args, rows=ABLATION_ROWS[:2])
        assert a == b


    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ablation(NetworkConfig(seed=7, **NET), TrainConfig(**TRAIN),
                     tiny_data(8), tiny_data(9, n=3), rows=())


class TestTimestepSweep:
    def test_single_entry(self):
        rows = timestep_sweep(NetworkConfig(seed=13, **NET), TrainConfig(**TRAIN),
                              tiny_data(14), tiny_data(15, n=3), t_list=[1])
        assert len(rows) == 1
        assert rows[0]["timesteps"] == 1

    def test_requested_rows_and_determinism(self):
        args = (NetworkConfig(seed=16, **NET), TrainConfig(**TRAIN),
                tiny_data(17), tiny_data(18, n=3))
        a = timestep_sweep(*args, t_list=[1, 2])
        b = timestep_sweep(*args, t_list=[1, 2])
        assert [r["timesteps"] for r in a] == [1, 2]
        assert a == b

    def test_invalid_timestep_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            timestep_sweep(NetworkConfig(seed=1, **NET), TrainConfig(**TRAIN),
                           tiny_data(19), tiny_data(20, n=2), t_list=[0])

    def test_whole_list_checked_before_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(harness, "train", lambda net, *args: trained.append(net))
        with pytest.raises(ValueError, match=">= 1"):
            timestep_sweep(NetworkConfig(seed=1, **NET), TrainConfig(**TRAIN),
                           tiny_data(19), tiny_data(20, n=2), t_list=(1, 3, 0))
        assert trained == []


class TestFormatTable:
    def test_aligned_output(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 22, "b": True}])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a")
        assert lines == ["a   b     ", "1   0.5000", "22  yes   "]
