import numpy as np
import pytest

from hess.metrics import IGNORE_INDEX, confusion, metrics
from hess.ops import cross_entropy


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        p = np.random.default_rng(0).integers(0, 3, size=(2, 5, 5))
        cm = confusion(p, p, 3)
        assert cm.dtype == np.int64 and cm.shape == (3, 3)
        assert np.all(cm == np.diag(np.diag(cm)))
        assert cm.sum() == 50

    def test_all_ignored_gives_zero_matrix(self):
        gt = np.full((1, 4, 4), 255)
        cm = confusion(np.zeros((1, 4, 4), dtype=int), gt, 3)
        assert cm.shape == (3, 3) and cm.sum() == 0

    def test_ignored_pixel_counts_in_neither_loss_nor_confusion(self):
        g = np.random.default_rng(3)
        logits = g.normal(size=(1, 3, 2, 3))
        gt = np.array([[[0, 2, 1], [1, 0, 2]]])
        pred = logits.argmax(axis=1)
        marked = gt.copy()
        marked[0, 1, 2] = IGNORE_INDEX
        keep = np.ones(gt.shape, bool)
        keep[0, 1, 2] = False
        assert np.array_equal(confusion(pred, marked, 3),
                              confusion(pred[keep], gt[keep], 3))
        # the loss is the mean over the other five pixels
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        picked = np.take_along_axis(logp, gt[:, None], axis=1)[:, 0]
        assert cross_entropy(logits, marked).item() == pytest.approx(
            -picked[keep].mean(), abs=1e-12)

    def test_hand_case(self):
        pred = np.array([[0, 1], [1, 1]])
        gt = np.array([[0, 1], [0, 1]])
        cm = confusion(pred, gt, 2)
        assert cm[0, 0] == 1
        assert cm[0, 1] == 1
        assert cm[1, 1] == 2
        assert cm[1, 0] == 0

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            confusion(np.array([5]), np.array([0]), 3)
        with pytest.raises(ValueError, match="outside"):
            confusion(np.array([0]), np.array([4]), 3)

    def test_merge_is_elementwise_addition(self):
        g = np.random.default_rng(1)
        p1, t1 = g.integers(0, 3, (10,)), g.integers(0, 3, (10,))
        p2, t2 = g.integers(0, 3, (10,)), g.integers(0, 3, (10,))
        merged = confusion(p1, t1, 3) + confusion(p2, t2, 3)
        joint = confusion(np.concatenate([p1, p2]), np.concatenate([t1, t2]), 3)
        assert np.array_equal(merged, joint)


class TestMetrics:
    def test_perfect_scores(self):
        p = np.random.default_rng(2).integers(0, 4, size=(3, 6, 6))
        acc, iou, miou = metrics(confusion(p, p, 4))
        assert acc == 1.0
        assert miou == 1.0
        assert np.all(iou[~np.isnan(iou)] == 1.0)

    def test_hand_case_exact_values(self):
        pred = np.array([[0, 1], [1, 1]])
        gt = np.array([[0, 1], [0, 1]])
        acc, iou, miou = metrics(confusion(pred, gt, 2))
        assert acc == 0.75
        assert iou[0] == 0.5
        assert iou[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert miou == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_absent_class_excluded_from_mean(self):
        pred = np.array([0, 1, 1])
        gt = np.array([0, 1, 1])
        acc, iou, miou = metrics(confusion(pred, gt, 5))
        assert np.isnan(iou[2]) and np.isnan(iou[3]) and np.isnan(iou[4])
        assert miou == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="no scored"):
            metrics(np.zeros((3, 3), dtype=np.int64))

    def test_relabeling_invariance(self):
        g = np.random.default_rng(3)
        pred = g.integers(0, 3, size=200)
        gt = g.integers(0, 3, size=200)
        acc1, iou1, miou1 = metrics(confusion(pred, gt, 3))
        perm = np.array([2, 0, 1])
        acc2, iou2, miou2 = metrics(confusion(perm[pred], perm[gt], 3))
        assert acc1 == acc2
        assert miou1 == pytest.approx(miou2, abs=1e-15)
        assert np.allclose(np.sort(iou1), np.sort(iou2), equal_nan=True)
