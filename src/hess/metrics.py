"""Segmentation metrics: the confusion counts, pixel accuracy, per-class
IoU and mIoU (classes with zero union are excluded from the mean), and
IGNORE_INDEX, the label that neither they nor the loss score."""

from __future__ import annotations

import numpy as np

IGNORE_INDEX = 255


def confusion(pred, gt, num_classes):
    """(K, K) int64 counts of (ground truth, prediction) pairs, skipping
    ignored pixels; counts over several batches add elementwise."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth sizes differ")
    keep = gt != IGNORE_INDEX
    pred, gt = pred[keep], gt[keep]
    for name, arr in (("ground-truth", gt), ("prediction", pred)):
        bad = (arr < 0) | (arr >= num_classes)
        if bad.any():
            raise ValueError(f"{name} label {arr[bad][0]} outside "
                             f"[0, {num_classes})")
    idx = gt * num_classes + pred
    counts = np.bincount(idx, minlength=num_classes ** 2)
    return counts.reshape(num_classes, num_classes)


def metrics(cm):
    """(pixel accuracy, per-class IoU array with NaN where undefined, mIoU)
    of a (K, K) confusion counts array."""
    total = int(cm.sum())
    if total == 0:
        raise ValueError("no scored pixels")
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    iou = np.full(len(cm), np.nan)
    present = union > 0
    iou[present] = tp[present] / union[present]
    accuracy = float(tp.sum() / total)
    miou = float(np.mean(iou[present]))
    return accuracy, iou, miou
