"""Evaluation, the module-toggle ablation grid and the timestep sweep."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .energy import profile
from .imgio import colorize_labels, write_pgm, write_ppm
from .metrics import confusion, metrics
from .network import NetworkConfig, build, predict
from .optim import TrainConfig, check_shapes, prepare_batches, train

# the 8 module-toggle rows of the ablation grid: frame+event baseline,
# each injector/fusion block alone, the pairs, then everything on
ABLATION_ROWS = (
    ("F-E", dict(atw_on=False, eds_on=False, csf_on=False)),
    ("F-E+ATW", dict(atw_on=True, eds_on=False, csf_on=False)),
    ("F-E+EDS", dict(atw_on=False, eds_on=True, csf_on=False)),
    ("F-E+CSF", dict(atw_on=False, eds_on=False, csf_on=True)),
    ("F-E+ATW+EDS", dict(atw_on=True, eds_on=True, csf_on=False)),
    ("F-E+ATW+CSF", dict(atw_on=True, eds_on=False, csf_on=True)),
    ("F-E+EDS+CSF", dict(atw_on=False, eds_on=True, csf_on=True)),
    ("F-E+ATW+EDS+CSF", dict(atw_on=True, eds_on=True, csf_on=True)),
)


def run_eval(net, samples, out_dir=None, report_path=None, batch_size=8):
    """Aggregate one confusion matrix over the dataset; each batch_size
    slice is prepared, predicted, scored and written before the next.

    Optionally writes predicted label maps (PGM), palette renderings
    (PPM) and the JSON report. Returns the report dict.
    """
    if not samples:
        raise ValueError("empty evaluation dataset")
    num_classes = net.config.num_classes
    check_shapes(samples)
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for lo in range(0, len(samples), batch_size):
        frames, voxels, labels = prepare_batches(samples[lo:lo + batch_size],
                                                 net.config.bins)
        preds = predict(net, frames, voxels)
        cm += confusion(preds, labels, num_classes)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            for i, p in enumerate(preds, lo):
                write_pgm(p, os.path.join(out_dir, f"pred_{i:04d}.pgm"))
                write_ppm(colorize_labels(p), os.path.join(out_dir, f"pred_{i:04d}.ppm"))

    accuracy, iou, miou = metrics(cm)
    report = {
        "samples": len(samples),
        "accuracy": accuracy,
        "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
        "miou": miou,
    }
    if report_path is not None:
        with open(report_path, "w") as f:
            json.dump(report, f, indent=1)
    return report


def _sweep(base_net_cfg, train_cfg, train_samples, test_samples, variants,
           extra):
    """Build, train and evaluate one model per (row label fields, config
    changes) variant; a row is the label fields, accuracy, miou and
    extra(net). Seeds are shared across rows, so reruns are deterministic."""
    if not variants:
        raise ValueError("nothing to sweep: the list of variants is empty")
    results = []
    for label, changes in variants:
        net = build(dataclasses.replace(base_net_cfg, **changes))
        train(net, train_samples, train_cfg)
        report = run_eval(net, test_samples)
        results.append({**label, "accuracy": report["accuracy"],
                        "miou": report["miou"], **extra(net)})
    return results


def ablation(base_net_cfg: NetworkConfig, train_cfg: TrainConfig,
             train_samples, test_samples, rows=ABLATION_ROWS):
    """One model per module-toggle combination; rows are dicts (name,
    toggles, accuracy, miou, params)."""
    return _sweep(base_net_cfg, train_cfg, train_samples, test_samples,
                  [({"name": name, **toggles}, toggles) for name, toggles in rows],
                  lambda net: {"params": net.param_count()})


def timestep_sweep(base_net_cfg: NetworkConfig, train_cfg: TrainConfig,
                   train_samples, test_samples, t_list=(1, 3, 5, 7)):
    """One model per timestep count, the voxel re-binned so B = T; rows are
    dicts (timesteps, accuracy, miou, energy_mj). The whole list is checked
    before any model trains."""
    if any(t < 1 for t in t_list):
        raise ValueError("timesteps must be >= 1")
    return _sweep(base_net_cfg, train_cfg, train_samples, test_samples,
                  [({"timesteps": t}, dict(bins=t, timesteps=t)) for t in t_list],
                  lambda net: {"energy_mj": profile(net, test_samples).e_total_mj})


def format_table(rows):
    """Aligned plain-text rendering of a non-empty list of uniform dicts."""
    cols = list(rows[0])
    rendered = [[_fmt(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in rendered))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)
