"""Command-line interface.

Subcommands cover the whole pipeline: synthetic data generation,
voxelization, training, evaluation with image emission, energy profiling,
gradient checking and the ablation / timestep-sweep harnesses. All
commands exit 0 on success and nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .events import read_events
from .harness import ablation, format_table, run_eval, timestep_sweep
from .network import (NetworkConfig, build, config_from_dict, load_checkpoint,
                      save_checkpoint)
from .optim import TrainConfig, train
from .synthetic import SynthConfig, load_dataset, make_samples, save_dataset
from .voxel import voxelize


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser():
    p = argparse.ArgumentParser(prog="hess",
                                description="hybrid frame/event segmentation pipeline")
    sub = p.add_subparsers(required=True)

    g = sub.add_parser("gen-synthetic", help="write a moving-shapes dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--samples", type=int, default=50)
    g.add_argument("--shapes", type=int, default=3)
    g.add_argument("--duration-us", type=int, default=100_000)
    g.add_argument("--max-events", type=int, default=6400)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("voxelize", help="build a voxel grid from an event file")
    v.add_argument("--events", required=True)
    v.add_argument("--bins", type=int, default=5)
    v.add_argument("--out", required=True)
    v.add_argument("--t-start", type=int, default=None)
    v.add_argument("--t-end", type=int, default=None)
    v.set_defaults(func=cmd_voxelize)

    t = sub.add_parser("train", help="train a network on a dataset directory")
    t.add_argument("--config", required=True, help="JSON with network/train sections")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--log-every", type=int, default=100)
    t.add_argument("--dtype", default="float64", choices=["float32", "float64"],
                   help="float32 trades gradient-check headroom for speed")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report", default=None)
    e.add_argument("--emit-images", default=None)
    e.set_defaults(func=cmd_eval)

    pr = sub.add_parser("profile", help="estimate inference cost and energy")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--report", default=None)
    pr.set_defaults(func=cmd_profile)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--module", default="all",
                    choices=["all", "atw", "eds", "csf", "lif", "net"])
    gc.set_defaults(func=cmd_gradcheck)

    sw = sub.add_parser("sweep-timesteps", help="train/eval across timestep counts")
    sw.add_argument("--config", required=True)
    sw.add_argument("--data", required=True)
    sw.add_argument("--test-data", required=True)
    sw.add_argument("--list", default="1,3,5,7")
    sw.add_argument("--report", default=None)
    sw.set_defaults(func=cmd_sweep)

    ab = sub.add_parser("ablate", help="train/eval the 8 module-toggle combinations")
    ab.add_argument("--config", required=True)
    ab.add_argument("--data", required=True)
    ab.add_argument("--test-data", required=True)
    ab.add_argument("--report", default=None)
    ab.set_defaults(func=cmd_ablate)
    return p


def load_config(path):
    """(NetworkConfig, TrainConfig) from the "network" and "train" sections
    of a JSON file; an unknown key or a malformed section is a ValueError."""
    with open(path) as f:
        raw = json.load(f)
    return tuple(config_from_dict(cls, raw.get(section, {}) if isinstance(raw, dict) else None,
                                  f"{path}: section {section!r}")
                 for section, cls in (("network", NetworkConfig), ("train", TrainConfig)))


def cmd_gen(args):
    cfg = SynthConfig(width=args.width, height=args.height,
                      duration_us=args.duration_us, num_shapes=args.shapes,
                      num_classes=args.classes, frame_count=args.samples)
    samples = make_samples(args.seed, cfg, max_events=args.max_events)
    save_dataset(samples, args.out_dir,
                 meta={"num_classes": args.classes, "seed": args.seed})
    events = sum(len(s.events) for s in samples)
    print(f"wrote {len(samples)} samples ({events} events) to {args.out_dir}")


def cmd_voxelize(args):
    stream = read_events(args.events)
    grid = voxelize(stream, args.bins, args.t_start, args.t_end)
    np.save(args.out, grid)
    bins, height, width = grid.shape
    print(f"voxelized {len(stream)} events into {bins}x{height}x{width} ({args.out})")


def cmd_train(args):
    from .tensor import using_dtype

    net_cfg, train_cfg = load_config(args.config)
    samples, _ = load_dataset(args.data)
    with using_dtype(getattr(np, args.dtype)):
        net = build(net_cfg)
        print(f"training {net.param_count()} parameters on {len(samples)} samples")
        net, losses = train(net, samples, train_cfg, log_every=args.log_every)
        save_checkpoint(net, args.out)
    print(f"final loss {losses[-1]:.4f}; checkpoint written to {args.out}")


def cmd_eval(args):
    net, _ = load_checkpoint(args.ckpt)
    samples, _ = load_dataset(args.data)
    report = run_eval(net, samples, out_dir=args.emit_images,
                      report_path=args.report)
    print(f"accuracy {report['accuracy']:.4f}  miou {report['miou']:.4f} "
          f"({report['samples']} samples)")


def cmd_profile(args):
    from .energy import profile

    net, _ = load_checkpoint(args.ckpt)
    samples, _ = load_dataset(args.data)
    report = profile(net, samples)
    if args.report:
        report.to_json(args.report)
    print(f"gflops_ann {report.gflops_ann:.6f}  gflops_snn "
          f"{report.gflops_snn:.6f}  e_total {report.e_total_mj:.4f} mJ")


def cmd_gradcheck(args):
    from .gradcheck import run_checks

    failed = False
    for name, err, tol in run_checks(args.module):
        ok = err <= tol
        failed = failed or not ok
        print(f"{name:4s}  max relative error {err:.3e}  "
              f"(bound {tol:g})  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_sweep(args):
    t_list = [int(v) for v in args.list.split(",") if v]
    _run_harness(args, timestep_sweep, t_list=t_list)


def cmd_ablate(args):
    _run_harness(args, ablation)


def _run_harness(args, harness, **kwargs):
    """Train and evaluate the harness's models on the --data / --test-data
    sets, print their table and write it to --report as JSON."""
    net_cfg, train_cfg = load_config(args.config)
    train_samples, _ = load_dataset(args.data)
    test_samples, _ = load_dataset(args.test_data)
    rows = harness(net_cfg, train_cfg, train_samples, test_samples, **kwargs)
    print(format_table(rows))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(rows, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
