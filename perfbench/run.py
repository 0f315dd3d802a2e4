"""hess benchmark: train, infer and ingest workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; hess is imported from ``src/``. Each run
is one process with one BLAS thread. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs
the workload untraced for half the time, then traced for the other half,
and gives the per-layer metrics plus the tracing overhead. Lines before the
last give the environment, figures under the names README.md uses, and any
failed check. ``--workload all`` runs the three workloads, each in its own
process, and prints their metrics side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NPROC = os.cpu_count() or 1
# One BLAS thread: the step's matrices are small, and a second thread only
# adds waiting on the other core, which the rest of the box shares.
BLAS_THREADS = 1
# must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

# a traced unit's span opens and closes a few microseconds off the workload's
# own timestamps for it, plus any garbage-collector pause in between
UNIT_TOLERANCE_S, UNIT_TOLERANCE_FRAC = 1e-3, 0.01

E2E_UNITS = {"setup_s": "s", "latency_ms_mean": "ms", "latency_ms_p90": "ms",
             "samples_per_s": "samples/s", "peak_rss_mb": "MB"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "infer", "ingest", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import hess  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import hess from {os.path.join(ROOT, 'src')}: {e}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        fn = workloads.WORKLOADS[args.workload]
        print(json.dumps({"env": environment(workdir)}))
        if args.trace:
            from spans import Tracer
            untraced = fn(args.seed, args.seconds / 2, workdir)
            traced = fn(args.seed, args.seconds / 2, workdir, Tracer())
            metrics, failures, attempted = per_layer(args.workload, untraced, traced)
        else:
            result = fn(args.seed, args.seconds, workdir)
            metrics = end_to_end(result)
            print_aliases(args.workload, result)
            failures, attempted = result.failures, result.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures[:20]:
        print(f"check failed: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def end_to_end(r):
    values = {
        "setup_s": statistics.median(r.setup_s),
        "latency_ms_mean": 1e3 * sum(r.latencies_s) / len(r.latencies_s),
        "latency_ms_p90": r.latency_ms(90),
        "samples_per_s": r.samples / r.busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def print_aliases(workload, r):
    """The end-to-end figures under their per-workload names (README.md)."""
    import numpy as np
    med = lambda xs: float(np.median(xs)) * 1e3  # noqa: E731
    lines = {"samples timed": len(r.latencies_s)}
    if workload == "train":
        lines.update(train_step_ms_p50=r.latency_ms(50), train_step_ms_p90=r.latency_ms(90),
                     train_samples_per_s=r.samples / r.busy_s,
                     train_loss_final=r.counts["train_loss_final"],
                     loss_sha256=r.info["loss_sha256"])
    elif workload == "infer":
        lines.update(infer_b1_ms_p50=r.latency_ms(50), infer_b1_ms_p90=r.latency_ms(90),
                     infer_frames_only_ms_p50=med(r.info["frames_only_s"]),
                     eval_samples_per_s=r.info["eval_samples_per_s"],
                     profile_samples_per_s=r.info["profile_samples_per_s"])
    else:
        lines.update(gen_samples_per_s=r.info["gen_samples_per_s"],
                     load_samples_per_s=r.info["load_samples_per_s"])
    lines["failed_ratio"] = len(r.failures) / max(r.attempted, 1)
    print(json.dumps({"workload": workload, **lines}))


def per_layer(workload, untraced, traced):
    """Per-layer metrics of the traced phase, plus the checks that tie the
    traced phase to the untraced one."""
    import numpy as np
    import workloads

    tracer = traced.tracer
    failures = untraced.failures + traced.failures
    attempted = untraced.attempted + traced.attempted
    metrics, unit_self_s = tracer.report(traced.timed_units)

    def check(ok, what):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    for kind, n in tracer.span_errors().items():
        check(n == 0, f"trace: {n} spans {kind}")
    # the self times inside a unit must add up to the wall time the workload
    # measured for it on its own clock
    miss = (np.abs(np.subtract(unit_self_s, traced.unit_s))
            if len(unit_self_s) == len(traced.unit_s) else np.array([np.inf]))
    check(np.all(miss <= UNIT_TOLERANCE_S + UNIT_TOLERANCE_FRAC * np.asarray(traced.unit_s)),
          f"trace: self times of a unit miss its timed wall time by {miss.max():.3g} s")

    counts = dict.fromkeys(count_metric_names(), 0.0)
    counts.update(traced.counts)
    # counts the tracer took inside the units that repeat exactly for a seed
    window = {"train": [-1] + list(range(workloads.COUNT_STEPS - 1)),
              "infer": [traced.timed_units[0]], "ingest": []}[workload]
    for name in tracer.counts:
        values = [v for u in window for v in tracer.unit_counts(name, u)]
        if values:
            counts[name] = float(np.mean(values))
    if workload == "infer":
        for u in traced.timed_units[1:]:
            for name in tracer.counts:
                check(np.mean(tracer.unit_counts(name, u)) == counts[name],
                      f"trace: {name} differs between inference rounds")
    # the same seed must give the same counts traced or not
    for name, value in untraced.counts.items():
        check(traced.counts[name] == value,
              f"count {name} differs between the untraced and traced phases")
    if workload == "train":
        check(np.array_equal(untraced.info["losses"], traced.info["losses"])
              and untraced.info["tape"] == traced.info["tape"],
              "train: losses or tape sizes differ with tracing on")
    overhead = traced.latency_ms(50) - untraced.latency_ms(50)
    counts["trace.overhead_ms"] = overhead
    counts["trace.overhead_frac"] = overhead / untraced.latency_ms(50)
    units = per_layer_units()
    unknown = sorted(set(counts) - set(units))
    check(not unknown, f"trace: counts missing from the metric list: {unknown}")
    metrics.update(counts)
    print(json.dumps({"untraced_latency_ms_p50": untraced.latency_ms(50),
                      "traced_latency_ms_p50": traced.latency_ms(50),
                      "units_traced": len(traced.timed_units),
                      "unit_timing_miss_ms_max": float(miss.max()) * 1e3}))
    return ({k: {"value": metrics[k], "unit": units[k]} for k in units},
            failures, attempted)


def count_metric_names():
    import hess.network
    scales = hess.network.NetworkConfig().scales
    names = ["tensor.tape_records", "train_loss_final", "events.per_sample",
             "ingest.bytes_written", "energy.gflops_ann", "energy.gflops_snn",
             "energy.e_total_mj"]
    names += [f"spiking.rate.stage{i}" for i in range(len(scales))]
    names += [f"fusion.eds_ref_frac.s{f}" for f, _ in scales]
    layers = [f"stage{i}.{b}" for i in range(len(scales)) for b in ("ann", "snn")]
    layers += [f"{kind}{i}" for kind in ("atw", "eds", "csf") for i in range(len(scales))]
    layers += [f"head.lateral{i}" for i in range(len(scales))] + ["head.cls"]
    names += [f"energy.macs.{layer}" for layer in layers]
    return names


def per_layer_units():
    """Every per-layer metric name, in BENCHMARK.json order, with its unit."""
    import spans
    units = {}
    for name in spans.time_metric_names():
        units[name] = "calls/unit" if name.endswith(".calls") else "ms"
    special = {"tensor.tape_records": "records/step", "train_loss_final": "nats",
               "events.per_sample": "events", "ingest.bytes_written": "bytes",
               "energy.gflops_ann": "GFLOP", "energy.gflops_snn": "GFLOP",
               "energy.e_total_mj": "mJ"}
    for name in count_metric_names():
        units[name] = special.get(name, "MAC" if name.startswith("energy.macs") else "ratio")
    units["trace.overhead_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workdir):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src", "hess")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    return {"nproc": NPROC, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": sys.version.split()[0], "tmp_fs": filesystem(workdir),
            "src_hess_lines": lines}


def blas_threads():
    """Threads the loaded OpenBLAS reports; the variable we set otherwise."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def filesystem(path):
    """Type of the filesystem holding path, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def run_all(args):
    """Each workload in a fresh process; their metrics side by side."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("train", "infer", "ingest"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:7s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
