"""Spans and counts recorded around hess's public functions, from outside.

`Tracer.install` swaps each function listed in PAIRED and SINGLE for a wrapper in every
hess module namespace that holds it (``from .x import f`` copies the
reference), and `Tracer.uninstall` puts the originals back. A wrapper opens a
span for the call and, when the call returns, wraps the backward closure of
every record the call appended to ``hess.tensor._tape`` that no inner wrapper
claimed, so the backward pass is attributed to the same layer as
``<layer>.bwd`` spans. Nothing inside ``src/`` changes.

The workload marks its timed units (a training step, an inference round, an
ingest pass) with `begin_unit`; a unit is a root span. `span_errors` finds
spans that break nesting, and `report` gives, beside the per-layer metrics,
the sum of the self times inside each unit, which the benchmark compares with
the unit's wall time as the workload timed it on its own clock.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from hess import (energy, events, fusion, harness, imgio, metrics, network,
                  ops, optim, spiking, synthetic, tensor, voxel)

MODULES = dict(energy=energy, events=events, fusion=fusion, harness=harness,
               imgio=imgio, metrics=metrics, network=network, ops=ops,
               optim=optim, spiking=spiking, synthetic=synthetic,
               tensor=tensor, voxel=voxel)

# Layers reported as <span>.fwd_ms / <span>.bwd_ms: they append tape records.
PAIRED = ("ops.conv2d", "ops.bilinear_sample_many", "ops.gather_pixels_many",
          "ops.scatter_points_many", "ops.interp_resize", "ops.group_norm",
          "ops.cross_entropy", "spiking.lif_forward_seq", "fusion.atw_apply",
          "fusion.eds_inject", "fusion.csf_fuse", "fusion.csf_select",
          "network.forward")
# Layers reported as <span>_ms.
SINGLE = ("voxel.voxelize", "voxel.downsample_voxel",
          "voxel.extract_reference_points", "optim.prepare_batches",
          "optim.adamw_step", "tensor.backward", "network.save_checkpoint",
          "network.load_checkpoint", "harness.run_eval", "metrics.confusion",
          "energy.profile", "events.write_events", "events.read_events",
          "imgio.write_pgm", "imgio.read_pgm", "synthetic.gen_synthetic",
          "synthetic.save_dataset", "synthetic.load_dataset")
# Methods traced on their class: span name -> (module, class, method).
METHODS = {"optim.adamw_step": ("optim", "AdamW", "step"),
           "tensor.backward": ("tensor", "Tensor", "backward")}

# Stage index of a spike tensor, from its channel count (default network).
STAGE_OF_CHANNELS = {c: i for i, (_, c) in
                     enumerate(network.NetworkConfig().scales)}


def _fwd_name(span):
    return "network.forward_self_ms" if span == "network.forward" else f"{span}.fwd_ms"


def time_metric_names():
    names = []
    for span in PAIRED:
        names += [_fwd_name(span), f"{span}.bwd_ms"]
    names += [f"{span}_ms" for span in SINGLE]
    names += [f"{span}.calls" for span in PAIRED + SINGLE]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.t0 = []
        self.t1 = []
        self.parent = []
        self.stack = []
        self.units = []          # span index of each unit root
        self.nesting_errors = 0
        # count name -> {unit index: [values]}; unit -1 is outside any unit
        self.counts = defaultdict(lambda: defaultdict(list))
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(float("nan"))
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i):
        self.t1[i] = time.perf_counter()
        if not self.stack or self.stack.pop() != i:
            self.nesting_errors += 1

    def begin_unit(self):
        """Close the open unit, if any, and open the next one."""
        self.end_unit()
        self.units.append(self.open("unit"))

    def end_unit(self):
        if self.units and self.stack and self.stack[-1] == self.units[-1]:
            self.close(self.units[-1])

    def count(self, name, value):
        unit = len(self.units) - 1 if self.units and self.units[-1] in self.stack else -1
        self.counts[name][unit].append(value)

    # -- installation --------------------------------------------------------

    def install(self):
        for span in PAIRED + SINGLE:
            if span in METHODS:
                mod, cls, meth = METHODS[span]
                owner = getattr(MODULES[mod], cls)
                orig = getattr(owner, meth)
                setattr(owner, meth, self._wrap(span, orig))
                self._undo.append((owner, meth, orig))
                continue
            mod, fn = span.split(".")
            orig = getattr(MODULES[mod], fn)
            wrapper = self._wrap(span, orig)
            for module in MODULES.values():
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name, fn):
        tape = tensor._tape.records
        bwd_name = name + ".bwd"
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            n0 = len(tape)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            for rec in tape[n0:]:
                if rec.backward is not None and not hasattr(rec.backward, "claimed"):
                    rec.backward = self._wrap_backward(bwd_name, rec.backward)
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, name, fn):
        def backward(*grads):
            i = self.open(name)
            try:
                return fn(*grads)
            finally:
                self.close(i)

        backward.claimed = True
        return backward

    # -- counts taken where the work happens ---------------------------------

    def _on_spiking_lif_forward_seq(self, args, spikes):
        stage = STAGE_OF_CHANNELS.get(spikes.shape[2])
        if stage is not None:
            self.count(f"spiking.rate.stage{stage}", float(spikes.data.mean()))

    def _on_voxel_extract_reference_points(self, args, refs):
        self.count(f"fusion.eds_ref_frac.s{refs.scale}",
                   len(refs) / (refs.height * refs.width))

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """Arrays over spans: name, self seconds, top-level ancestor, duration."""
        t0 = np.asarray(self.t0)
        dur = np.asarray(self.t1) - t0
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        top = np.arange(len(parent))
        for i in range(len(parent)):
            if parent[i] >= 0:
                top[i] = top[parent[i]]
        return np.asarray(self.names), dur - child, top, dur

    def span_errors(self):
        """Counts of spans that break nesting, by kind (0 when all is well)."""
        _, self_s, _, dur = self.self_times()
        t0, t1 = np.asarray(self.t0), np.asarray(self.t1)
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        outside = (t0[has] < t0[parent[has]]) | (t1[has] > t1[parent[has]])
        return {"closed out of order": self.nesting_errors,
                "never closed": int(np.isnan(dur).sum()),
                "negative self time": int((self_s < -1e-9).sum()),
                "outside its parent": int(outside.sum())}

    def report(self, timed_units):
        """Per-layer metrics over the traced phase.

        Times are self milliseconds per call over every span recorded
        (set-up included); ``.calls`` is calls per timed unit. Also returns,
        for each timed unit, the sum of the self times of the spans inside it.
        """
        names, self_s, top, _ = self.self_times()
        roots = [self.units[u] for u in timed_units]
        timed = np.isin(top, roots)

        def per_call_ms(name):
            sel = names == name
            calls = int(sel.sum())
            return float(self_s[sel].sum()) * 1e3 / calls if calls else 0.0

        out = {}
        for span in PAIRED:
            out[_fwd_name(span)] = per_call_ms(span)
            out[f"{span}.bwd_ms"] = per_call_ms(span + ".bwd")
        for span in SINGLE:
            out[f"{span}_ms"] = per_call_ms(span)
        for span in PAIRED + SINGLE:
            out[f"{span}.calls"] = int((timed & (names == span)).sum()) / max(len(roots), 1)
        return out, [float(self_s[top == u].sum()) for u in roots]

    def unit_counts(self, name, unit):
        return self.counts[name].get(unit, [])
