"""Inference cost accounting: dense multiply-accumulates for the frame
branch, spike-gated accumulates for the event branch, and the conversion
to millijoules.

Conventions: one "FLOP" in the published comparison figures is one MAC
(the energy coefficients below only reproduce those figures under this
reading). Dense MACs cost 4.6 pJ and spike-driven accumulates 0.9 pJ,
the standard 45 nm per-op estimates; `fit_energy_coefficients` recovers
both values from the reference table by least squares. Spiking layers
are charged MACs * input firing rate * timesteps; all fusion-module
arithmetic is charged to the dense column. Stage 0's spiking conv is
charged as spike-driven accumulates too, although its input is the
Z-scored analog voxel grid: its "firing rate" is the grid's nonzero
share (1.0), and on the default network it is about 94% of the spiking
ops. Charged as dense MACs it would raise e_total_mj by about 7%.

MACs are counted where they are computed: `ops.conv2d`, `ops.linear`
and `ops.bilinear_sample_many` (4 per sample point and channel) charge
the layer scope `network.forward` opens, as do the two K-point mixes of
the fusion injectors (1 per point and channel). Elementwise ops,
normalizations, activations, pooling, resizing and neuron updates are
not counted (they are negligible next to the above).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .network import HybridNetwork, forward
from .optim import check_shapes, prepare_batches
from .tensor import count_macs, no_grad

ANN_PJ_PER_MAC = 4.6
SNN_PJ_PER_AC = 0.9

# Published accuracy/efficiency figures for event-based segmentation
# methods on the driving benchmark (accuracy %, mIoU %, params in
# millions, dense GFLOPs, spike GFLOPs, total energy in mJ; None where
# not reported). HESS is the hybrid two-branch method this package
# implements at desk scale.
BASELINE_ROWS = (
    ("EV-SegNet",       89.76, 54.81, 29.09, 73.62, None,  338.65),
    ("EVDistill",       None,  58.02, 59.34, 12.45, None,  57.27),
    ("DTL",             None,  58.80, 60.48, 16.74, None,  77.01),
    ("Spiking-Deeplab", None,  33.70, 4.14,  None,  54.35, 48.91),
    ("E2VID",           87.91, 57.32, 10.71, 16.65, None,  76.59),
    ("EV-Transfer",     47.37, 14.91, 7.37,  7.88,  None,  36.25),
    ("ViD2E",           90.19, 56.01, 29.09, 73.62, None,  338.65),
    ("ESS",             88.43, 53.09, 12.91, 14.22, None,  65.41),
    ("ESS-Sup (E)",     91.08, 61.37, 12.91, 14.22, None,  65.41),
    ("ESS-Sup (E+F)",   90.37, 60.43, 12.91, 14.22, None,  65.41),
    ("EV-Segformer",    94.72, 54.41, 44.61, 9.88,  None,  45.42),
    ("OpenESS",         91.05, 63.00, None,  None,  None,  None),
    ("HALSIE",          92.50, 60.66, 1.82,  3.84,  0.267, 17.89),
    ("HESS",            95.07, 67.31, 1.79,  1.95,  0.110, 9.08),
)


@dataclass
class LayerCost:
    name: str
    kind: str                   # "ann" | "snn"
    macs: float                 # per inference (per sample)
    spike_rate: float = None    # SNN only, mean input firing rate
    timesteps: int = None       # SNN only

    def __post_init__(self):
        if self.macs < 0:
            raise ValueError("MAC count must be nonnegative")
        if self.spike_rate is not None and not 0.0 <= self.spike_rate <= 1.0:
            raise ValueError("spike rate must lie in [0, 1]")

    def ops(self):
        """MACs, or spike-gated accumulates MACs * input rate * timesteps."""
        if self.kind == "snn":
            return self.macs * self.spike_rate * self.timesteps
        return self.macs


@dataclass
class EnergyReport:
    gflops_ann: float
    gflops_snn: float
    e_total_mj: float
    layers: list

    def to_json(self, path):
        text = json.dumps(asdict(self), indent=1)
        with open(path, "w") as f:
            f.write(text)
        return text


def energy_total(gflops_ann, gflops_snn):
    """Millijoules per inference at 4.6 pJ/MAC and 0.9 pJ/AC."""
    if gflops_ann < 0 or gflops_snn < 0:
        raise ValueError("operation counts must be nonnegative")
    return ANN_PJ_PER_MAC * gflops_ann + SNN_PJ_PER_AC * gflops_snn


def fit_energy_coefficients(rows=BASELINE_ROWS):
    """Least-squares (pJ/op dense, pJ/op spiking) over the reference rows
    that report operation counts."""
    a, b = [], []
    for (_, _, _, _, ga, gs, e) in rows:
        if e is None or (ga is None and gs is None):
            continue
        a.append([ga or 0.0, gs or 0.0])
        b.append(e)
    coef, *_ = np.linalg.lstsq(np.asarray(a), np.asarray(b), rcond=None)
    return float(coef[0]), float(coef[1])


def profile(net: HybridNetwork, samples) -> EnergyReport:
    """Run the dataset through the network and reduce the MACs its ops
    charge to per-layer costs.

    Each sample is prepared and run on its own. MAC counts and spike rates
    are averaged over samples; parameters are untouched. A spiking layer
    charges all net.config.timesteps steps at once; its MACs are reported
    per timestep.
    """
    if not samples:
        raise ValueError("profiling needs at least one sample")
    check_shapes(samples)
    runs = []
    for s in samples:
        frames, voxels, _ = prepare_batches([s], net.config.bins)
        with no_grad(), count_macs() as counts:
            forward(net, frames, voxels)
        runs.append(counts)

    def mean(values):
        return float(np.mean(list(values)))

    steps = net.config.timesteps
    layers = []
    for name, rec in runs[0].items():
        per_run = [r[name] for r in runs]
        if rec["kind"] == "snn":
            layers.append(LayerCost(
                name, "snn", mean(r["macs"] / steps for r in per_run),
                spike_rate=mean(r["nonzero"] / r["inputs"] for r in per_run),
                timesteps=steps))
        else:
            layers.append(LayerCost(name, "ann", mean(r["macs"] for r in per_run)))
    gflops_ann = sum(l.ops() for l in layers if l.kind == "ann") / 1e9
    gflops_snn = sum(l.ops() for l in layers if l.kind == "snn") / 1e9
    return EnergyReport(gflops_ann, gflops_snn,
                        energy_total(gflops_ann, gflops_snn), layers)
