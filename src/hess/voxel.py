"""Voxel grids from event streams, as plain float64 arrays.

Events are binned onto a B*H*W grid with a triangular kernel: an event at
scaled time s = (t - t_start)/(t_end - t_start) * (B - 1) contributes
p * max(0, 1 - |b - s|) to bin b, so each interior event splits between
at most two adjacent bins with weights summing to 1. The other functions
take one B*H*W grid or an N*B*H*W batch and treat each grid on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventStream


def voxelize(stream: EventStream, bins, t_start=None, t_end=None, out=None) -> np.ndarray:
    """Accumulate a stream into a B*H*W grid over [t_start, t_end]: a new
    zero grid, or ``out`` (C-contiguous float64, added to and returned).

    A missing bound is the stream's own first or last event time, and an
    end taken from the stream is widened to at least t_start + 1 (a single
    instant gets a 1 us window); a bound that is given is used as given."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if t_start is None or t_end is None:
        t = stream.events["t"]
        if not len(t):
            raise ValueError("an empty stream needs an explicit t_start and t_end")
        t_start = int(t[0]) if t_start is None else t_start
        t_end = max(int(t[-1]), t_start + 1) if t_end is None else t_end
    if t_end <= t_start:
        raise ValueError("voxel window must satisfy t_start < t_end")
    shape = (bins, stream.height, stream.width)
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    if len(stream) == 0:
        return out
    ts = stream.ts
    if ts[0] < t_start or ts[-1] > t_end:
        raise ValueError("events outside the voxel window")
    scaled = (ts - t_start) / float(t_end - t_start) * (bins - 1)
    b0 = np.floor(scaled).astype(np.int64)
    frac = scaled - b0
    ps = stream.ps.astype(np.float64)
    flat = out.reshape(bins, -1)
    pix = stream.ys * stream.width + stream.xs
    lo_ok = (b0 >= 0) & (b0 < bins)
    np.add.at(flat, (b0[lo_ok], pix[lo_ok]), (ps * (1.0 - frac))[lo_ok])
    hi_ok = (b0 + 1 < bins) & (frac > 0)
    np.add.at(flat, (b0[hi_ok] + 1, pix[hi_ok]), (ps * frac)[hi_ok])
    return out


def znorm(v):
    """Z-score each grid over its last three axes (population std,
    guarded near zero)."""
    axes = (-3, -2, -1)
    mean = v.mean(axis=axes, keepdims=True)
    std = v.std(axis=axes, keepdims=True)
    return (v - mean) / np.maximum(std, 1e-8)


def downsample_voxel(v, factor):
    """Average pooling of the last two axes with kernel = stride = factor."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return v.copy()
    *lead, h, w = v.shape
    if h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide {h}x{w}")
    return v.reshape(*lead, h // factor, factor, w // factor, factor).mean(axis=(-3, -1))


@dataclass
class ReferencePointSet:
    """Integer (y, x) anchor locations at one feature scale, on grids
    stacked along rows: row n*H + y is grid n's row y, so a batch of N
    H*W grids has height N*H and a single grid is the case N = 1."""

    ys: np.ndarray
    xs: np.ndarray
    scale: int
    height: int
    width: int

    def __len__(self):
        return len(self.ys)


def extract_reference_points(v, scale=1) -> ReferencePointSet:
    """Pixels whose summed absolute bin mass is nonzero, in row-major order
    of a B*H*W grid or of an N*B*H*W batch's grids stacked along rows."""
    mass = np.abs(v).sum(axis=-3)
    mass = mass.reshape(-1, mass.shape[-1])
    ys, xs = np.nonzero(mass > 0)
    return ReferencePointSet(ys.astype(np.int64), xs.astype(np.int64),
                             scale, mass.shape[0], mass.shape[1])
