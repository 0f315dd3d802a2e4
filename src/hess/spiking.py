"""Leaky integrate-and-fire dynamics with hard reset and a sigmoid
surrogate gradient.

Membrane update per step: H = V + (X - V)/tau, spike S = [H >= theta],
then V resets to 0 where S fired and keeps H elsewhere. The
membrane is stored as a compensated pair (hi, lo): a long sub-threshold
approach must not falsely cross the threshold just because the rounded
sum lands on theta, so the update uses an exact two-sum and the spike
comparison includes the compensation term.

Backward follows the standard surrogate convention: the Heaviside is
differentiated as alpha * sigmoid'(alpha * (H - theta)) and the reset
mask is treated as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, constant, record_op, sigmoid_array


@dataclass(frozen=True)
class LIFConfig:
    tau: float = 2.0
    v_threshold: float = 1.0
    surrogate_alpha: float = 4.0

    def __post_init__(self):
        for key, low in (("tau", 1.0), ("v_threshold", 0.0), ("surrogate_alpha", 0.0)):
            value = getattr(self, key)
            if not low < value < np.inf:
                raise ValueError(f"{key} must be finite and > {low:g}, got {value!r}")


@dataclass
class LIFState:
    """Membrane potential per neuron, as a compensated (v, lo) pair.

    The represented potential is v + lo with |lo| below one ulp of v.
    """

    v: np.ndarray
    lo: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype=np.float64):
        return cls(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))


def _two_sum(a, b):
    # the tail (a - ap) + (b - bp) in place: asarray lets out= take a 0-d one
    s = a + b
    ap = np.asarray(s - b)
    bp = np.asarray(s - ap)
    np.subtract(a, ap, out=ap)
    np.subtract(b, bp, out=bp)
    ap += bp
    return s, ap


def _step_arrays(state: LIFState, x, cfg: LIFConfig):
    """Raw membrane update. Returns (h, spike_mask, next_state)."""
    d = np.asarray(x - state.v)
    d -= state.lo
    d /= cfg.tau
    y = np.add(state.lo, d, out=d)
    h, h_lo = _two_sum(state.v, y)
    over = h - cfg.v_threshold
    over += h_lo
    spike = over >= 0.0
    # np.where(spike, 0.0, h or h_lo) as a mask on the integer view
    itype = np.dtype(f"i{h.dtype.itemsize}")
    keep = spike.astype(itype)
    keep -= 1
    lo_next = np.bitwise_and(h_lo.view(itype), keep, out=h_lo.view(itype)).view(h.dtype)
    v_next = h.view(itype) & keep
    return h, spike, LIFState(v_next.view(h.dtype), lo_next)


def lif_step(state: LIFState, x, cfg: LIFConfig):
    """One LIF update on plain arrays: (spikes, new state)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("LIF input current must be finite")
    _, spike, nxt = _step_arrays(state, x, cfg)
    return spike.astype(np.float64), nxt


def _sigmoid_of(h, cfg: LIFConfig):
    """sigmoid(alpha * (H - theta))."""
    return sigmoid_array(cfg.surrogate_alpha * (h - cfg.v_threshold))


def surrogate_grad(h, cfg: LIFConfig):
    """Surrogate dS/dH: alpha * sigmoid'(alpha * (H - theta))."""
    h = np.asarray(h)
    sig = _sigmoid_of(h, cfg)
    rest = 1.0 - sig
    sig *= cfg.surrogate_alpha
    sig *= rest
    return sig


def lif_forward_seq(currents, cfg: LIFConfig, smooth=False):
    """Run a LIF layer over the time axis of N*T*... input currents
    (N*T*C*H*W in the network) as one op; returns the spikes, same shape.
    The state starts at rest (0).

    With smooth=True the spike output is the scaled sigmoid itself
    instead of the Heaviside (the reset still uses the hard threshold);
    this makes the layer finite-difference checkable and its backward is
    identical to the surrogate convention used in hard mode.

    Backward runs time in reverse: dH_t = g_t * surrogate(H_t) + dV_t *
    [no spike at t], dX_t = dH_t / tau, and dV_(t-1) = dH_t * (1 - 1/tau)
    carries the membrane gradient back one step.
    """
    x = constant(currents)
    if x.ndim < 2 or x.shape[1] == 0:
        raise ValueError("lif_forward_seq needs N*T*... currents with at least one timestep")
    if not np.isfinite(x.data).all():
        raise ValueError("LIF input current must be finite")
    steps = x.shape[1]
    h = np.empty_like(x.data)
    spike = np.empty(x.shape, dtype=bool)
    state = LIFState.zeros(x.shape[:1] + x.shape[2:], dtype=x.data.dtype)
    for t in range(steps):
        h[:, t], spike[:, t], state = _step_arrays(state, x.data[:, t], cfg)
    out = Tensor(_sigmoid_of(h, cfg) if smooth else spike.astype(x.data.dtype))
    inv_tau = 1.0 / cfg.tau

    def backward(g):
        surr = surrogate_grad(h, cfg)
        dx = np.empty(g.shape, dtype=np.result_type(g, surr))
        carry = None
        for t in reversed(range(steps)):
            dh = g[:, t] * surr[:, t]
            dh += 0.0                     # -0.0 becomes +0.0
            if carry is not None:
                carry *= ~spike[:, t]
                dh += carry
            np.multiply(dh, inv_tau, out=dx[:, t])
            carry = np.multiply(dh, 1.0 - inv_tau, out=dh)
        return (dx,)

    return record_op(out, [x], backward)


def constant_input_trajectory(x_const, cfg: LIFConfig, steps):
    """Membrane values after each of ``steps`` updates under a constant
    scalar input, stopping early at the first spike.

    Returns (membrane H per executed step, index of first spike or None).
    The simulation also stops once the compensated state reaches a fixed
    point, since the trajectory is constant from there on; the returned
    array is then truncated (no spike can ever follow).
    """
    state = LIFState.zeros((1,))
    x = np.full((1,), float(x_const))
    hs = []
    prev = None
    for i in range(steps):
        h, spike, nxt = _step_arrays(state, x, cfg)
        hs.append(h[0])
        if spike[0]:
            return np.array(hs), i
        cur = (nxt.v[0], nxt.lo[0])
        if cur == prev:
            break
        prev = cur
        state = nxt
    return np.array(hs), None
