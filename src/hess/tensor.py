"""Dense tensors of the default dtype (float64, or float32 for training
inside using_dtype) with tape-based reverse-mode differentiation.

The operator set is intentionally small: exactly what the two-branch
segmentation network needs. The elementwise arithmetic, reductions and
reshape/transpose are Tensor methods; structured ops (convolution,
sampling, resizing) live in :mod:`hess.ops` and :mod:`hess.spiking`.
Every op registers its one output on the same tape with record_op. A
finite-difference gradient checker completes the module.
"""

from __future__ import annotations

import contextlib

import numpy as np

# Default element type. Everything runs in float64 (gradient checks need
# the headroom); training may switch to float32 for speed via using_dtype.
DTYPE = np.float64


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the element type for newly created tensors."""
    global DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError("supported dtypes: float32, float64")
    prev, DTYPE = DTYPE, dtype
    try:
        yield
    finally:
        DTYPE = prev


class _OpRecord:
    """One executed operation: its output, parents and a backward closure
    (None once replayed)."""

    __slots__ = ("output", "parents", "backward")

    def __init__(self, output, parents, backward):
        self.output = output
        self.parents = parents
        self.backward = backward


class GradTape:
    """Ordered record of executed operations.

    Backward replays the records exactly once each, in reverse execution
    order, then releases the whole tape. A released tape raises on reuse.
    """

    def __init__(self):
        self.records: list[_OpRecord] = []


_tape = GradTape()
_recording = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / profiling)."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


# -- MAC counting ------------------------------------------------------------
# Structured ops charge the MACs they perform to the active layer scope.
# Outside count_macs() counting is off and costs each op one test.

_counts = None                  # {layer: record} while counting
_scope = ("unscoped", "ann")    # (layer, kind) that work is charged to
_NO_SCOPE = contextlib.nullcontext()


@contextlib.contextmanager
def count_macs():
    """Count the MACs charged inside the block; yields {layer: record} in
    first-entered order. A record holds the layer's kind ("ann" | "snn")
    and its summed macs; an "snn" record also sums the nonzero and total
    entries of its inputs (rate = nonzero / inputs)."""
    global _counts, _scope
    prev = _counts, _scope
    _counts, _scope = {}, ("unscoped", "ann")
    try:
        yield _counts
    finally:
        _counts, _scope = prev


def cost_scope(name, kind="ann"):
    """Charge the work inside the block to layer ``name``."""
    return _NO_SCOPE if _counts is None else _charged_to(name, kind)


@contextlib.contextmanager
def _charged_to(name, kind):
    global _scope
    prev, _scope = _scope, (name, kind)
    _layer_record()     # list the layer even if it charges nothing
    try:
        yield
    finally:
        _scope = prev


def _layer_record():
    name, kind = _scope
    return _counts.setdefault(name, dict(kind=kind, macs=0, nonzero=0, inputs=0))


def charge(macs, x=None):
    """Add ``macs`` to the active layer; in an "snn" layer also tally the
    nonzero entries of the input array ``x``. A no-op unless counting."""
    if _counts is not None:
        rec = _layer_record()
        rec["macs"] += int(macs)
        if rec["kind"] == "snn" and x is not None:
            rec["nonzero"] += np.count_nonzero(x)
            rec["inputs"] += x.size


class Tensor:
    """A dense array of the default dtype plus optional gradient bookkeeping.

    data is stored row-major (C order). Tensors are treated as immutable
    once produced by an operation; in-place mutation of ``.data`` is only
    done by the optimizer on leaf parameters.
    """

    __slots__ = ("data", "requires_grad", "grad", "_record")

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._record = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph assembly ---------------------------------------------------

    def backward(self):
        """Reverse-replay the tape from this scalar, filling ``.grad``.

        All parameters reachable from the loss accumulate d(loss)/d(param).
        The tape is released afterwards; a second call raises. A tensor
        keeps its first gradient as the backward returned it, so a gradient
        array may be shared and no backward writes into the gradients it
        receives; the second is added out of place into a new array of the
        first one's dtype, which later ones are added into.
        """
        if self.size != 1:
            raise ValueError("backward requires a scalar loss")
        if self._record is None:
            raise RuntimeError("loss was not produced by a recorded forward pass")
        if self._record.backward is None:
            raise RuntimeError("backward called twice on a released tape")
        self.grad = np.ones_like(self.data)
        summed = set()     # ids of tensors whose .grad this pass allocated
        for rec in reversed(_tape.records):
            if rec.backward is not None and rec.output.grad is not None:
                for parent, g in zip(rec.parents, rec.backward(rec.output.grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    if parent.grad is None:
                        parent.grad = np.asarray(g)
                    elif id(parent) in summed:
                        parent.grad += g
                    else:
                        parent.grad = np.add(parent.grad, g,
                                             out=np.empty_like(parent.grad))
                        summed.add(id(parent))
                rec.output.grad = None  # intermediates: free once consumed
            # the output points back at its record: dropping the record's
            # references breaks that cycle, so the step's graph is freed by
            # reference counting as soon as the caller drops the loss
            rec.output = rec.parents = rec.backward = None
        _tape.records.clear()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = constant(other)
        return _single(self.data + other.data, [self, other],
                       lambda g: (_unbroadcast(g, self.data.shape),
                                  _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = constant(other)
        return _single(self.data - other.data, [self, other],
                       lambda g: (_unbroadcast(g, self.data.shape),
                                  _unbroadcast(-g, other.data.shape)))

    def __mul__(self, other):
        other = constant(other)
        return _single(self.data * other.data, [self, other],
                       lambda g: (_unbroadcast(g * other.data, self.data.shape),
                                  _unbroadcast(g * self.data, other.data.shape)))

    __rmul__ = __mul__

    def __pow__(self, p):
        p = float(p)
        return _single(self.data ** p, [self], lambda g: (g * p * self.data ** (p - 1.0),))

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return _single(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), [self],
                       backward)

    def mean(self, axis=None, keepdims=False):
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        denom = self.data.size / max(np.asarray(out_data).size, 1)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape) / denom,)

        return _single(np.asarray(out_data), [self], backward)

    def reshape(self, shape):
        return _single(self.data.reshape(shape), [self],
                       lambda g: (g.reshape(self.data.shape),))

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return _single(np.ascontiguousarray(self.data.transpose(axes)), [self],
                       lambda g: (g.transpose(inv),))

    def relu(self):
        # where() keeps zeros at +0.0, which the silent-branch bit-exactness
        # checks rely on
        mask = self.data > 0
        return _single(np.where(mask, self.data, 0.0), [self], lambda g: (g * mask,))

    def sigmoid(self):
        out_data = sigmoid_array(self.data)
        return _single(out_data, [self], lambda g: (g * out_data * (1.0 - out_data),))


def constant(data):
    return data if isinstance(data, Tensor) else Tensor(data)


def parameter(data):
    return Tensor(data, requires_grad=True)


def fan_in_uniform(rng, shape, fan_in):
    """A parameter drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    limit = 1.0 / np.sqrt(fan_in)
    return parameter(rng.uniform(-limit, limit, size=shape))


def record_op(out, parents, backward):
    """Register an op's output ``out`` on the active tape and return it.

    backward receives the upstream gradient of ``out`` and returns one
    gradient per parent (None allowed); it must not write into the gradient
    it receives, which the tape may share. The output inherits
    requires_grad from the parents; nothing is recorded under no_grad.
    """
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._record = _OpRecord(out, parents, backward)
        _tape.records.append(out._record)
    return out


def _single(out_data, parents, backward):
    return record_op(Tensor(out_data), parents, backward)


def _unbroadcast(g, shape):
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def sigmoid_array(z):
    """sigmoid(z) of a float array, without overflow: with e = exp(-|z|),
    1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere (e <= 1, so
    max(e, [z >= 0]) is the numerator)."""
    z = np.asarray(z)
    num = np.asarray(z >= 0, dtype=z.dtype)
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(num, e, out=num)
    e += 1.0
    num /= e
    return num


# -- gradient checking -----------------------------------------------------


def grad_check(fn, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    fn computes a scalar Tensor from the current values of ``params``
    (a list of requires_grad tensors); it must be deterministic. The
    relative error per element uses denominator max(|analytic|,
    |numeric|, 1e-8); the max over all elements of all params is returned.
    """
    for p in params:
        p.grad = None
    out = fn()
    if out.size != 1:
        raise ValueError("grad_check needs a scalar-valued fn")
    if not np.isfinite(out.data).all():
        raise ValueError("fn returned a non-finite value")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    with no_grad():
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = an.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = fn().item()
                flat[i] = orig - eps
                f_minus = fn().item()
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise ValueError("fn returned a non-finite value during probing")
                num = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
                worst = max(worst, rel)
    return worst
