"""The two-branch encoder: frame stages with temporal-weighting injection,
spiking stages with sparse injection, channel-selection fusion per scale
and a small multi-scale segmentation head.

Frame stages are conv3x3 -> single-group normalization -> ReLU; spiking
stages are a conv3x3 shared across timesteps (one call over the N*T maps)
followed by LIF neurons, and the spike tensor is N*T*C*H*W throughout. At
each scale the spike tensor is injected into the frame features, the frame
features are injected back into the spike stream at event-anchored
reference points, and the two branches are fused. Fused maps from every
scale are projected to a common width, upsampled to the finest scale,
summed and classified by a 1x1 convolution. Each parameter is held once,
in ``net.blocks[block][key]``; its checkpoint name is "<block>.<key>".

With no event input the spiking side is skipped entirely and, for a
freshly built network (zero-initialized injector projections), the output
is bit-for-bit the same as with an all-zero voxel.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import fusion, ops
from .spiking import LIFConfig, lif_forward_seq
from .tensor import constant, cost_scope, fan_in_uniform, no_grad, parameter
from .voxel import downsample_voxel, extract_reference_points, znorm

CHECKPOINT_MAGIC = b"HESS"
CHECKPOINT_VERSION = 1


@dataclass
class NetworkConfig:
    input_channels: int = 1
    bins: int = 5
    timesteps: int = 5
    scales: tuple = ((2, 16), (4, 32), (8, 64))
    num_classes: int = 3
    k_points: int = 4
    adaptor_ratio: int = 4
    atw_on: bool = True
    eds_on: bool = True
    csf_on: bool = True
    seed: int = 0
    tau: float = 2.0
    v_threshold: float = 1.0
    surrogate_alpha: float = 4.0

    def __post_init__(self):
        self.scales = tuple(tuple(s) for s in self.scales)
        if min(self.timesteps, self.bins, self.input_channels, self.num_classes,
               self.k_points, self.adaptor_ratio) < 1:
            raise ValueError("timesteps, bins, input_channels, num_classes, k_points "
                             "and adaptor_ratio must be >= 1")
        if self.bins != self.timesteps:
            raise ValueError("bins must equal timesteps (one bin per step)")
        if not self.scales:
            raise ValueError("need at least one scale")
        if any(isinstance(v, bool) or not isinstance(v, int)
               for scale in self.scales for v in scale):
            raise ValueError("scale factors and channel widths must be integers")
        prev = 1
        for factor, channels in self.scales:
            if factor < 1 or (factor <= prev and prev != 1):
                raise ValueError("scale factors must be >= 1 and strictly increasing")
            if factor % prev:
                raise ValueError("each scale factor must be a multiple of the previous")
            if channels < 1:
                raise ValueError("channel widths must be positive")
            prev = factor
        if self.atw_on:
            for _, channels in self.scales:
                if channels % self.adaptor_ratio:
                    raise ValueError("channel widths must be divisible by the adaptor ratio")
        self.lif()      # rejects bad LIF settings here, not at the first forward

    def lif(self):
        return LIFConfig(tau=self.tau, v_threshold=self.v_threshold,
                         surrogate_alpha=self.surrogate_alpha)


_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "tuple": (list, tuple)}


def config_from_dict(cls, values, where):
    """cls(**values) for a config dataclass read from JSON (a config file
    section or a checkpoint's config). An unknown key, a value of the
    wrong JSON type or a value the class rejects is a ValueError naming
    ``where``."""
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = values.keys() - types.keys()
    if unknown:
        raise ValueError(f"{where}: unknown key {min(unknown)!r}")
    for key, value in values.items():
        if (isinstance(value, bool) != (types[key] == "bool")
                or not isinstance(value, _JSON_TYPES[types[key]])):
            raise ValueError(f"{where}: {key!r} must be {types[key]}, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass
class HybridNetwork:
    config: NetworkConfig
    blocks: dict = field(default_factory=dict)   # block name -> {key: Tensor}

    @property
    def params(self):
        """Every parameter under its checkpoint name "<block>.<key>", in
        declaration order."""
        return {f"{name}.{key}": p for name, block in self.blocks.items()
                for key, p in block.items()}

    def param_count(self):
        return sum(p.size for p in self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def build(config: NetworkConfig) -> HybridNetwork:
    """Deterministically initialize a network from config.seed.

    Conv/linear weights use uniform fan-in scaling; biases, injector
    output projections and offset-head biases start at zero. Blocks are
    stage{i}, atw{i}, eds{i}, csf{i}.frame and csf{i}.spike per scale
    (injectors only when toggled on), then head.
    """
    rng = np.random.default_rng(config.seed)
    net = HybridNetwork(config)
    blocks = net.blocks
    ann_cin = config.input_channels
    snn_cin = 1   # one voxel bin per timestep
    for i, (_, c) in enumerate(config.scales):
        blocks[f"stage{i}"] = {
            "ann.w": fan_in_uniform(rng, (c, ann_cin, 3, 3), ann_cin * 9),
            "ann.b": parameter(np.zeros(c)),
            "norm.gamma": parameter(np.ones(c)),
            "norm.beta": parameter(np.zeros(c)),
            "snn.w": fan_in_uniform(rng, (c, snn_cin, 3, 3), snn_cin * 9),
            "snn.b": parameter(np.zeros(c))}
        if config.atw_on:
            blocks[f"atw{i}"] = fusion.init_atw_params(c, config.adaptor_ratio,
                                                       config.k_points, rng)
        if config.eds_on:
            blocks[f"eds{i}"] = fusion.init_eds_params(c, c, config.k_points, rng)
        if config.csf_on:
            blocks[f"csf{i}.frame"] = fusion.init_csf_params(c, rng)
            blocks[f"csf{i}.spike"] = fusion.init_csf_params(c, rng)
        ann_cin = snn_cin = c

    c_head = config.scales[0][1]
    head = blocks["head"] = {}
    for i, (_, c) in enumerate(config.scales):
        head[f"lateral{i}.w"] = fan_in_uniform(rng, (c_head, c, 1, 1), c)
        head[f"lateral{i}.b"] = parameter(np.zeros(c_head))
    head["cls.w"] = fan_in_uniform(rng, (config.num_classes, c_head, 1, 1), c_head)
    head["cls.b"] = parameter(np.zeros(config.num_classes))
    return net


def forward(net: HybridNetwork, frames, voxel=None, smooth=False):
    """Segmentation logits N*num_classes*H*W.

    frames: N*Cin*H*W array (or Tensor). voxel: the raw N*B*H*W event
    grids (optim.prepare_batches); None runs the frame branch alone. The
    grids are Z-scored and their reference points extracted here, once
    for the whole batch. smooth swaps the LIF Heaviside for its sigmoid
    surrogate (gradient verification only). Each layer runs in a
    cost_scope of its name, so under tensor.count_macs() the MACs its ops
    perform are charged to it.
    """
    cfg = net.config
    frames = constant(frames)
    if frames.ndim != 4 or frames.shape[1] != cfg.input_channels:
        raise ValueError("frames must be N*Cin*H*W with configured input channels")
    if not np.isfinite(frames.data).all():
        raise ValueError("frames must be finite")
    n, _, h, w = frames.shape
    max_factor = cfg.scales[-1][0]
    if h % max_factor or w % max_factor:
        raise ValueError(f"input size must be divisible by {max_factor}")

    events_on = voxel is not None
    if events_on:
        raw = np.asarray(voxel, dtype=np.float64)
        if raw.ndim != 4 or raw.shape[2:] != (h, w):
            raise ValueError(f"voxel must be N*B*H*W with the frames' spatial size "
                             f"{h}x{w}, got shape {raw.shape}")
        if raw.shape[0] != n:
            raise ValueError("voxel batch size must match frames")
        if raw.shape[1] != cfg.bins:
            raise ValueError(f"voxel has {raw.shape[1]} bins, config says {cfg.bins}")
        if not np.isfinite(raw).all():
            raise ValueError("voxel data must be finite")
        snn_in = constant(znorm(raw)[:, :, None])    # N*T*1*H*W, one bin per step
        refs_per_scale = [extract_reference_points(downsample_voxel(raw, factor),
                                                   scale=factor)
                          for factor, _ in cfg.scales]

    blocks = net.blocks
    ann = frames
    fused_maps = []
    prev_factor = 1
    for i, (factor, _) in enumerate(cfg.scales):
        stage, stride = blocks[f"stage{i}"], factor // prev_factor
        prev_factor = factor
        with cost_scope(f"stage{i}.ann"):
            a_pre = ops.conv2d(ann, stage["ann.w"], stage["ann.b"], stride=stride, pad=1)
        a = ops.group_norm(a_pre, stage["norm.gamma"], stage["norm.beta"]).relu()
        if events_on:
            with cost_scope(f"stage{i}.snn", kind="snn"):
                currents = ops.conv2d(snn_in, stage["snn.w"], stage["snn.b"],
                                      stride=stride, pad=1)
            spikes = lif_forward_seq(currents, cfg.lif(), smooth=smooth)
            if cfg.atw_on:
                with cost_scope(f"atw{i}"):
                    a = fusion.atw_apply(a, spikes, blocks[f"atw{i}"])
            if cfg.eds_on:
                with cost_scope(f"eds{i}"):
                    sn = fusion.eds_inject(spikes, a, refs_per_scale[i], blocks[f"eds{i}"])
            else:
                sn = spikes
            if cfg.csf_on:
                with cost_scope(f"csf{i}"):
                    fused = fusion.csf_fuse(a, sn, blocks[f"csf{i}.frame"],
                                            blocks[f"csf{i}.spike"])
            else:
                fused = a + sn.sum(axis=1)
            snn_in = sn
        elif cfg.csf_on:
            with cost_scope(f"csf{i}"):
                fused = fusion.csf_select(a, blocks[f"csf{i}.frame"])
        else:
            fused = a
        ann = a
        fused_maps.append(fused)

    h0, w0 = fused_maps[0].shape[2:]
    head = blocks["head"]
    acc = None
    for i, f in enumerate(fused_maps):
        with cost_scope(f"head.lateral{i}"):
            lat = ops.conv2d(f, head[f"lateral{i}.w"], head[f"lateral{i}.b"])
        up = ops.interp_resize(lat, h0, w0)
        acc = up if acc is None else acc + up
    with cost_scope("head.cls"):
        logits = ops.conv2d(acc, head["cls.w"], head["cls.b"])
    return ops.interp_resize(logits, h, w)


def predict(net, frames, voxel=None):
    """Hard label map N*H*W (argmax; ties go to the lower class id)."""
    with no_grad():
        logits = forward(net, frames, voxel)
    return np.argmax(logits.data, axis=1)


# -- checkpointing ------------------------------------------------------------


def save_checkpoint(net: HybridNetwork, path, optimizer_state=None):
    """Binary checkpoint: magic, version, config JSON, parameter tensors
    in declaration order, then optional optimizer moments. Little-endian."""
    cfg_json = json.dumps(asdict(net.config), sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_json)))
        f.write(cfg_json)
        f.write(struct.pack("<Q", len(net.params)))
        for name, p in net.params.items():
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", p.data.ndim))
            for d in p.data.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        if optimizer_state is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<Q", optimizer_state["step"]))
            for name in net.params:
                for key in ("m", "v"):
                    f.write(np.ascontiguousarray(
                        optimizer_state[key][name], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild (network, optimizer_state_or_None) from a checkpoint.

    Every read is bounds-checked: a short or malformed file, or a
    non-finite parameter or moment, raises ValueError naming the path.
    """
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0

    def take(nbytes):
        nonlocal pos
        if pos + nbytes > len(raw):
            raise ValueError(f"{path}: truncated checkpoint")
        pos += nbytes
        return raw[pos - nbytes:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def array(shape, what):
        values = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {what} holds a non-finite value")
        return values

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    version, cfg_len = unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    net = build(config_from_dict(NetworkConfig, json.loads(take(cfg_len).decode()),
                                 f"{path}: config"))
    (n_params,) = unpack("<Q")
    if n_params != len(net.params):
        raise ValueError(f"{path}: parameter count mismatch")
    for name, p in net.params.items():
        (nlen,) = unpack("<H")
        fname = take(nlen).decode()
        if fname != name:
            raise ValueError(f"{path}: expected parameter {name}, found {fname}")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        if shape != p.shape:
            raise ValueError(f"{path}: parameter {name} has shape {shape}, "
                             f"expected {p.shape}")
        p.data = array(shape, f"parameter {name}").astype(p.data.dtype)   # a writable copy
    (has_optim,) = unpack("<B")
    optim = None
    if has_optim:
        (step,) = unpack("<Q")
        optim = {"step": step, "m": {}, "v": {}}
        for name, p in net.params.items():
            for key in ("m", "v"):
                optim[key][name] = array(p.shape, f"optimizer {key} of {name}").copy()
    return net, optim
