"""Finite-difference verification harness for every differentiable block.

Module-level checks run at 1e-4 relative error; the whole network runs in
surrogate-forward mode at 1e-3. Instances are pinned to seeds that keep
membranes off the spike threshold and sampling positions off interpolation
kinks, where central differences are undefined.
"""

from __future__ import annotations

import numpy as np

from . import fusion
from .network import NetworkConfig, build, forward
from .ops import cross_entropy
from .spiking import LIFConfig, lif_forward_seq
from .tensor import constant, grad_check, parameter
from .voxel import ReferencePointSet

MODULE_TOL = 1e-4
NETWORK_TOL = 1e-3


def check_atw():
    g = np.random.default_rng(25)
    p = fusion.init_atw_params(4, 2, 2, g)
    p["out.w"] = parameter(g.normal(size=(4, 4, 1, 1)) * 0.3)
    p["out.b"] = parameter(g.normal(size=4) * 0.1)
    f_ann = parameter(g.normal(size=(1, 4, 4, 4)))
    f_snn = constant((g.random((1, 3, 4, 4, 4)) > 0.5).astype(float))
    wgt = constant(g.normal(size=(1, 4, 4, 4)))
    return grad_check(lambda: (fusion.atw_apply(f_ann, f_snn, p) * wgt).sum(),
                      [f_ann, *p.values()], eps=1e-6)


def check_eds():
    g = np.random.default_rng(26)
    p = fusion.init_eds_params(3, 4, 2, g)
    p["off.b"] = parameter(g.uniform(0.2, 0.4, size=4))
    f_snn = constant((g.random((1, 2, 3, 5, 5)) > 0.5).astype(float))
    f_ann = parameter(g.normal(size=(1, 4, 5, 5)))
    refs = ReferencePointSet(np.array([1, 3]), np.array([2, 4]), 1, 5, 5)
    wgt = constant(g.normal(size=(1, 2, 3, 5, 5)))
    return grad_check(
        lambda: (fusion.eds_inject(f_snn, f_ann, refs, p) * wgt).sum(),
        [f_ann, *p.values()], eps=1e-6)


def check_csf():
    g = np.random.default_rng(27)
    pa, ps = fusion.init_csf_params(3, g), fusion.init_csf_params(3, g)
    f_ann = parameter(g.normal(size=(1, 3, 3, 3)))
    f_snn = parameter(g.normal(size=(1, 2, 3, 3, 3)))
    wgt = constant(g.normal(size=(1, 3, 3, 3)))
    return grad_check(
        lambda: (fusion.csf_fuse(f_ann, f_snn, pa, ps) * wgt).sum(),
        [f_ann, f_snn, *pa.values(), *ps.values()], eps=1e-6)


def check_lif():
    g = np.random.default_rng(28)
    cfg = LIFConfig()
    x = parameter(g.normal(size=(1, 4, 4)) * 0.3)     # N*T*C
    w = parameter(g.normal(size=(1, 4, 4)))
    return grad_check(
        lambda: (lif_forward_seq(x, cfg, smooth=True) * w).sum(),
        [x, w], eps=1e-6)


def check_network():
    net = build(NetworkConfig(scales=((2, 4), (4, 8)), bins=2, timesteps=2,
                              k_points=2, adaptor_ratio=2, num_classes=3,
                              seed=31, v_threshold=1.0 + np.pi / 1000))
    pg = np.random.default_rng(99)
    for p in net.params.values():
        p.data += pg.uniform(-0.05, 0.05, size=p.data.shape)
    g = np.random.default_rng(32)
    frames = g.random((1, 1, 16, 16))
    voxel = g.normal(size=(1, 2, 16, 16)) * (g.random((1, 2, 16, 16)) > 0.75)
    labels = g.integers(0, 3, size=(1, 16, 16))

    def fn():
        return cross_entropy(forward(net, frames, voxel, smooth=True), labels)

    return grad_check(fn, list(net.params.values()), eps=1e-4)


CHECKS = {
    "atw": (check_atw, MODULE_TOL),
    "eds": (check_eds, MODULE_TOL),
    "csf": (check_csf, MODULE_TOL),
    "lif": (check_lif, MODULE_TOL),
    "net": (check_network, NETWORK_TOL),
}


def run_checks(which="all"):
    """Run the selected checks; returns [(name, max_rel_error, bound)]."""
    names = list(CHECKS) if which == "all" else [which]
    results = []
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown gradcheck module {name!r}")
        fn, tol = CHECKS[name]
        results.append((name, fn(), tol))
    return results
