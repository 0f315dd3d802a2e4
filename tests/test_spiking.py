import numpy as np
import pytest

from hess import spiking, tensor
from hess.spiking import (LIFConfig, LIFState, constant_input_trajectory,
                          lif_forward_seq, lif_step, surrogate_grad)
from hess.tensor import constant, grad_check, no_grad, parameter, using_dtype


CFG = LIFConfig()


class TestLIFStep:
    def test_rest_stays_at_rest(self):
        st = LIFState.zeros((3,))
        s, st2 = lif_step(st, np.zeros(3), CFG)
        assert np.all(s == 0.0)
        assert np.all(st2.v == 0.0)

    def test_threshold_crossing_and_hard_reset(self):
        st = LIFState.zeros((1,))
        s, st2 = lif_step(st, np.array([2.0]), CFG)
        # H = 0 + (2 - 0)/2 = 1.0 -> spike, reset to 0
        assert s[0] == 1.0
        assert st2.v[0] == 0.0

    def test_subthreshold_recurrence_closed_form(self):
        st = LIFState.zeros((1,))
        c = 0.8
        for t in range(1, 40):
            s, st = lif_step(st, np.array([c]), CFG)
            assert s[0] == 0.0
            expected = c * (1.0 - (1.0 - 1.0 / CFG.tau) ** t)
            assert abs(st.v[0] + st.lo[0] - expected) <= 1e-12

    def test_unit_input_never_spikes(self):
        # X = 1 converges to the threshold from below; the compensated
        # membrane must reach a fixed point strictly below it rather than
        # rounding onto it
        _, spike_at = constant_input_trajectory(1.0, CFG, 1_000_000)
        assert spike_at is None

    def test_constant_two_spikes_every_step(self):
        st = LIFState.zeros((2, 2))
        for _ in range(5):
            s, st = lif_step(st, np.full((2, 2), 2.0), CFG)
            assert np.all(s == 1.0)

    def test_nonfinite_input_rejected(self):
        st = LIFState.zeros((1,))
        with pytest.raises(ValueError, match="finite"):
            lif_step(st, np.array([np.nan]), CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tau"):
            LIFConfig(tau=1.0)
        with pytest.raises(ValueError, match="threshold"):
            LIFConfig(v_threshold=0.0)
        for key in ("tau", "v_threshold", "surrogate_alpha"):
            for bad in (float("inf"), float("nan"), -4.0):
                with pytest.raises(ValueError, match=f"^{key} must be finite and > "):
                    LIFConfig(**{key: bad})


def steps(*per_step):
    """N*T*... currents from per-timestep arrays."""
    return constant(np.stack(per_step, axis=1))


class TestSequence:
    def test_zero_inputs_zero_spikes(self):
        s = lif_forward_seq(constant(np.zeros((1, 4, 2, 3, 3))), CFG)
        assert s.shape == (1, 4, 2, 3, 3)
        assert np.all(s.data == 0.0)

    def test_constant_two_all_spikes(self):
        s = lif_forward_seq(constant(np.full((1, 5, 1, 2, 2), 2.0)), CFG)
        assert np.all(s.data == 1.0)

    def test_output_binary_random(self):
        g = np.random.default_rng(0)
        s = lif_forward_seq(steps(*[g.normal(size=(2, 3, 4, 4)) * 2 for _ in range(5)]), CFG)
        assert np.all((s.data == 0.0) | (s.data == 1.0))

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            lif_forward_seq(constant(np.zeros((1, 0, 2, 3, 3))), CFG)

    def test_nonfinite_current_rejected(self):
        x = np.zeros((1, 3, 2))
        x[0, 2, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            lif_forward_seq(constant(x), CFG)

    def test_subthreshold_scaling_invariance(self):
        g = np.random.default_rng(1)
        base = np.abs(g.normal(size=(1, 2, 3, 3))) * 0.2
        for scale in (1.0, 0.5, 2.0):
            xs = steps(*[base * scale] * 4)
            assert np.all(lif_forward_seq(xs, CFG).data == 0.0)

    def test_matches_step_by_step_updates(self):
        g = np.random.default_rng(5)
        xs = g.normal(size=(2, 6, 3, 2)) * 1.5
        s = lif_forward_seq(constant(xs), CFG)
        state = LIFState.zeros((2, 3, 2))
        for t in range(6):
            ref, state = lif_step(state, xs[:, t], CFG)
            assert s.data[:, t].tobytes() == ref.tobytes()

    def test_one_tape_record_none_under_no_grad(self, monkeypatch):
        x = parameter(np.random.default_rng(6).normal(size=(2, 4, 3)))
        n0 = len(tensor._tape.records)
        s = lif_forward_seq(x, CFG)
        assert len(tensor._tape.records) == n0 + 1
        s.sum().backward()

        def eager(*args):
            raise AssertionError("surrogate computed outside backward")

        monkeypatch.setattr(spiking, "surrogate_grad", eager)
        with no_grad():
            lif_forward_seq(x, CFG)
            lif_forward_seq(x, CFG, smooth=True)
        assert len(tensor._tape.records) == 0

    def test_float32_currents_give_float32_spikes(self):
        with using_dtype(np.float32):
            x = parameter(np.random.default_rng(7).normal(size=(1, 3, 2, 2)) * 2)
            s = lif_forward_seq(x, CFG)
            assert s.data.dtype == np.float32
            s.sum().backward()
        assert x.grad.dtype == np.float32


def where_step(v, lo, x, cfg):
    """One membrane update with the reset select written as np.where: the
    arithmetic _step_arrays must reproduce bit for bit."""
    d = ((x - v) - lo) / cfg.tau
    y = lo + d
    h = v + y
    ap = h - y
    bp = h - ap
    h_lo = (v - ap) + (y - bp)
    spike = ((h - cfg.v_threshold) + h_lo) >= 0.0
    return h, spike, np.where(spike, 0.0, h), np.where(spike, 0.0, h_lo)


SELECT_CONFIGS = (CFG, LIFConfig(tau=1.5, v_threshold=0.4), LIFConfig(tau=3.0, v_threshold=0.7))
SELECT_CASES = [(dtype, cfg) for dtype in (np.float32, np.float64) for cfg in SELECT_CONFIGS]


@pytest.mark.parametrize("dtype, cfg", SELECT_CASES)
class TestSelectMatchesWhere:
    def currents(self, dtype):
        xs = np.random.default_rng(11).normal(size=(3, 9, 4, 5)) * 1.5
        xs[:, :, 0, :2] = [0.0, -0.0]
        return xs.astype(dtype)

    def test_lif_forward_seq(self, dtype, cfg, monkeypatch):
        xs = self.currents(dtype)
        with using_dtype(dtype):
            spikes = lif_forward_seq(constant(xs), cfg).data
            # with the smooth output's sigmoid replaced by the identity, the
            # layer returns its membrane H
            monkeypatch.setattr(spiking, "_sigmoid_of", lambda h, cfg: h.copy())
            hs = lif_forward_seq(constant(xs), cfg, smooth=True).data
        v, lo = np.zeros(xs[:, 0].shape, dtype), np.zeros(xs[:, 0].shape, dtype)
        for t in range(xs.shape[1]):
            h, spike, v, lo = where_step(v, lo, xs[:, t], cfg)
            assert hs[:, t].tobytes() == h.tobytes()
            assert spikes[:, t].tobytes() == spike.astype(dtype).tobytes()

    def test_lif_step(self, dtype, cfg):
        xs = self.currents(dtype).astype(np.float64)
        state = LIFState.zeros(xs[:, 0].shape, dtype=dtype)
        v, lo = state.v, state.lo
        for t in range(xs.shape[1]):
            spikes, state = lif_step(state, xs[:, t], cfg)
            _, spike, v, lo = where_step(v, lo, xs[:, t], cfg)
            assert spikes.tobytes() == spike.astype(np.float64).tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert state.lo.tobytes() == lo.tobytes()



@pytest.mark.parametrize("cfg", SELECT_CONFIGS)
def test_constant_input_trajectory_matches_where(cfg):
    for x_const in (-0.4, 0.5, 1.0, 1.3, 2.0, 3.7):
        hs, spike_at = constant_input_trajectory(x_const, cfg, 200)
        v, lo, want = np.zeros(1), np.zeros(1), []
        for i in range(200):
            h, spike, v_next, lo_next = where_step(v, lo, np.full(1, x_const), cfg)
            want.append(h[0])
            fixed_point = i > 0 and (v_next[0], lo_next[0]) == (v[0], lo[0])
            if spike[0] or fixed_point:
                break
            v, lo = v_next, lo_next
        assert hs.tobytes() == np.array(want).tobytes()
        assert spike_at == (i if spike[0] else None)


class TestSurrogate:
    def test_peak_value_at_threshold(self):
        assert surrogate_grad(np.array([CFG.v_threshold]), CFG)[0] == 1.0

    def test_tails_vanish(self):
        g = surrogate_grad(np.array([CFG.v_threshold + 10, CFG.v_threshold - 10]), CFG)
        assert np.all(g <= 1e-15)

    def test_symmetry(self):
        for d in (0.1, 0.75, 3.0):
            lo = surrogate_grad(np.array([CFG.v_threshold - d]), CFG)[0]
            hi = surrogate_grad(np.array([CFG.v_threshold + d]), CFG)[0]
            assert abs(lo - hi) <= 1e-15


class TestBackward:
    def manual_bptt(self, xs, cfg, upstream):
        """Reference gradient: chain rule with dS/dH := surrogate_grad(H),
        reset mask constant. Explicit loops, no autodiff."""
        T = len(xs)
        shape = xs[0].shape
        v = np.zeros(shape)
        hs, keeps = [], []
        for x in xs:
            h = v + (x - v) / cfg.tau
            spike = h >= cfg.v_threshold
            hs.append(h)
            keeps.append(~spike)
            v = np.where(spike, 0.0, h)
        dxs = [np.zeros(shape) for _ in range(T)]
        dv = np.zeros(shape)
        for t in reversed(range(T)):
            dh = upstream[t] * surrogate_grad(hs[t], cfg) + dv * keeps[t]
            dxs[t] = dh / cfg.tau
            dv = dh * (1.0 - 1.0 / cfg.tau)
        return dxs

    def test_matches_reference_chain_rule(self):
        g = np.random.default_rng(2)
        cfg = LIFConfig()
        xs_data = [g.normal(size=(2, 3)) * 1.5 for _ in range(6)]
        x = parameter(np.stack(xs_data, axis=1))
        upstream = [g.normal(size=(2, 3)) for _ in range(6)]

        spikes = lif_forward_seq(x, cfg)
        weighted = spikes * constant(np.stack(upstream, axis=1))
        weighted.sum().backward()

        ref = self.manual_bptt(xs_data, cfg, upstream)
        for t, r in enumerate(ref):
            assert np.max(np.abs(x.grad[:, t] - r)) <= 1e-10

    def test_smooth_mode_passes_grad_check(self):
        g = np.random.default_rng(3)
        cfg = LIFConfig()
        # keep membranes away from the threshold so finite differences
        # never flip the reset mask
        x = parameter(g.normal(size=(1, 4, 4)) * 0.3)
        w = parameter(g.normal(size=(1, 4, 4)))

        def fn():
            s = lif_forward_seq(x, cfg, smooth=True)
            return (s * w).sum()

        assert grad_check(fn, [x, w], eps=1e-6) <= 1e-4

    def test_smooth_and_hard_share_backward(self):
        g = np.random.default_rng(4)
        cfg = LIFConfig()
        xs_data = np.stack([g.normal(size=(2, 2)) for _ in range(3)], axis=1)

        grads = []
        for smooth in (False, True):
            x = parameter(xs_data.copy())
            lif_forward_seq(x, cfg, smooth=smooth).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(*grads)
