"""Process-element array: dual-mode evaluation, tiling, BN folding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda.oracle import conv2d_ref
from ucda.patchdeconv import deconv_patch
from ucda.pearray import (
    HwConfig,
    PeArray,
    PeMode,
    RequantOverflow,
    fuse_bn,
    operands,
)
from ucda.qtensor import KernelSet, QTensor, Requant

from reference_impls import bn_real

K123 = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], np.int8)


class TestHwConfig:
    def test_defaults(self):
        cfg = HwConfig()
        assert (cfg.tn, cfg.tm, cfg.arrays) == (8, 8, 1)
        assert cfg.stream_bits == 64
        assert cfg.clock_hz == 220_000_000
        assert cfg.multiplier_count == 576

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            HwConfig(tn=6)
        with pytest.raises(ValueError):
            HwConfig(tm=0)

    def test_clock_positive(self):
        with pytest.raises(ValueError):
            HwConfig(clock_hz=0)


class TestPeEval:
    def test_conv_all_ones(self):
        pe = PeArray(HwConfig())
        ops = operands(PeMode.CONV, np.ones((3, 3), np.int8), np.ones((3, 3), np.int8))
        out = pe.pe_eval(PeMode.CONV, ops)
        assert out.values == (9,)

    def test_deconv_worked_example(self):
        pe = PeArray(HwConfig())
        win = np.array([[1, 2], [3, 4]], np.int8)
        out = pe.pe_eval(PeMode.DECONV, operands(PeMode.DECONV, win, K123))
        assert out.values == (64, 36, 36, 20)

    def test_deconv_zero_window(self):
        pe = PeArray(HwConfig())
        win = np.zeros((2, 2), np.int8)
        out = pe.pe_eval(PeMode.DECONV, operands(PeMode.DECONV, win, K123))
        assert out.values == (0, 0, 0, 0)

    def test_always_9_multiplications(self):
        pe = PeArray(HwConfig())
        pe.pe_eval(PeMode.CONV, operands(PeMode.CONV, np.zeros((3, 3), np.int8), K123))
        assert pe.multiplications == 9
        win = np.ones((2, 2), np.int8)
        pe.pe_eval(PeMode.DECONV, operands(PeMode.DECONV, win, K123))
        assert pe.multiplications == 18
        assert pe.evaluations == 2

    def test_operand_count_enforced(self):
        pe = PeArray(HwConfig())
        with pytest.raises(ValueError):
            pe.pe_eval(PeMode.CONV, [(1, 1)] * 8)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_deconv_matches_patch_oracle(self, seed):
        rng = np.random.default_rng(seed)
        win = rng.integers(-128, 128, (2, 2)).astype(np.int8)
        k = rng.integers(-128, 128, (3, 3)).astype(np.int8)
        pe = PeArray(HwConfig())
        got = pe.pe_eval(PeMode.DECONV, operands(PeMode.DECONV, win, k))
        from ucda.patchdeconv import Window2x2
        want = deconv_patch(Window2x2.from_array(win), k)
        assert got.values == (want.top_left, want.top_right,
                              want.bottom_left, want.bottom_right)


@pytest.mark.parametrize("mode", list(PeMode))
def test_routing_table_structure(mode):
    """One window on exactly the 9 multipliers, every tap once, in a square patch."""
    pairs = [pair for slot in mode.routing for pair in slot]
    assert len(pairs) == 9
    assert sorted(tap for _, tap in pairs) == [(u, v) for u in range(3) for v in range(3)]
    assert mode.beats == len(mode.routing) == mode.patch ** 2
    assert all(0 <= r < mode.window and 0 <= c < mode.window for (r, c), _ in pairs)


class TestArrayCycle:
    def test_two_channel_ones(self):
        cfg = HwConfig(tn=2, tm=2)
        pe = PeArray(cfg)
        windows = np.ones((2, 3, 3), np.int8)
        kernels = np.ones((2, 2, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.CONV, windows, kernels)
        assert out.tolist() == [18, 18]  # 2 channels x 9 taps

    def test_identical_weights_identical_outputs(self):
        cfg = HwConfig(tn=8, tm=8)
        pe = PeArray(cfg)
        rng = np.random.default_rng(0)
        windows = rng.integers(-128, 128, (8, 3, 3)).astype(np.int8)
        one = rng.integers(-128, 128, (1, 8, 3, 3)).astype(np.int8)
        kernels = np.repeat(one, 8, axis=0)
        out = pe.array_cycle(PeMode.CONV, windows, kernels)
        assert len(set(out.tolist())) == 1

    def test_depth_tiling_matches_untiled_oracle(self):
        """Cin=16 at Tn=8: two passes accumulate to the 16-channel answer."""
        cfg = HwConfig(tn=8, tm=4)
        rng = np.random.default_rng(1)
        x = QTensor(rng.integers(-128, 128, (3, 3, 16)).astype(np.int8), 0)
        wk = rng.integers(-128, 128, (4, 16, 3, 3)).astype(np.int8)
        ks = KernelSet(weights=wk, bias=np.zeros(4, np.int32),
                       bn_multiplier=np.full(4, 16384, np.int16),
                       bn_shift=np.zeros(4, np.uint8), scale_exp=0)
        window = x.data.transpose(2, 0, 1)  # one spatial position, (C, 3, 3)
        pe = PeArray(cfg)
        psum = pe.array_cycle(PeMode.CONV, window[:8], wk[:, :8])
        total = pe.array_cycle(PeMode.CONV, window[8:], wk[:, 8:], psum=psum)
        want = conv2d_ref(x, ks, ())  # valid conv, single output pixel
        assert total.tolist() == want[0, 0].tolist()

    def test_partial_last_tile(self):
        cfg = HwConfig(tn=8, tm=2)
        pe = PeArray(cfg)
        windows = np.ones((3, 3, 3), np.int8)  # only 3 live channels
        kernels = np.ones((2, 3, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.CONV, windows, kernels)
        assert out.tolist() == [27, 27]

    def test_deconv_beats_shape(self):
        cfg = HwConfig(tn=2, tm=4)  # 3 of 4 output lanes live
        pe = PeArray(cfg)
        windows = np.ones((2, 2, 2), np.int8)
        kernels = np.ones((3, 2, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.DECONV, windows, kernels)
        assert out.shape == (3, 4)
        # all-ones window x all-ones kernel: patch sums are (4, 2, 2, 1) x Tn
        assert out.tolist() == [[8, 4, 4, 2]] * 3

    def test_accumulation_order_independence(self):
        cfg = HwConfig(tn=4, tm=2)
        rng = np.random.default_rng(2)
        window = rng.integers(-128, 128, (8, 3, 3)).astype(np.int8)
        wk = rng.integers(-128, 128, (2, 8, 3, 3)).astype(np.int8)
        pe = PeArray(cfg)
        a = pe.array_cycle(PeMode.CONV, window[:4], wk[:, :4])
        a = pe.array_cycle(PeMode.CONV, window[4:], wk[:, 4:], psum=a)
        b = pe.array_cycle(PeMode.CONV, window[4:], wk[:, 4:])
        b = pe.array_cycle(PeMode.CONV, window[:4], wk[:, :4], psum=b)
        assert np.array_equal(a, b)


class TestFuseBn:
    def test_identity_gives_pure_rescale(self):
        rq, bias = fuse_bn(1.0, 0.0, 0.0, 1.0, 0.0, -7, 0, 0)
        assert bias == 0
        assert (rq.multiplier, rq.shift) == (16384, 6)
        assert rq.scale == 2.0 ** -7

    def test_gamma_doubles_multiplier_scale(self):
        base, _ = fuse_bn(1.0, 0.0, 0.0, 1.0, 0.0, -7, 0, 0)
        double, _ = fuse_bn(2.0, 0.0, 0.0, 1.0, 0.0, -7, 0, 0)
        assert double.scale == 2 * base.scale

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            fuse_bn(1.0, 0.0, 0.0, -2.0, 1.0, -7, 0, 0)

    def test_multiplier_overflow_signalled(self):
        # scale product >= 1 cannot be encoded as m/2**15 with m <= 32767
        with pytest.raises(RequantOverflow):
            fuse_bn(1.0, 0.0, 0.0, 1.0, 0.0, 0, 0, 0)

    def test_folding_accuracy_sample(self):
        rng = np.random.default_rng(3)
        bad = 0
        for _ in range(200):
            gamma = rng.uniform(0.25, 2.0)
            beta = rng.uniform(-2.0, 2.0)
            mean = rng.uniform(-1.0, 1.0)
            var = rng.uniform(0.1, 4.0)
            in_s, w_s, out_s = -7, -7, -6
            try:
                rq, bias = fuse_bn(gamma, beta, mean, var, 1e-5, in_s, w_s, out_s)
            except RequantOverflow:
                continue
            for _ in range(5):
                acc = int(rng.integers(-(1 << 18), 1 << 18))
                fixed = _fixed_path(acc, rq, bias)
                real = bn_real(acc, gamma, beta, mean, var, 1e-5,
                               in_s, w_s, out_s)
                if abs(fixed - real) > 1:
                    bad += 1
        assert bad == 0


def _fixed_path(acc: int, rq: Requant, bias: int) -> int:
    from ucda.qtensor import requantize

    return requantize(acc + bias, rq)
