"""Process-element array: dual-mode evaluation, tiling, BN folding."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucda import pearray
from ucda.oracle import conv2d_ref
from ucda.pearray import HwConfig, PeArray, PeMode, RequantOverflow, fuse_bn
from ucda.qtensor import KernelSet, QTensor, requantize

import reference_impls as ref
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


def _one_pe(pe, mode, window, kernel) -> tuple:
    """One element's slot values: a one-position, one-window, one-kernel array step."""
    out = pe.array_cycle(mode, np.asarray(window)[None, None], np.asarray(kernel)[None, None])
    return tuple(int(v) for v in out.ravel())


class TestPeEval:
    def test_conv_all_ones(self):
        pe = PeArray(HwConfig(tn=1, tm=1))
        values = _one_pe(pe, PeMode.CONV, np.ones((3, 3), np.int8), np.ones((3, 3), np.int8))
        assert values == (9,)

    def test_deconv_worked_example(self):
        pe = PeArray(HwConfig(tn=1, tm=1))
        win = np.array([[1, 2], [3, 4]], np.int8)
        values = _one_pe(pe, PeMode.DECONV, win, K123)
        assert values == (64, 36, 36, 20)

    def test_deconv_zero_window(self):
        pe = PeArray(HwConfig(tn=1, tm=1))
        win = np.zeros((2, 2), np.int8)
        values = _one_pe(pe, PeMode.DECONV, win, K123)
        assert values == (0, 0, 0, 0)

    def test_always_9_multiplications(self):
        pe = PeArray(HwConfig(tn=1, tm=1))
        _one_pe(pe, PeMode.CONV, np.zeros((3, 3), np.int8), K123)
        assert pe.multiplications == 9
        win = np.ones((2, 2), np.int8)
        _one_pe(pe, PeMode.DECONV, win, K123)
        assert pe.multiplications == 18


@pytest.mark.parametrize("mode", list(PeMode))
def test_routing_table_structure(mode):
    """One window on exactly the 9 multipliers, every tap once, in a square patch."""
    pairs = [pair for slot in mode.routing for pair in slot]
    assert len(pairs) == 9
    assert sorted(tap for _, tap in pairs) == [(u, v) for u in range(3) for v in range(3)]
    assert mode.beats == len(mode.routing) == mode.patch ** 2
    assert all(0 <= r < mode.window and 0 <= c < mode.window for (r, c), _ in pairs)


@pytest.mark.parametrize("mode", list(PeMode))
def test_routing_slots_are_raster_rectangles(mode):
    """accumulate_bands gathers each slot with one strided copy: a slot's
    window positions fill their bounding box, listed in raster order, and
    the rectangles derived at import are those boxes."""
    for slot, rect in zip(mode.routing, pearray._RECTS[mode], strict=True):
        rows, cols = zip(*(pos for pos, _ in slot))
        r0, c0 = min(rows), min(cols)
        box = (r0, c0, max(rows) - r0 + 1, max(cols) - c0 + 1)
        assert [pos for pos, _ in slot] == [(r0 + i, c0 + j) for i in range(box[2])
                                            for j in range(box[3])]
        assert rect == box


@pytest.mark.parametrize("positions", [
    [(0, 1), (0, 0)],                   # out of raster order
    [(0, 0), (0, 1), (1, 0)],           # not a whole rectangle
    [(0, 0), (1, 1)]],                  # a diagonal
    ids=["reversed", "l-shape", "diagonal"])
def test_a_slot_that_is_no_raster_rectangle_fails_loudly(positions):
    with pytest.raises(ValueError, match="not a raster-ordered rectangle"):
        pearray._rectangle([(pos, (0, 0)) for pos in positions])


class TestArrayCycle:
    def test_two_channel_ones(self):
        cfg = HwConfig(tn=2, tm=2)
        pe = PeArray(cfg)
        windows = np.ones((2, 3, 3), np.int8)
        kernels = np.ones((2, 2, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.CONV, windows[None], kernels)[0]
        assert out.tolist() == [18, 18]  # 2 channels x 9 taps

    def test_identical_weights_identical_outputs(self):
        cfg = HwConfig(tn=8, tm=8)
        pe = PeArray(cfg)
        rng = np.random.default_rng(0)
        windows = rng.integers(-128, 128, (8, 3, 3)).astype(np.int8)
        one = rng.integers(-128, 128, (1, 8, 3, 3)).astype(np.int8)
        kernels = np.repeat(one, 8, axis=0)
        out = pe.array_cycle(PeMode.CONV, windows[None], kernels)[0]
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
        window = x.data.transpose(2, 0, 1)[None]  # one spatial position, (1, C, 3, 3)
        pe = PeArray(cfg)
        total = (pe.array_cycle(PeMode.CONV, window[:, :8], wk[:, :8])
                 + pe.array_cycle(PeMode.CONV, window[:, 8:], wk[:, 8:]))[0]
        want = conv2d_ref(x, ks, ())  # valid conv, single output pixel
        assert total.tolist() == want[0, 0].tolist()

    def test_partial_last_tile(self):
        cfg = HwConfig(tn=8, tm=2)
        pe = PeArray(cfg)
        windows = np.ones((3, 3, 3), np.int8)  # only 3 live channels
        kernels = np.ones((2, 3, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.CONV, windows[None], kernels)[0]
        assert out.tolist() == [27, 27]

    def test_deconv_beats_shape(self):
        cfg = HwConfig(tn=2, tm=4)  # 3 of 4 output lanes live
        pe = PeArray(cfg)
        windows = np.ones((2, 2, 2), np.int8)
        kernels = np.ones((3, 2, 3, 3), np.int8)
        out = pe.array_cycle(PeMode.DECONV, windows[None], kernels)[0]
        assert out.shape == (3, 4)
        # all-ones window x all-ones kernel: patch sums are (4, 2, 2, 1) x Tn
        assert out.tolist() == [[8, 4, 4, 2]] * 3

    @pytest.mark.parametrize("mode, side", [(PeMode.DECONV, 3), (PeMode.CONV, 2)])
    def test_window_side_enforced(self, mode, side):
        """A window of the other mode's side raises; it is never cropped."""
        pe = PeArray(HwConfig(tn=2, tm=2))
        with pytest.raises(ValueError, match=f"got \\({side}, {side}\\)"):
            pe.array_cycle(mode, np.ones((1, 2, side, side), np.int8),
                           np.ones((2, 2, 3, 3), np.int8))
        assert pe.multiplications == 0

    def test_grid_limits_enforced(self):
        pe = PeArray(HwConfig(tn=2, tm=2))
        win, kern = np.ones((1, 3, 3, 3), np.int8), np.ones((2, 3, 3, 3), np.int8)
        with pytest.raises(ValueError, match="channel windows"):
            pe.array_cycle(PeMode.CONV, win, kern)            # 3 > Tn
        with pytest.raises(ValueError, match="channel windows"):
            pe.array_cycle(PeMode.CONV, win[:, :0], kern[:, :0])
        with pytest.raises(ValueError, match="output channels"):
            pe.array_cycle(PeMode.CONV, win[:, :2], np.ones((3, 2, 3, 3), np.int8))
        with pytest.raises(ValueError, match="kernel slice"):
            pe.array_cycle(PeMode.CONV, win[:, :2], kern[:, :1])
        assert pe.multiplications == 0


@given(st.sampled_from(list(PeMode)), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([1, 2, 4, 8]), st.data(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_array_cycle_matches_literal_references(mode, tn, tm, data, seed):
    """One step of a one-PE, full or partial Tn x Tm grid at 1-5 positions,
    each position against the patch equations written out and a
    single-window conv3x3_loops."""
    n = data.draw(st.integers(1, tn), label="n")
    m = data.draw(st.integers(1, tm), label="m")
    b = data.draw(st.integers(1, 5), label="b")
    rng = np.random.default_rng(seed)
    k = mode.window
    batch = rng.integers(-128, 128, (b, n, k, k)).astype(np.int8)
    kernels = rng.integers(-128, 128, (m, n, 3, 3)).astype(np.int8)
    pe = PeArray(HwConfig(tn=tn, tm=tm))
    got = pe.array_cycle(mode, batch, kernels)
    assert got.shape == ((b, m, 4) if mode is PeMode.DECONV else (b, m))
    assert pe.multiplications == 9 * b * m * n
    for windows, at in zip(batch, got):
        window_map = np.moveaxis(windows, 0, 2)        # (k, k, n), one window
        if mode is PeMode.CONV:
            want = [[acc] for acc in ref.conv3x3_loops(window_map, kernels, [0] * m,
                                                       (0, 0, 0, 0))[0][0]]
        else:
            want = [[sum(ref.patch_equations(windows[ci], kernels[co, ci])[s]
                         for ci in range(n)) for s in range(4)] for co in range(m)]
            # deconvolved alone, the window's patch is the bottom-right 2x2 block
            block = np.array(ref.deconv_loops(window_map, kernels, [0] * m))[2:, 2:]
            assert block.reshape(4, m).T.tolist() == want
        assert at.reshape(m, mode.beats).tolist() == want


class TestFuseBn:
    def test_identity_gives_pure_rescale(self):
        mult, shift, bias = fuse_bn([1.0], [0.0], [0.0], [1.0], 0.0, -7, 0, 0)
        assert (mult.dtype, shift.dtype, bias.dtype) == (np.int16, np.uint8, np.int64)
        assert (mult.tolist(), shift.tolist(), bias.tolist()) == ([16384], [6], [0])
        assert mult[0] / 2.0 ** (15 + shift[0]) == 2.0 ** -7

    def test_gamma_doubles_multiplier_scale(self):
        mult, shift, _ = fuse_bn([1.0, 2.0], [0.0] * 2, [0.0] * 2, [1.0] * 2, 0.0,
                                 -7, 0, 0)
        base, double = mult / 2.0 ** (15 + shift)
        assert double == 2 * base

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError, match="^channel 0: var \\+ eps must be positive$"):
            fuse_bn([1.0], [0.0], [0.0], [-2.0], 1.0, -7, 0, 0)

    def test_multiplier_overflow_signalled(self):
        # scale product >= 1 cannot be encoded as m/2**15 with m <= 32767
        with pytest.raises(RequantOverflow):
            fuse_bn([1.0], [0.0], [0.0], [1.0], 0.0, 0, 0, 0)

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
                mult, shift, bias = fuse_bn([gamma], [beta], [mean], [var], 1e-5,
                                            in_s, w_s, out_s)
            except RequantOverflow:
                continue
            for _ in range(5):
                acc = int(rng.integers(-(1 << 18), 1 << 18))
                fixed = requantize(acc + int(bias[0]), mult[0], shift[0])
                real = bn_real(acc, gamma, beta, mean, var, 1e-5,
                               in_s, w_s, out_s)
                if abs(fixed - real) > 1:
                    bad += 1
        assert bad == 0


@st.composite
def _bn_layers(draw):
    """(channels, eps, (in, w, out) scale exps); a channel is (gamma, beta,
    mean, var). Gains aim at the shift boundaries and rounding ties of the
    drawn scales; zero gains, var + eps <= 0, multipliers and biases
    beyond range come up often, so many layers have several failing channels.
    """
    eps = draw(st.sampled_from([0.0, 1e-5]))
    exps = draw(st.tuples(st.integers(-20, 0), st.integers(-16, 0), st.integers(-20, 4)))
    # with var + eps == 1 the candidate multiplier at shift s is
    # gamma * 2**(x + 15 + s)
    x = exps[0] + exps[1] - exps[2]
    at_shift = st.integers(-2, 33).map(lambda s: 2.0 ** -(x + 15 + s))
    edge = st.sampled_from([32767.5, np.nextafter(32767.5, 0), np.nextafter(32767.5, 1e5),
                            32767.0, 32768.0, 16383.75, 16384.0])
    tie = st.integers(16384, 32766).map(lambda m: m + 0.5)
    sign = st.sampled_from([1.0, -1.0])
    gamma = st.one_of(
        st.builds(lambda s, v, p: s * v * p, sign, st.one_of(edge, tie), at_shift),
        st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-30))
    offset = st.floats(-1e3, 1e3)
    var = st.one_of(st.just(1.0), st.floats(1e-6, 1e4), st.sampled_from([0.0, -eps, -1.0]))
    channels = draw(st.lists(st.tuples(gamma, offset, offset, var), min_size=1, max_size=5))
    return channels, eps, exps


@given(_bn_layers())
@example(([(1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0), (0.0, 0.0, 0.0, 1.0)],
          0.0, (-7, 0, 0)))                        # var + eps before zero gain
@example(([(1.0, 0.0, 0.0, 1.0), (-0.0, 0.5, 0.0, 1.0)], 1e-5, (-7, 0, 0)))  # zero gain
@example(([(1.0, 0.0, 0.0, 1.0), (1.0, 1e30, 0.0, 1.0), (8.0, 0.0, 0.0, 1.0)],
          0.0, (-7, 0, -4)))                       # the lowest failing channel
@example(([(8.0, 1e30, 0.0, 1.0)], 0.0, (-7, 0, -4)))  # multiplier before bias
@example(([(20000.5 / 2 ** 15, 0.5, 0.0, 1.0), (-20000.5 / 2 ** 15, 0.5, 0.0, 1.0),
           ((1 - 2.0 ** -16) / 2, 0.0, 0.0, 1.0)],
          0.0, (0, 0, 0)))                         # ties; 32767.5 at shift 1
@example(([(1 - 2.0 ** -16, 0.0, 0.0, 1.0)], 0.0, (0, 0, 0)))  # 32767.5 at shift 0
@example(([(1.0, 0.0, 0.0, -1e-5)], 1e-5, (-7, 0, 0)))  # var + eps == 0
# a bias past 2**52, where adding 0.5 before the floor rounds 2k+1 to 2k+2
@example(([(1.1368510299814005e-13, 512.0, 1.0, 1.0)], 0.0, (0, 0, -18)))
@settings(max_examples=400)
def test_fuse_bn_matches_scalar_reference(layer):
    """The layer fold equals the per-channel scalar fold channel by channel,
    or raises the same type and message for the same (first) channel."""
    channels, eps, exps = layer
    want, error = [], None
    for c, channel in enumerate(channels):
        try:
            want.append(ref.fuse_bn_channel(*channel, eps, *exps))
        except ValueError as e:
            error = (type(e), f"channel {c}: {e}")
            break
    columns = [np.array(col, dtype=np.float64) for col in zip(*channels)]
    if error is None:
        mult, shift, bias = fuse_bn(*columns, eps, *exps)
        assert (mult.dtype, shift.dtype, bias.dtype) == (np.int16, np.uint8, np.int64)
        assert list(zip(mult.tolist(), shift.tolist(), bias.tolist())) == want
    else:
        with pytest.raises(ValueError) as info:
            fuse_bn(*columns, eps, *exps)
        assert (type(info.value), str(info.value)) == error
