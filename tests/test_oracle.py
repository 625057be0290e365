"""Reference layer ops against independently written loop implementations."""
import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda import oracle
from ucda.oracle import (
    OpCounters,
    avgpool_ref,
    bn_act_ref,
    conv2d_ref,
    deconv_naive,
    maxpool_ref,
    reference_layer,
)
from ucda.qtensor import (
    ACC_MAX,
    ACC_MIN,
    AccumulatorOverflow,
    KernelSet,
    QTensor,
    Requantizer,
    check_accum,
    requantize,
)

import reference_impls as ref


def _ks(weights, bias=None, rotated=False):
    weights = np.asarray(weights, dtype=np.int8)
    cout = weights.shape[0]
    if bias is None:
        bias = np.zeros(cout, np.int32)
    return KernelSet(
        weights=weights, bias=np.asarray(bias, np.int32),
        bn_multiplier=np.full(cout, 16384, np.int16),
        bn_shift=np.zeros(cout, np.uint8), scale_exp=0, rotated=rotated)


def _rand_tensor(rng, h, w, c):
    return QTensor(rng.integers(-128, 128, (h, w, c)).astype(np.int8), 0)


ALL = ("top", "bottom", "left", "right")


class TestConv2dRef:
    def test_ones_full_padding(self):
        x = QTensor(np.ones((4, 4, 1), np.int8), 0)
        ks = _ks(np.ones((1, 1, 3, 3)))
        acc = conv2d_ref(x, ks, ALL)
        assert acc.shape == (4, 4, 1)
        assert acc[1, 1, 0] == 9 and acc[2, 2, 0] == 9
        assert acc[0, 0, 0] == 4 and acc[0, 3, 0] == 4 and acc[3, 3, 0] == 4

    def test_zero_weights_yield_bias(self):
        rng = np.random.default_rng(0)
        x = _rand_tensor(rng, 3, 5, 2)
        ks = _ks(np.zeros((3, 2, 3, 3)), bias=[7, -9, 123])
        acc = conv2d_ref(x, ks, ALL)
        assert np.array_equal(acc, np.broadcast_to([7, -9, 123], (3, 5, 3)))

    def test_against_quadruple_loop(self):
        rng = np.random.default_rng(1)
        x = _rand_tensor(rng, 5, 5, 2)
        w = rng.integers(-128, 128, (3, 2, 3, 3)).astype(np.int8)
        b = rng.integers(-500, 500, 3)
        acc = conv2d_ref(x, _ks(w, b), ALL)
        want = np.array(ref.conv3x3_loops(x.data, w, b, (1, 1, 1, 1)))
        assert np.array_equal(acc, want)

    @given(st.integers(3, 7), st.integers(3, 7), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_vs_loops(self, h, w, cin, cout, seed):
        rng = np.random.default_rng(seed)
        x = _rand_tensor(rng, h, w, cin)
        wk = rng.integers(-128, 128, (cout, cin, 3, 3)).astype(np.int8)
        b = rng.integers(-100, 100, cout)
        pads = tuple(rng.integers(0, 2, 4))
        edges = tuple(e for e, p in zip(ALL, pads) if p)
        if h + pads[0] + pads[1] < 3 or w + pads[2] + pads[3] < 3:
            return
        acc = conv2d_ref(x, _ks(wk, b), edges)
        assert np.array_equal(acc, ref.conv3x3_loops(x.data, wk, b, pads))

    def test_linearity_in_input(self):
        rng = np.random.default_rng(4)
        base = rng.integers(-20, 21, (4, 4, 2)).astype(np.int8)
        ks = _ks(rng.integers(-30, 31, (2, 2, 3, 3)))
        a1 = conv2d_ref(QTensor(base, 0), ks, ALL)
        a3 = conv2d_ref(QTensor((3 * base).astype(np.int8), 0), ks, ALL)
        assert np.array_equal(a3, 3 * a1)


class TestDeconvNaive:
    def test_output_sizes(self):
        x = QTensor(np.ones((2, 2, 1), np.int8), 0)
        ks = _ks(np.ones((1, 1, 3, 3)), rotated=True)
        assert deconv_naive(x, ks).shape == (4, 4, 1)

    def test_single_pixel_touches_rotated_corner(self):
        rng = np.random.default_rng(5)
        k = rng.integers(-100, 100, (1, 1, 3, 3)).astype(np.int8)
        x = np.zeros((2, 2, 1), np.int8)
        x[0, 0, 0] = 1
        out = deconv_naive(QTensor(x, 0), _ks(k, rotated=True))
        # the first output pixel sees only the stored kernel's last tap
        assert out[0, 0, 0] == k[0, 0, 2, 2]

    def test_rejects_unrotated(self):
        x = QTensor(np.zeros((2, 2, 1), np.int8), 0)
        with pytest.raises(ValueError):
            deconv_naive(x, _ks(np.zeros((1, 1, 3, 3)), rotated=False))

    def test_against_loop_reference(self):
        rng = np.random.default_rng(6)
        x = _rand_tensor(rng, 3, 4, 2)
        w = rng.integers(-128, 128, (2, 2, 3, 3)).astype(np.int8)
        b = rng.integers(-50, 50, 2)
        got = deconv_naive(x, _ks(w, b, rotated=True))
        want = np.array(ref.deconv_loops(x.data, w, b))
        assert np.array_equal(got, want)

    def test_counts_all_taps_including_zeros(self):
        c = OpCounters()
        x = QTensor(np.zeros((3, 5, 2), np.int8), 0)
        deconv_naive(x, _ks(np.zeros((4, 2, 3, 3)), rotated=True), counters=c)
        assert c.multiplications == 9 * 6 * 10 * 2 * 4


def _band_bytes(rows, ow, cin, cout):
    """BAND_BYTES that gives bands of `rows` output rows, rounded down to an
    even count of at least two: the band's working set, at 8 bytes a
    value, is its im2col block plus its GEMM's planes of sums. That is a
    (rows*ow, 9*cin) block and cout sums a row when 3*cin < cout, else a
    (rows*(ow+2), 3*cin) block and three planes of cout sums."""
    if 3 * cin < cout:
        return rows * 8 * ow * (9 * cin + cout)
    return rows * 8 * (ow + 2) * 3 * (cin + cout)


class TestBands:
    """Both block layouts, the nine-tap one (3*cin < cout) and the stacked
    one, in bands of any even height, against the loop references."""

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.integers(1, 10), st.integers(1, 13), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_banded_equals_loops(self, h, w, cin, cout, rows, seed):
        rng = np.random.default_rng(seed)
        x = _rand_tensor(rng, h, w, cin)
        wk = rng.integers(-128, 128, (cout, cin, 3, 3)).astype(np.int8)
        b = rng.integers(-1000, 1000, cout)
        pads = tuple(int(p) for p in rng.integers(0, 2, 4))
        edges = tuple(e for e, p in zip(ALL, pads) if p)
        with pytest.MonkeyPatch.context() as mp:
            if h + pads[0] + pads[1] >= 3 and w + pads[2] + pads[3] >= 3:
                ow = w + pads[2] + pads[3] - 2
                mp.setattr(oracle, "BAND_BYTES", _band_bytes(rows, ow, cin, cout))
                acc = conv2d_ref(x, _ks(wk, b), edges)
                assert np.array_equal(acc, ref.conv3x3_loops(x.data, wk, b, pads))
            mp.setattr(oracle, "BAND_BYTES", _band_bytes(rows, 2 * w, cin, cout))
            got = deconv_naive(x, _ks(wk, b, rotated=True))
            assert np.array_equal(got, ref.deconv_loops(x.data, wk, b))

    # cin = 2: cout = 6 is the widest stacked layer, cout = 7 the narrowest
    # nine-tap one
    @pytest.mark.parametrize("cout", [6, 7], ids=["stacked", "nine-tap"])
    @pytest.mark.parametrize("kind", ["conv3x3", "deconv2x"])
    def test_both_sides_of_the_layout_rule(self, monkeypatch, kind, cout):
        rng = np.random.default_rng(cout)
        cin, h, w = 2, 5, 4
        x = _rand_tensor(rng, h, w, cin)
        wk = rng.integers(-128, 128, (cout, cin, 3, 3)).astype(np.int8)
        b = rng.integers(-1000, 1000, cout)
        ks = _ks(wk, b, rotated=kind == "deconv2x")
        if kind == "conv3x3":
            ow, run = w, lambda: conv2d_ref(x, ks, ALL)
            want = ref.conv3x3_loops(x.data, wk, b, (1, 1, 1, 1))
        else:
            ow, run = 2 * w, lambda: deconv_naive(x, ks)
            want = ref.deconv_loops(x.data, wk, b)
        monkeypatch.setattr(oracle, "BAND_BYTES", _band_bytes(4, ow, cin, cout))
        assert np.array_equal(run(), want)
        narrowed = bn_act_ref(np.array(want), ks.bn_multiplier, ks.bn_shift)
        heights = []
        narrow = Requantizer.narrow
        monkeypatch.setattr(Requantizer, "narrow", lambda self, acc: (
            heights.append(len(acc)) or narrow(self, acc)))
        out = reference_layer(x, ks, kind, "none", "none", 0)
        assert np.array_equal(out.data, narrowed.data)
        # bands of 4 rows, as the layout's working set gives: a conv's last
        # band has one row, a deconv's two
        assert heights == ([4, 1] if kind == "conv3x3" else [4, 4, 2])

    def test_tiny_budget_still_runs_one_row_bands(self, monkeypatch):
        rng = np.random.default_rng(10)
        x = _rand_tensor(rng, 5, 4, 2)
        ks = _ks(rng.integers(-128, 128, (3, 2, 3, 3)), rng.integers(-9, 9, 3))
        want = conv2d_ref(x, ks, ALL)
        # a budget below one row still gives bands, of the two-row minimum
        monkeypatch.setattr(oracle, "BAND_BYTES", 0)
        assert np.array_equal(conv2d_ref(x, ks, ALL), want)


class TestGemmDtype:
    """The GEMM runs in float32 only while 9*cin products of 2**14 sum to at
    most 2**24: cin <= 113."""

    @pytest.mark.parametrize("cin, want", [(113, 16_646_145), (114, 16_793_601)])
    def test_guard_on_both_sides_of_two_to_the_24(self, cin, want):
        # one output pixel and channel: 9*cin - 1 products of (-128)**2 = 2**14
        # and one of 1; at cin = 114 the odd sum lies above 2**24, where a
        # float32 GEMM rounds it to 16,793,600
        x = np.full((3, 3, cin), -128, np.int8)
        wk = np.full((1, cin, 3, 3), -128, np.int8)
        x[-1, -1, -1] = 1
        wk[0, -1, -1, -1] = 1
        acc = conv2d_ref(QTensor(x, 0), _ks(wk), ())
        loops = ref.conv3x3_loops(x, wk, [0], (0, 0, 0, 0))
        assert loops == [[[want]]]
        assert acc.tolist() == loops

    def test_widest_float32_layer_in_bands(self, monkeypatch):
        rng = np.random.default_rng(113)
        h, w, cin, cout = 5, 4, 113, 2
        x = rng.choice(np.array([-128, 127], np.int8), (h, w, cin))
        wk = rng.choice(np.array([-128, 127], np.int8), (cout, cin, 3, 3))
        b = rng.integers(-2 ** 30, 2 ** 30, cout)
        # bands of 2 rows over 5 output rows: the last band is ragged
        monkeypatch.setattr(oracle, "BAND_BYTES", _band_bytes(2, w, cin, cout))
        acc = conv2d_ref(QTensor(x, 0), _ks(wk, b), ALL)
        assert acc.tolist() == ref.conv3x3_loops(x, wk, b, (1, 1, 1, 1))

    @pytest.mark.parametrize("kind", ["conv3x3", "deconv2x"])
    def test_float64_layer_in_stacked_bands(self, monkeypatch, kind):
        # cin = 114, cout = 2: the stacked layout in float64. As above, the
        # output whose corner tap meets a 1 sums to 1025 * 2**14 + 1, which
        # float32 rounds; one such output in each of the conv's first two
        # bands, and its last band of one row is ragged
        h, w, cin, cout = 5, 6, 114, 2
        x = np.full((h, w, cin), -128, np.int8)
        x[2, 2, -1] = x[4, 5, -1] = 1
        wk = np.full((cout, cin, 3, 3), -128, np.int8)
        wk[:, -1, -1, -1] = 1
        ks = _ks(wk, rotated=kind == "deconv2x")
        if kind == "conv3x3":
            ow, run = w, lambda: conv2d_ref(QTensor(x, 0), ks, ALL)
            want = ref.conv3x3_loops(x, wk, [0, 0], (1, 1, 1, 1))
            assert [want[y][c][0] for y, c in ((1, 1), (3, 4))] == [16_793_601] * 2
        else:
            ow, run = 2 * w, lambda: deconv_naive(QTensor(x, 0), ks)
            want = ref.deconv_loops(x, wk, [0, 0])
        monkeypatch.setattr(oracle, "BAND_BYTES", _band_bytes(2, ow, cin, cout))
        assert run().tolist() == want


def _extremes(rng, shape):
    """int8 values of the largest magnitudes, both signs."""
    return rng.choice(np.array([-128, 127], np.int8), shape)


def _streamed_acc(x, ks, kind):
    """The int32 map reference_layer narrows, gathered band by band from
    its per-band requantize calls, and the layer's output."""
    bands = []
    narrow = Requantizer.narrow

    def spy(self, acc):
        bands.append(acc)
        return narrow(self, acc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Requantizer, "narrow", spy)
        out = reference_layer(x, ks, kind, "none", "none", 0)
    assert all(b.dtype == np.int32 for b in bands)
    return np.concatenate(bands), out


class TestRangeProof:
    """Shape and bias prove acc + bias inside int32 once per layer when
    every |bias| <= ACC_MAX - 9*cin*2**14: such a layer adds its bias in
    int32 and checks no band. One past that edge, every band is checked."""

    @staticmethod
    def _edge(cin):
        return ACC_MAX - (9 * cin << 14)

    @pytest.fixture
    def checked(self, monkeypatch):
        """The dtypes of the bands _gemm_bands range-checks."""
        calls = []

        def spy(values):
            calls.append(values.dtype)
            return check_accum(values)

        monkeypatch.setattr(oracle, "check_accum", spy)
        return calls

    # (cin, h, w); cin = 114 runs the GEMM in float64
    SHAPES = [(1, 3, 3), (2, 2, 1), (3, 1, 2), (114, 2, 2)]

    @pytest.mark.parametrize("cin, h, w", SHAPES)
    @pytest.mark.parametrize("past", [(0, 0), (1, 0), (0, 1)],
                             ids=["proven", "checked-high", "checked-low"])
    def test_maps_at_the_edge_equal_loops(self, checked, cin, h, w, past):
        rng = np.random.default_rng(cin)
        edge = self._edge(cin)
        bias = [edge + past[0], -edge - past[1]]
        x = QTensor(_extremes(rng, (h, w, cin)), 0)
        wk = _extremes(rng, (2, cin, 3, 3))
        ks, ks_r = _ks(wk, bias), _ks(wk, bias, rotated=True)
        conv = np.array(ref.conv3x3_loops(x.data, wk, bias, (1, 1, 1, 1)))
        deconv = np.array(ref.deconv_loops(x.data, wk, bias))
        assert np.array_equal(conv2d_ref(x, ks, ALL), conv)
        assert np.array_equal(deconv_naive(x, ks_r), deconv)
        for kind, k, want in (("conv3x3", ks, conv), ("deconv2x", ks_r, deconv)):
            acc, out = _streamed_acc(x, k, kind)
            assert np.array_equal(acc, want)
            assert np.array_equal(out.data, bn_act_ref(
                want, k.bn_multiplier, k.bn_shift).data)
        if past == (0, 0):
            assert checked == []
        else:
            # conv2d_ref, deconv_naive and two reference_layer calls, one
            # band each
            assert checked == [np.float64] * 4

    @pytest.mark.parametrize("cin", [1, 114])
    def test_edge_is_tight_and_one_past_overflows(self, cin):
        # every product is (-128)**2 = 2**14, so the centre of a 3x3 map
        # reaches 9*cin*2**14: the edge bias puts it at ACC_MAX exactly
        x = QTensor(np.full((3, 3, cin), -128, np.int8), 0)
        wk = np.full((1, cin, 3, 3), -128, np.int8)
        edge = self._edge(cin)
        want = np.array(ref.conv3x3_loops(x.data, wk, [edge], (1, 1, 1, 1)))
        assert want.max() == ACC_MAX
        assert np.array_equal(conv2d_ref(x, _ks(wk, [edge]), ALL), want)
        ks = _ks(wk, [edge + 1])
        message = re.escape("accumulator out of 32-bit range: "
                            f"min={want.min() + 1} max={ACC_MAX + 1}")
        with pytest.raises(AccumulatorOverflow, match=f"^{message}$"):
            conv2d_ref(x, ks, ALL)
        with pytest.raises(AccumulatorOverflow, match=f"^{message}$"):
            reference_layer(x, ks, "conv3x3", "relu", "none", 0)

    def test_deconv_overflow_keeps_its_message(self):
        # a zero-inserted window holds at most four input pixels
        x = QTensor(np.full((2, 2, 1), -128, np.int8), 0)
        wk = np.full((1, 1, 3, 3), -128, np.int8)
        want = np.array(ref.deconv_loops(x.data, wk, [ACC_MAX]))
        message = re.escape("accumulator out of 32-bit range: "
                            f"min={want.min()} max={want.max()}")
        ks = _ks(wk, [ACC_MAX], rotated=True)
        with pytest.raises(AccumulatorOverflow, match=f"^{message}$"):
            deconv_naive(x, ks)
        with pytest.raises(AccumulatorOverflow, match=f"^{message}$"):
            reference_layer(x, ks, "deconv2x", "none", "max", 0)


class TestRowRunGather:
    """The im2col block is one strided copy of the band's input rows, each
    (row, column) of it kv columns of one input row, a run of kv*cin input
    values: narrow, strided and reversed input maps gather the same values
    as a contiguous one."""

    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "view"])
    @pytest.mark.parametrize("w", [1, 2, 3])
    @pytest.mark.parametrize("cin", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["conv3x3", "deconv2x"])
    def test_narrow_maps_equal_loops(self, kind, cin, w, view):
        rng = np.random.default_rng(10 * cin + w)
        data = rng.integers(-128, 128, (2, 2 * w, cin + 1)).astype(np.int8)
        # every other column and all channels but the first, backwards
        data = data[:, ::2, :0:-1]
        x = QTensor(data if view else np.ascontiguousarray(data), 0)
        assert x.data.flags.c_contiguous != view
        wk = rng.integers(-128, 128, (3, cin, 3, 3)).astype(np.int8)
        b = rng.integers(-1000, 1000, 3)
        ks = _ks(wk, b, rotated=kind == "deconv2x")
        if kind == "conv3x3":
            got = conv2d_ref(x, ks, ALL)
            want = ref.conv3x3_loops(data, wk, b, (1, 1, 1, 1))
        else:
            got = deconv_naive(x, ks)
            want = ref.deconv_loops(data, wk, b)
        assert np.array_equal(got, want)
        assert np.array_equal(_streamed_acc(x, ks, kind)[0], want)


class TestOverflow:
    """An out-of-range accumulator raises wherever it sits, the last of
    several bands included."""

    H, W = 5, 3

    def _case(self, pixel, sign):
        # only the centre tap is non-zero, so the pixel in the bottom input
        # row reaches the bottom output row alone; the bias sits 100 inside
        # the range and a product of 127 * 127 carries that row past it
        k = np.zeros((1, 1, 3, 3), np.int8)
        k[0, 0, 1, 1] = 127 * sign
        x = np.zeros((self.H, self.W, 1), np.int8)
        x[-1, 1, 0] = pixel
        bias = ACC_MAX - 100 if sign > 0 else ACC_MIN + 100
        return QTensor(x, 0), k, [bias]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_conv_overflow_in_last_band(self, monkeypatch, sign):
        # bands of 2 rows over 5 output rows: the last band is ragged
        monkeypatch.setattr(oracle, "BAND_BYTES", _band_bytes(2, self.W, 1, 1))
        x, k, bias = self._case(0, sign)
        acc = conv2d_ref(x, _ks(k, bias), ALL)
        assert np.all(acc == bias[0])
        x, k, bias = self._case(127, sign)
        with pytest.raises(AccumulatorOverflow):
            conv2d_ref(x, _ks(k, bias), ALL)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_deconv_overflow_in_last_band(self, monkeypatch, sign):
        # 2*H = 10 output rows in bands of 4: the last band holds two rows
        ow = 2 * self.W
        monkeypatch.setattr(oracle, "BAND_BYTES", _band_bytes(4, ow, 1, 1))
        x, k, bias = self._case(0, sign)
        acc = deconv_naive(x, _ks(k, bias, rotated=True))
        assert acc.shape == (2 * self.H, ow, 1) and np.all(acc == bias[0])
        x, k, bias = self._case(127, sign)
        with pytest.raises(AccumulatorOverflow):
            deconv_naive(x, _ks(k, bias, rotated=True))

    @pytest.mark.parametrize("value", [ACC_MAX + 1, ACC_MIN - 1])
    def test_bn_act_ref_rejects_out_of_range(self, value):
        acc = np.zeros((2, 2, 1), np.int64)
        acc[1, 1, 0] = value
        with pytest.raises(AccumulatorOverflow):
            bn_act_ref(acc, [16384], [0])
        with pytest.raises(AccumulatorOverflow):
            bn_act_ref(acc.astype(np.float64), [16384], [0])


class TestReferenceLayer:
    """reference_layer streams one stage band by band and equals the
    whole-map chain: bn_act_ref over conv2d_ref or deconv_naive, then the
    reference pool."""

    POOLS = {"none": lambda q: q, "max": maxpool_ref, "avg": avgpool_ref}

    @given(st.sampled_from(["conv3x3", "deconv2x"]),
           st.sampled_from(sorted(POOLS)),
           st.sampled_from(["none", "relu", "leaky"]),
           st.sampled_from([1, oracle.BAND_BYTES]),
           st.sampled_from([0, 1, 127]), st.integers(1, 1 << 17), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_whole_map_chain(self, kind, pool, act, band_bytes,
                                        w_max, small, data):
        h, w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        cin, cout = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        # the biases of the engine's int32-edge test (both ends and near
        # them), and small ones that leave the tail unsaturated
        edges = [ACC_MIN, ACC_MIN + small, 0, ACC_MAX - small, ACC_MAX]
        bias = data.draw(st.lists(
            st.one_of(st.sampled_from(edges), st.integers(-4096, 4096)),
            min_size=cout, max_size=cout))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        x = _rand_tensor(rng, h, w, cin)
        ks = KernelSet(
            weights=rng.integers(-w_max, w_max + 1, (cout, cin, 3, 3)).astype(np.int8),
            bias=np.array(bias, np.int32),
            bn_multiplier=rng.integers(-32768, 32768, cout).astype(np.int16),
            bn_shift=rng.integers(0, 32, cout).astype(np.uint8),
            scale_exp=0, rotated=kind == "deconv2x")

        def whole():
            acc = (conv2d_ref(x, ks, ALL) if kind == "conv3x3"
                   else deconv_naive(x, ks))
            q = bn_act_ref(acc, ks.bn_multiplier, ks.bn_shift, act=act,
                           out_scale_exp=-5)
            return self.POOLS[pool](q)

        def outcome(run):
            try:
                out = run()
            except AccumulatorOverflow as e:
                return str(e)
            return out.scale_exp, out.data.dtype, out.data.tolist()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BAND_BYTES", band_bytes)
            streamed = lambda: reference_layer(x, ks, kind, act, pool, -5)
            if kind == "conv3x3" and pool != "none" and (h % 2 or w % 2):
                with pytest.raises(ValueError,
                                   match=f"pooling needs even dims, got {h}x{w}"):
                    streamed()
                return
            assert outcome(streamed) == outcome(whole)

    def test_counts_dense_multiplications_of_deconvolutions_only(self):
        rng = np.random.default_rng(12)
        x = _rand_tensor(rng, 3, 4, 2)
        counters = OpCounters()
        reference_layer(x, _ks(rng.integers(-9, 9, (5, 2, 3, 3))), "conv3x3",
                        "relu", "none", 0, counters)
        assert counters.multiplications == 0
        reference_layer(x, _ks(rng.integers(-9, 9, (5, 2, 3, 3)), rotated=True),
                        "deconv2x", "relu", "max", 0, counters)
        assert counters.multiplications == 9 * 6 * 8 * 2 * 5


class TestPooling:
    def test_examples(self):
        block = QTensor(np.array([[[1], [2]], [[3], [4]]], np.int8), -3)
        assert maxpool_ref(block).data[0, 0, 0] == 4
        assert avgpool_ref(block).data[0, 0, 0] == 2  # 10/4 truncated

    def test_avg_truncates_toward_zero(self):
        block = QTensor(np.array([[[-1], [-2]], [[-3], [-4]]], np.int8), 0)
        assert avgpool_ref(block).data[0, 0, 0] == -2  # -10/4 -> -2, not -3

    def test_constant(self):
        t = QTensor(np.full((4, 6, 3), -37, np.int8), -2)
        for fn in (maxpool_ref, avgpool_ref):
            out = fn(t)
            assert out.shape == (2, 3, 3)
            assert np.all(out.data == -37)
            assert out.scale_exp == -2

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            maxpool_ref(QTensor(np.zeros((3, 4, 1), np.int8), 0))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25)
    def test_vs_loop_reference(self, hh, wh, c, seed):
        rng = np.random.default_rng(seed)
        t = _rand_tensor(rng, 2 * hh, 2 * wh, c)
        assert np.array_equal(maxpool_ref(t).data, ref.maxpool_loops(t.data))
        assert np.array_equal(avgpool_ref(t).data, ref.avgpool_loops(t.data))


class TestBnActRef:
    def test_negative_relu_clips(self):
        out = bn_act_ref(np.full((1, 1, 1), -256), [32767], [8], act="relu")
        assert out.data[0, 0, 0] == 0

    def test_unit_scale_requant(self):
        out = bn_act_ref(np.full((1, 1, 1), 256), [32767], [8], act="relu")
        assert out.data[0, 0, 0] == 1

    def test_leaky_shifts_negative(self):
        out = bn_act_ref(np.full((1, 1, 1), -2048), [32767], [8], act="leaky")
        assert out.data[0, 0, 0] == -1  # -8 >> 3

    def test_leaky_rounds_away_for_negatives(self):
        # -1 >> 3 is -1 under arithmetic shift: away from zero at magnitude < 8
        out = bn_act_ref(np.full((1, 1, 1), -256), [32767], [8], act="leaky")
        assert out.data[0, 0, 0] == -1

    def test_matches_scalar_requantize(self):
        rng = np.random.default_rng(8)
        acc = rng.integers(-(1 << 20), 1 << 20, (3, 4, 2))
        mult = np.array([29000, -15000], np.int16)
        shift = np.array([9, 4], np.uint8)
        out = bn_act_ref(acc, mult, shift)
        for y, x, c in np.ndindex(acc.shape):
            want = requantize(acc[y, x, c], mult[c], shift[c])
            assert out.data[y, x, c] == want


def test_determinism():
    rng = np.random.default_rng(9)
    x = _rand_tensor(rng, 5, 5, 3)
    ks = _ks(rng.integers(-128, 128, (2, 3, 3, 3)).astype(np.int8),
             rng.integers(-100, 100, 2))
    a = conv2d_ref(x, ks, ALL)
    b = conv2d_ref(x, ks, ALL)
    assert np.array_equal(a, b)


def ucda_imports(source: str) -> set:
    """The ucda modules a module's source imports, each by its first name
    below the package ("ucda" for the package itself)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found |= {n[1] if len(n) > 1 else n[0] for n in names if n[0] == "ucda"}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "ucda":
                continue
            below = parts[1:] if node.level == 0 else [p for p in parts if p]
            found |= {below[0]} if below else {a.name for a in node.names}
    return found


def test_ucda_imports_reads_every_import_form():
    source = ("import numpy\nimport ucda\nimport ucda.pearray as pa\n"
              "from ucda import datapath\nfrom ucda.linebuffer import window_grid\n"
              "from . import controller\nfrom .qtensor import ACC_MAX\n"
              "from numpy import ndarray\n"
              "def f():\n    from .patchdeconv import deconv_full\n")
    assert ucda_imports(source) == {"ucda", "pearray", "datapath", "linebuffer",
                                    "controller", "qtensor", "patchdeconv"}


def test_oracle_imports_only_qtensor():
    # an independent check: the reference never reads the routing tables or
    # the engine's gather
    assert ucda_imports(pathlib.Path(oracle.__file__).read_text()) == {"qtensor"}
