"""Quantization primitives: rounding, saturation, requantization."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucda.datapath import layer_command, run_layer
from ucda.linebuffer import PaddingMode
from ucda.pearray import HwConfig
from ucda.qtensor import (
    ACC_MAX,
    ACC_MIN,
    AccumulatorOverflow,
    KernelSet,
    QTensor,
    Requantizer,
    apply_activation,
    check_accum,
    identity_kernel_set,
    pool2x2,
    quantize,
    quantize_array,
    requantize,
    requantize_array,
    round_half_away,
)

from reference_impls import avgpool_loops, clamp8, maxpool_loops, rhafz


def test_round_half_away_table():
    cases = {0.0: 0, 0.49: 0, 0.5: 1, 1.5: 2, 2.5: 3,
             -0.5: -1, -1.5: -2, -2.5: -3, -0.49: 0,
             # rounding x + 0.5 first took the float just below 1/2 to 1
             # and 2**52 + 1 to 2**52 + 2
             0.49999999999999994: 0, -0.49999999999999994: 0,
             2.0 ** 52 + 1: 2 ** 52 + 1, -(2.0 ** 52 + 1): -(2 ** 52 + 1),
             2.0 ** 52 - 0.5: 2 ** 52, -(2.0 ** 52 - 0.5): -(2 ** 52)}
    for x, want in cases.items():
        assert round_half_away(np.array([x]))[0] == want, x
        assert round_half_away(x) == want, x


@given(st.floats(-(2.0 ** 62), 2.0 ** 62, allow_nan=False))
@example(0.49999999999999994)
@example(-(2.0 ** 52 + 1))
@settings(max_examples=500)
def test_round_half_away_matches_exact_rounding(x):
    # rhafz rounds x's exact value as a fractions.Fraction
    assert round_half_away(x) == rhafz(x)


def test_quantize_examples():
    assert quantize(0.0, -7) == 0
    assert quantize(0.5, -7) == 64
    assert quantize(2.0, -7) == 127  # saturates, 256 would be the raw value
    assert quantize(0.49999999999999994 * 2 ** -7, -7) == 0
    assert quantize(-0.49999999999999994 * 2 ** -7, -7) == 0


@given(st.integers(-128, 127), st.integers(-16, 0))
def test_quantize_dequantize_round_trip(v, s):
    # v at scale 2**s is the real value v * 2**s
    assert quantize(v * 2.0 ** s, s) == v


@given(st.floats(-1000, 1000), st.floats(-1000, 1000), st.integers(-16, 0))
def test_quantize_monotone(x, y, s):
    if x > y:
        x, y = y, x
    assert quantize(x, s) <= quantize(y, s)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.integers(-16, 0))
def test_quantize_saturates(x, s):
    assert -128 <= quantize(x, s) <= 127


@given(st.floats(-100, 100), st.integers(-16, 0))
def test_quantize_matches_scalar_reference(x, s):
    assert quantize(x, s) == clamp8(rhafz(x / 2.0 ** s))


def test_scale_exp_range_enforced():
    with pytest.raises(ValueError):
        quantize(1.0, 1)
    with pytest.raises(ValueError):
        quantize(1.0, -17)


class TestRequantize:
    def test_unit_scale(self):
        assert requantize(256, 32767, 8) == 1

    def test_just_below_half(self):
        # 384 * 32767 / 2**23 = 1.49999... — multiplier 32767 is slightly
        # under 1.0, so this lands below the tie and rounds down
        assert requantize(384, 32767, 8) == 1

    def test_exact_tie_rounds_away(self):
        # 512 * 24576 / 2**23 = 1.5 exactly
        assert requantize(512, 24576, 8) == 2
        assert requantize(-512, 24576, 8) == -2

    def test_saturation(self):
        assert requantize(100000, 32767, 8) == 127
        assert requantize(-100000, 32767, 8) == -128

    @given(st.integers(ACC_MIN, ACC_MAX), st.integers(-32768, 32767),
           st.integers(0, 31))
    def test_matches_float_reference(self, acc, mult, shift):
        got = requantize(acc, mult, shift)
        want = clamp8(rhafz(acc * mult / 2.0 ** (15 + shift)))
        assert got == want


def test_requantize_array_per_channel():
    acc = np.array([[[256, 512]]], dtype=np.int64)
    mult = np.array([32767, 24576], dtype=np.int16)
    shift = np.array([8, 8], dtype=np.uint8)
    out = requantize_array(acc, mult, shift)
    assert out.dtype == np.int8
    assert out[0, 0, 0] == 1 and out[0, 0, 1] == 2


class TestRequantizeArray:
    """The float64 array requant against the Python-int scalar requantize."""

    @staticmethod
    def _check(acc, mult, shift):
        acc, mult, shift = (np.asarray(v, dtype=np.int64) for v in (acc, mult, shift))
        want = [requantize(a, m, s) for a, m, s in zip(acc, mult, shift)]
        # one channel per case; int64 and float64 input give the same int8
        for a in (acc, acc.astype(np.float64)):
            got = requantize_array(a, mult.astype(np.int16), shift.astype(np.uint8))
            assert got.dtype == np.int8
            assert got.tolist() == want

    @given(st.integers(ACC_MIN, ACC_MAX), st.integers(-32768, 32767),
           st.integers(0, 31))
    @settings(max_examples=500)
    def test_matches_scalar(self, acc, mult, shift):
        self._check([acc], [mult], [shift])

    def test_ties_and_neighbours(self):
        # acc * mult = +-2**(sh - 1) (+-1), sh = 15 + shift, for every shift
        cases = []
        for shift in range(32):
            half = 1 << (14 + shift)
            for m in range(16):
                for mult in (1 << m, -(1 << m)):
                    if not -32768 <= mult <= 32767 or half % abs(mult):
                        continue
                    for acc in (half // mult, -half // mult):
                        for d in (-1, 0, 1):
                            if ACC_MIN <= acc + d <= ACC_MAX:
                                cases.append((acc + d, mult, shift))
        assert len(cases) > 1000
        self._check(*zip(*cases))

    def test_ties_of_every_multiplier_class(self):
        # m = 2**j * o with o odd: A * m / 2**S (S = 15 + shift) is k + 1/2
        # exactly when A = 2**(S - 1 - j) * o**-1 (mod 2**(S - j)); take the
        # ties nearest 0, ACC_MIN and ACC_MAX on both sides of zero
        rng = np.random.default_rng(31)
        cases = []
        for shift in range(32):
            sh = 15 + shift
            for j in range(16):
                odd = {1, 3, (1 << (15 - j)) - 1 | 1,
                       *(int(o) | 1 for o in rng.integers(0, 1 << (15 - j), 4))}
                for mult in (s * (o << j) for o in odd for s in (1, -1)):
                    if not -32768 <= mult <= 32767:
                        continue
                    cases += [(a, mult, shift) for a in (ACC_MIN, ACC_MAX)]
                    if j >= sh:
                        continue   # A * m is a multiple of 2**S: no ties
                    period = 1 << (sh - j)
                    tie = (pow(mult >> j, -1, period) << (sh - 1 - j)) % period
                    for t in (tie, tie - period, ACC_MAX - (ACC_MAX - tie) % period,
                              ACC_MIN + (tie - ACC_MIN) % period):
                        assert (t * mult) % (1 << sh) == 1 << (sh - 1)
                        cases += [(t + d, mult, shift) for d in (-1, 0, 1)
                                  if ACC_MIN <= t + d <= ACC_MAX]
        assert len(cases) > 50000
        self._check(*zip(*cases))

    def test_corners(self):
        extremes = [(a, m, s) for a in (ACC_MIN, ACC_MIN + 1, -1, 0, 1, ACC_MAX)
                    for m in (-32768, -32767, -1, 0, 1, 32767) for s in (0, 1, 30, 31)]
        self._check(*zip(*extremes))

    def test_zero_with_negative_multiplier(self):
        # the float path meets -0.0 here: copysign(0.5, -0.0) is -0.5
        self._check([0] * 4, [-1, -2, -16384, -32768], [0, 7, 15, 31])

    def test_scalar_input(self):
        assert int(requantize_array(np.int64(-300), np.int16(16384), 1)) == \
            requantize(-300, 16384, 1)

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 4)])
    def test_zero_size_input(self, shape):
        got = requantize_array(np.zeros(shape, np.int32), np.ones(4, np.int16),
                               np.zeros(4, np.uint8))
        assert got.dtype == np.int8 and got.shape == shape

    def test_out_of_range_raises(self):
        for acc in (ACC_MAX + 1, ACC_MIN - 1):
            for a in (np.array([acc], np.int64), np.array([acc], np.float64)):
                with pytest.raises(AccumulatorOverflow):
                    requantize_array(a, np.array([1], np.int16), np.array([0], np.uint8))


# exact in float32 too: float32 holds every integer up to 2**24
_ACC_RANGE = {np.int32: (ACC_MIN, ACC_MAX), np.int64: (ACC_MIN, ACC_MAX),
              np.float32: (-(1 << 24), 1 << 24), np.float64: (ACC_MIN, ACC_MAX)}


@st.composite
def _requant_cases(draw):
    """An accumulator of any rank and dtype, and a scalar or per-channel
    multiplier and shift."""
    rank = draw(st.sampled_from([0, 1, 3]))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    dtype = draw(st.sampled_from(list(_ACC_RANGE)))
    lo, hi = _ACC_RANGE[dtype]
    values = draw(st.lists(st.integers(lo, hi), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    acc = np.array(values, dtype=np.int64).astype(dtype).reshape(shape)
    channels = shape[-1] if rank and draw(st.booleans()) else None
    if channels is None:
        mult = draw(st.integers(-32768, 32767))
        shift = draw(st.integers(0, 31))
    else:
        mult = np.array(draw(st.lists(st.integers(-32768, 32767), min_size=channels,
                                      max_size=channels)), dtype=np.int16)
        shift = np.array(draw(st.lists(st.integers(0, 31), min_size=channels,
                                       max_size=channels)), dtype=np.uint8)
    return acc, mult, shift


class TestRequantizeAnyRank:
    """requantize_array against the scalar rule over any rank and dtype."""

    @staticmethod
    def _scalar(acc, mult, shift):
        mult, shift = np.broadcast_to(mult, acc.shape), np.broadcast_to(shift, acc.shape)
        return [requantize(int(acc[i]), int(mult[i]), int(shift[i]))
                for i in np.ndindex(acc.shape)]

    @given(_requant_cases())
    @settings(max_examples=300, deadline=None)
    def test_any_budget_matches_scalar(self, case):
        acc, mult, shift = case
        got = requantize_array(acc, mult, shift)
        assert got.dtype == np.int8 and got.shape == acc.shape
        assert got.ravel().tolist() == self._scalar(acc, mult, shift)

    def test_overflow_message_unchanged(self):
        acc = np.zeros((3, 2, 4), np.int64)
        acc[0, 0, 1], acc[2, 1, 3] = -5, ACC_MAX + 1
        with pytest.raises(AccumulatorOverflow, match=re.escape(
                "accumulator out of 32-bit range: min=-5 max=2147483648")):
            requantize_array(acc, np.ones(4, np.int16), np.zeros(4, np.uint8))


def _traced_peak(fn, *args):
    """Peak bytes numpy allocated while fn ran (numpy reports its buffers to
    tracemalloc), the result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_requantizer_over_bands_of_two_row_widths():
    """A Requantizer keeps one tiled row per row shape: bands of two widths
    in any order (each width seen more than once) narrow as
    requantize_array narrows each band on its own."""
    rng = np.random.default_rng(11)
    mult = rng.integers(-32768, 32768, 5).astype(np.int16)
    shift = rng.integers(0, 32, 5).astype(np.uint8)
    requantizer = Requantizer(mult, shift)
    for rows, width in [(2, 3), (3, 3), (2, 6), (1, 6), (2, 3), (4, 6)]:
        band = rng.integers(-(1 << 24), 1 << 24, (rows, width, 5), dtype=np.int32)
        assert np.array_equal(requantizer.narrow(band), requantize_array(band, mult, shift))


class TestTailMemory:
    """The q8 tail allocates no full-map copy wider than int16."""

    def test_layer_tail_is_flat_in_frame_height(self):
        """A layer narrows, activates and pools band by band: beyond its
        int8 output, a leaky, average-pooled conv over a frame eight times
        as tall (several bands already at 1x) holds at most 1.25x as much."""
        held = []
        for h in (64, 512):
            rng = np.random.default_rng(4)
            x = QTensor(rng.integers(-128, 128, (h, 96, 16), dtype=np.int8), -7)
            ks = KernelSet(weights=rng.integers(-128, 128, (64, 16, 3, 3), dtype=np.int8),
                           bias=rng.integers(-4000, 4000, 64, dtype=np.int32),
                           bn_multiplier=rng.integers(8192, 32767, 64, dtype=np.int16),
                           bn_shift=rng.integers(8, 14, 64, dtype=np.uint8), scale_exp=-7)
            cmd = layer_command("conv3x3", x.shape, 64, PaddingMode.all_edges(), HwConfig(),
                                activation="leaky", pool="avg")
            run_layer(cmd, x, ks, HwConfig())   # one-off first-call allocations
            peak = _traced_peak(run_layer, cmd, x, ks, HwConfig())
            held.append(peak - math.prod(cmd.out_shape))
        assert held[1] <= 1.25 * held[0]

    def test_requantize_holds_one_float64_band(self):
        """Beyond its input, requantize_array holds at most one float64
        array of the band's size, the int8 result and the row scale."""
        rng = np.random.default_rng(8)
        acc = rng.integers(-(1 << 20), 1 << 20, (12, 480, 64), dtype=np.int32)
        mult = rng.integers(-32768, 32768, 64).astype(np.int16)
        shift = rng.integers(0, 32, 64).astype(np.uint8)
        requantize_array(acc, mult, shift)   # one-off first-call allocations
        row_scale = 480 * 64 * 8
        assert _traced_peak(requantize_array, acc, mult, shift) <= \
            acc.size * 8 + acc.size + row_scale

    def test_leaky_and_avg_pool_stay_narrow(self):
        q = np.random.default_rng(5).integers(-128, 128, (128, 128, 64), dtype=np.int8)
        assert _traced_peak(apply_activation, q, "leaky") <= 2 * q.nbytes
        assert _traced_peak(pool2x2, q, "avg") <= 2 * q.nbytes

    def test_max_pool_stays_narrow(self):
        q = np.random.default_rng(6).integers(-128, 128, (128, 128, 64), dtype=np.int8)
        assert _traced_peak(pool2x2, q, "max") <= 2 * q.nbytes


def test_avg_pool_extreme_sums():
    # |sum| reaches 512, the widest the int16 block sums get
    x = np.empty((2, 4, 2), np.int8)
    x[:, :2, 0], x[:, :2, 1] = -128, 127                 # sums -512 and 508
    x[:, 2:, 0] = [[-128, -128], [-128, -127]]           # -511
    x[:, 2:, 1] = [[127, 127], [127, 126]]               # 507
    got = pool2x2(x, "avg")
    assert got.tolist() == [[[-128, 127], [-127, 126]]]
    assert np.array_equal(got, avgpool_loops(x))


@pytest.mark.parametrize("kind, loops", [("max", maxpool_loops),
                                         ("avg", avgpool_loops)])
def test_pool_of_a_non_contiguous_view(kind, loops):
    base = np.random.default_rng(7).integers(-128, 128, (6, 9, 5), dtype=np.int8)
    view = base[::-1, 1::2, 4:1:-1]   # (6, 4, 3), every axis strided
    assert not view.flags.c_contiguous
    assert np.array_equal(pool2x2(view, kind), loops(view))


def test_accumulator_overflow_checked():
    check_accum(np.array([ACC_MAX, ACC_MIN], dtype=np.int64))
    with pytest.raises(AccumulatorOverflow):
        check_accum(np.array([ACC_MAX + 1], dtype=np.int64))
    with pytest.raises(AccumulatorOverflow):
        check_accum(np.array([ACC_MIN - 1], dtype=np.int64))


@pytest.mark.parametrize("values", [
    np.array([-128, 127], np.int8), np.array([-2 ** 15, 2 ** 15 - 1], np.int16),
    np.array([ACC_MIN, ACC_MAX], np.int32), np.array([0, 255], np.uint8),
    np.array([0, 2 ** 16 - 1], np.uint16), np.array([False, True])],
    ids=["int8", "int16", "int32", "uint8", "uint16", "bool"])
def test_check_accum_passes_dtypes_inside_int32(values):
    # the dtype itself proves the range; the array comes back as it is
    assert check_accum(values) is values


@pytest.mark.parametrize("values, lo, hi", [
    (np.array([0, 2 ** 31], np.uint32), 0, 2 ** 31),
    (np.array([ACC_MIN - 1, 5], np.int64), ACC_MIN - 1, 5),
    (np.array([-3.0, ACC_MAX + 1.0]), -3, ACC_MAX + 1),
])
def test_check_accum_still_checks_wider_dtypes(values, lo, hi):
    with pytest.raises(AccumulatorOverflow,
                       match=f"^accumulator out of 32-bit range: min={lo} max={hi}$"):
        check_accum(values)


def test_worst_case_macs_fit_32_bits():
    # 9 taps x Tn=8 lanes of maximal |products| stay well inside int32
    assert 9 * 8 * 16384 < 2 ** 31
    # and a whole 64-deep accumulation with maximal bias still fits
    assert 9 * 64 * 128 * 128 + 2 ** 24 < 2 ** 31


def test_worst_case_conv_accumulation_runs():
    from ucda.oracle import conv2d_ref

    x = QTensor(np.full((3, 3, 64), -128, np.int8), 0)
    ks = KernelSet(
        weights=np.full((1, 64, 3, 3), -128, np.int8),
        bias=np.zeros(1, np.int32),
        bn_multiplier=np.full(1, 16384, np.int16),
        bn_shift=np.zeros(1, np.uint8),
        scale_exp=0)
    acc = conv2d_ref(x, ks, ())
    assert acc[0, 0, 0] == 9 * 64 * 128 * 128


def test_qtensor_shape_properties():
    t = QTensor(np.zeros((4, 6, 3), np.int8), -5)
    assert (t.height, t.width, t.channels) == (4, 6, 3)
    assert t.shape == (4, 6, 3)


def test_kernel_set_validation():
    with pytest.raises(ValueError):
        KernelSet(weights=np.zeros((2, 3, 3, 3), np.int8),
                  bias=np.zeros(2, np.int32),
                  bn_multiplier=np.zeros(2, np.int16),
                  bn_shift=np.full(2, 32, np.uint8),  # shift > 31
                  scale_exp=0)
    with pytest.raises(ValueError):
        KernelSet(weights=np.zeros((2, 3, 4, 3), np.int8),  # not 3x3
                  bias=np.zeros(2, np.int32),
                  bn_multiplier=np.zeros(2, np.int16),
                  bn_shift=np.zeros(2, np.uint8),
                  scale_exp=0)


def test_identity_kernel_set_geometry():
    ks = identity_kernel_set(3, 5)
    assert ks.in_channels == 3 and ks.out_channels == 5
    assert not ks.rotated
    assert (ks.bn_multiplier.tolist(), ks.bn_shift.tolist()) == ([16384] * 5, [0] * 5)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
       st.integers(-16, 0))
@settings(max_examples=30)
def test_quantize_array_matches_scalar(h, w, c, s):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    real = rng.uniform(-3, 3, (h, w, c))
    arr = quantize_array(real, s)
    assert arr.dtype == np.int8
    for idx in np.ndindex(real.shape):
        assert arr[idx] == quantize(float(real[idx]), s)
