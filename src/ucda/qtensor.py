"""Fixed-point value types shared by every stage of the accelerator model.

Feature maps are symmetric signed 8-bit with per-tensor power-of-two scales
(no zero point). Multiply-accumulate runs in signed 32 bits, and narrowing
back to 8 bits is a multiply/shift/round/saturate step (requantization) with
a 16-bit multiplier carrying 15 fractional bits. Rounding is
round-half-away-from-zero everywhere a real value meets an integer grid.
requantize (Python integers) states the rule; requantize_array, the one
array form, computes it in float64 as one multiply by a nudged per-channel
scale, a clip and rint, exact over the whole 32-bit accumulator and 16-bit
multiplier domain (see its docstring). A Requantizer builds that scale once
per layer and is handed the layer one band at a time, so the band bounds
its one float64 temporary. The activation and pooling tail stays in int8
(int16 for the 2x2 average's sums).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Q8_MIN = -128
Q8_MAX = 127
ACC_MIN = -(1 << 31)
ACC_MAX = (1 << 31) - 1
SCALE_EXP_MIN = -16
SCALE_EXP_MAX = 0
REQUANT_FRAC_BITS = 15
# leaky ReLU scales negative values by 2**-LEAKY_SHIFT (a fixed slope of 1/8)
LEAKY_SHIFT = 3


class AccumulatorOverflow(OverflowError):
    """A multiply-accumulate path left the signed 32-bit range."""


def round_half_away(x) -> np.ndarray:
    """Round to the nearest integer with ties away from zero.

    Accepts scalars or arrays, returns int64. This is the single rounding
    rule used by quantization, requantization and batch-norm folding. It is
    exact for every finite float64: modf splits x exactly into an integer
    and a fraction of its sign, the fraction alone decides the step away
    from zero, and a step is only taken when |x| < 2**52, where it is exact.
    (Flooring x + 0.5 would not be: x + 0.5 rounds first, which takes
    0.49999999999999994 to 1 and 2**52 + 1 to 2**52 + 2.)
    """
    frac, whole = np.modf(np.asarray(x, dtype=np.float64))
    r = whole + (frac >= 0.5) - (frac <= -0.5)
    # keep the int64 cast defined for huge magnitudes (callers clamp later)
    return np.clip(r, -(2.0 ** 62), 2.0 ** 62).astype(np.int64)


def check_accum(values):
    """Range-check accumulator values; raises instead of wrapping silently.
    A dtype that cannot leave int32 (np.can_cast to int32: int32, narrower
    integers, bool) is its own proof, so such an array returns unscanned."""
    arr = np.asarray(values)
    if (arr.size and not np.can_cast(arr.dtype, np.int32)
            and (arr.min() < ACC_MIN or arr.max() > ACC_MAX)):
        raise AccumulatorOverflow(
            f"accumulator out of 32-bit range: min={int(arr.min())} max={int(arr.max())}"
        )
    return values


def _check_scale_exp(scale_exp: int) -> None:
    if not isinstance(scale_exp, (int, np.integer)):
        raise TypeError(f"scale_exp must be an integer, got {scale_exp!r}")
    if not SCALE_EXP_MIN <= scale_exp <= SCALE_EXP_MAX:
        raise ValueError(
            f"scale_exp {scale_exp} outside [{SCALE_EXP_MIN}, {SCALE_EXP_MAX}]"
        )


def quantize(x: float, scale_exp: int) -> int:
    """Quantize one real value to q8 at scale 2**scale_exp.

    quantize(0.5, -7) == 64, quantize(2.0, -7) saturates to 127.
    """
    _check_scale_exp(scale_exp)
    q = int(round_half_away(float(x) / 2.0 ** scale_exp))
    return max(Q8_MIN, min(Q8_MAX, q))


def quantize_array(x, scale_exp: int) -> np.ndarray:
    """Vector form of quantize; returns int8."""
    _check_scale_exp(scale_exp)
    q = round_half_away(np.asarray(x, dtype=np.float64) / 2.0 ** scale_exp)
    return np.clip(q, Q8_MIN, Q8_MAX).astype(np.int8)


def requantize(acc: int, multiplier: int, shift: int) -> int:
    """Narrow one 32-bit accumulator value to q8: round(acc * multiplier /
    2**(15 + shift)), multiplier signed 16-bit and shift in [0, 31]."""
    acc = int(acc)
    if not ACC_MIN <= acc <= ACC_MAX:
        raise AccumulatorOverflow(f"requantize input {acc} outside 32-bit range")
    sh = REQUANT_FRAC_BITS + int(shift)
    prod = acc * int(multiplier)
    half = 1 << (sh - 1)
    if prod >= 0:
        q = (prod + half) >> sh
    else:
        q = -((-prod + half) >> sh)
    return max(Q8_MIN, min(Q8_MAX, q))


def requantize_array(acc, multiplier, shift) -> np.ndarray:
    """Per-channel vector requantization over the last axis.

    acc: integer-valued array (..., C), integer or float dtype, inside the
    32-bit accumulator range (check_accum, on the whole array, which an
    int32 or narrower map passes by its type alone). multiplier:
    int16-valued array (C,), shift: array (C,) in [0, 31]; scalars are one
    channel broadcast over all of acc. Returns int8 in acc's shape. This is
    a one-shot Requantizer; a layer narrowed band by band builds one
    Requantizer and hands it each band.

    One rounding pass in float64: v = acc * s', clipped to [Q8_MIN, Q8_MAX]
    and rounded by rint, where s' = m * 2**-S + sign(m) * 2**-(S + 32) for
    multiplier m and S = 15 + shift. It equals requantize exactly:
    - s' = (m * 2**32 + sign(m)) * 2**-(S + 32) has at most 48 significant
      bits, so it is exact in float64.
    - For accumulator A, v's exact value is A * m * 2**-S plus the nudge
      A * sign(m) * 2**-(S + 32), which has the sign of A * m and a size in
      (0, 2**-(S + 1)] (|A| <= 2**31) whenever A * m != 0.
    - A converts to float64 exactly, and the product rounds once, by at
      most 2**-53 * |A * s'| < |A| * 2**-(S + 37), as |s'| <= 2**(15 - S) *
      (1 + 2**-47): less than a thirty-second of the nudge.
    - So an exact tie k + 1/2 lands strictly on its side away from zero,
      less than 2**-S past it, and rint rounds it away from zero.
    - Every other A * m * 2**-S is a multiple of 2**-S at least 2**-S from
      every half-integer; it moves by less than that, so rint rounds it as
      the exact value rounds.
    - Clipping to integer bounds commutes with rint, and A = 0 or m = 0
      gives a zero.
    The multiply runs over rows of acc's last two axes with the scale tiled
    across a row, so numpy's inner loops span whole rows, not one channel.

    Beyond its input the call holds the int8 result, one float64 array of
    acc's size and the tiled row scale; the engines and the oracle hand
    their Requantizer one band of a layer at a time, not a whole map.
    """
    return Requantizer(multiplier, shift).narrow(acc)


class Requantizer:
    """requantize_array for one layer's multiplier and shift, handed the
    layer's accumulators one band at a time: the nudged per-channel scale
    s' is built once, and its tiling across a row (a band's last two axes)
    is kept per row shape once a second band of that shape arrives. A
    single band drops its tiled row before its int8 result is made, so a
    one-shot call holds no more than requantize_array's docstring says."""

    def __init__(self, multiplier, shift):
        m = np.asarray(multiplier, dtype=np.float64)
        self.scale = np.ldexp(m + np.sign(m) * 2.0 ** -32,
                              -(REQUANT_FRAC_BITS + np.asarray(shift, dtype=np.int64)))
        self._rows = {}   # row shape -> s' tiled across such a row, or None once seen

    def narrow(self, acc) -> np.ndarray:
        """requantize_array(acc, multiplier, shift) for one band acc."""
        acc = check_accum(np.asarray(acc))
        row = acc.shape[-2:]
        tiled = self._rows.get(row)
        if tiled is None:
            tiled = np.tile(np.broadcast_to(self.scale, row[-1:]), row[:-1])
            self._rows[row] = tiled if row in self._rows else None
        v = acc.reshape(math.prod(acc.shape[:-2]), math.prod(row)) * tiled
        del tiled   # an unkept row scale goes before the int8 result is made
        np.clip(v, Q8_MIN, Q8_MAX, out=v)
        np.rint(v, out=v)
        return v.astype(np.int8).reshape(acc.shape)


def apply_activation(q: np.ndarray, act: str) -> np.ndarray:
    """Elementwise activation on q8 data.

    'leaky' multiplies negative values by 2**-LEAKY_SHIFT using an
    arithmetic right shift; for negative operands that shift rounds away
    from zero, matching the stated rule.
    """
    if act == "none":
        return q
    if act == "relu":
        return np.maximum(q, 0)
    if act == "leaky":
        # the arithmetic shift shrinks q >= 0 and moves q < 0 toward zero,
        # so the larger of q and q >> LEAKY_SHIFT is the leaky value
        shifted = q >> LEAKY_SHIFT
        return np.maximum(q, shifted, out=shifted)
    raise ValueError(f"unknown activation {act!r}")


def pool2x2(x: np.ndarray, kind: str) -> np.ndarray:
    """2x2/stride-2 pooling of an (h, w, c) q8 map with even dims; int8.

    'max' keeps the block maximum in x's dtype (any dtype); 'avg' divides
    the int8 block sum by 4, the quotient truncated toward zero (not -inf).

    Both kinds reduce pairwise with elementwise ops: first each block's two
    rows into a half-height map (int8 maxima, or int16 sums), then that
    map's column pairs. Beyond its input the call holds at most the
    half-height map and a quarter-size one besides the int8 result.
    """
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even dims, got {h}x{w}")
    rows = x.reshape(h // 2, 2, w, c)
    if kind == "max":
        cols = np.maximum(rows[:, 0], rows[:, 1]).reshape(h // 2, w // 2, 2, c)
        return np.maximum(cols[:, :, 0], cols[:, :, 1])
    if kind == "avg":
        cols = np.add(rows[:, 0], rows[:, 1], dtype=np.int16)
        cols = cols.reshape(h // 2, w // 2, 2, c)
        s = np.add(cols[:, :, 0], cols[:, :, 1])     # |sum| <= 512
        del cols
        # s >> 15 is -1 on a negative sum and 0 otherwise: adding 3 there
        # turns the flooring shift into truncation
        neg = s >> 15
        neg &= 3
        s += neg
        s >>= 2
        return s.astype(np.int8)
    raise ValueError(f"unknown pool {kind!r}")


@dataclass(frozen=True, eq=False)
class QTensor:
    """A quantized feature map: int8 data (height, width, channels) plus its
    scale exponent, in [SCALE_EXP_MIN, SCALE_EXP_MAX] like every scale."""

    data: np.ndarray
    scale_exp: int

    def __post_init__(self):
        if not isinstance(self.data, np.ndarray) or self.data.dtype != np.int8:
            raise TypeError("QTensor data must be an int8 ndarray")
        if self.data.ndim != 3:
            raise ValueError(f"QTensor data must be (h, w, c), got shape {self.data.shape}")
        _check_scale_exp(self.scale_exp)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True, eq=False)
class KernelSet:
    """Per-layer weight bundle as the weight buffer stores it.

    weights: int8 (out_ch, in_ch, 3, 3), already rotated 180 degrees for
    deconvolution layers (rotation happens at pack time, flagged by
    `rotated`). bias: int32 (out_ch,) at accumulator scale, which is
    input_scale * weight_scale. bn_multiplier/bn_shift: the folded
    batch-norm requantization, per output channel.
    """

    weights: np.ndarray
    bias: np.ndarray
    bn_multiplier: np.ndarray
    bn_shift: np.ndarray
    scale_exp: int
    rotated: bool = False

    def __post_init__(self):
        w = self.weights
        if w.dtype != np.int8 or w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ValueError(f"weights must be int8 (out, in, 3, 3), got {w.dtype} {w.shape}")
        cout = w.shape[0]
        if self.bias.shape != (cout,) or self.bias.dtype != np.int32:
            raise ValueError("bias must be int32 with one entry per output channel")
        if self.bn_multiplier.shape != (cout,) or self.bn_multiplier.dtype != np.int16:
            raise ValueError("bn_multiplier must be int16 with one entry per output channel")
        if self.bn_shift.shape != (cout,) or self.bn_shift.dtype != np.uint8:
            raise ValueError("bn_shift must be uint8 with one entry per output channel")
        if self.bn_shift.size and int(self.bn_shift.max()) > 31:
            raise ValueError("bn_shift entries must lie in [0, 31]")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


# A KernelSet's weight-image entry, field by field in stored order: its name,
# little-endian dtype, and label in truncation messages.
WEIGHT_ENTRY = (("weights", "<i1", "weights"), ("bias", "<i4", "biases"),
                ("bn_multiplier", "<i2", "bn multipliers"), ("bn_shift", "<u1", "bn shifts"))


def weight_entry(in_ch: int, out_ch: int):
    """WEIGHT_ENTRY's rows for an in_ch -> out_ch layer as (field, stored
    dtype, label, value count): 9 * in_ch weights per output channel, else one."""
    return [(name, np.dtype(dtype), label, out_ch * (9 * in_ch if name == "weights" else 1))
            for name, dtype, label in WEIGHT_ENTRY]


def identity_kernel_set(in_ch: int, out_ch: int, scale_exp: int = 0,
                        rotated: bool = False) -> KernelSet:
    """All-zero weights with a fixed halving requant; handy test scaffolding."""
    return KernelSet(
        weights=np.zeros((out_ch, in_ch, 3, 3), dtype=np.int8),
        bias=np.zeros(out_ch, dtype=np.int32),
        bn_multiplier=np.full(out_ch, 1 << 14, dtype=np.int16),
        bn_shift=np.full(out_ch, 0, dtype=np.uint8),
        scale_exp=scale_exp,
        rotated=rotated,
    )
