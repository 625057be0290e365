"""Process-element model: a 9-multiplier array with a reconfigurable adder tree.

Every process element multiplies 9 operand pairs per cycle. Convolution and
deconvolution differ only in a routing table (CONV_ROUTING, PATCH_ROUTING):
which window position and kernel tap each multiplier takes, and how the
adder tree groups the products into accumulator slots. Convolution sums the
9 products of a 3x3 window into one slot; deconvolution evaluates a 2x2
window against the 9 kernel taps and groups the products 4/2/2/1 into a 2x2
output patch. PeArray.array_cycle (one step of the whole array), the
whole-map kernel accumulate_map (and its banded form accumulate_bands) and
place_slots all run the mode's table. A Tn x Tm grid of these elements
reduces over Tn input channels and computes Tm output channels in parallel;
array_cycle evaluates all of them at once, in exact int64 arithmetic of its
own, so the cells engine stays an independent check on the GEMM kernel.

accumulate_map proves the int32 accumulator bound from a layer's weights
(b = 128 * max_co sum|w[co]|, the largest partial sum int8 inputs can
reach) and, when it holds, reduces all input channels in one exact GEMM
per slot (float32 up to 2**24, float64 above); only a layer whose bound
fails runs the array's Tn-tiled schedule with a range check per tile.

fuse_bn folds inference batch-norm into the per-channel requantization
(multiplier/shift) plus a 32-bit bias at accumulator scale.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qtensor import (
    ACC_MAX,
    ACC_MIN,
    REQUANT_FRAC_BITS,
    Requant,
    check_accum,
    round_half_away,
)

# Per accumulator slot, in raster order of the output patch the slots fill,
# the (window position, kernel tap) pairs whose products the adder tree sums.
# Every convolution and deconvolution path derives from these two tables.
CONV_ROUTING = (tuple(((u, v), (u, v)) for u in range(3) for v in range(3)),)
# 4/2/2/1 products of a 2x2 window; deconv kernels arrive rotated 180 degrees
PATCH_ROUTING = (
    (((0, 0), (0, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0)), ((1, 1), (2, 2))),
    (((0, 1), (0, 1)), ((1, 1), (2, 1))),
    (((1, 0), (1, 0)), ((1, 1), (1, 2))),
    (((1, 1), (1, 1)),),
)


class PeMode(enum.Enum):
    CONV = "convolution"
    DECONV = "deconvolution"

    @property
    def routing(self) -> tuple:
        """The mode's routing table: CONV_ROUTING or PATCH_ROUTING."""
        return _ROUTING[self]

    @property
    def beats(self) -> int:
        """Accumulators one evaluation drains: one per routing slot."""
        return len(_ROUTING[self])

    @property
    def window(self) -> int:
        """Side of the input window: conv 3, deconv 2."""
        return _WINDOW[self]

    @property
    def patch(self) -> int:
        """Side of the output patch one window fills: conv 1, deconv 2."""
        return math.isqrt(self.beats)


# accumulate_bands: bytes of one band's gathered operands plus float64 output
BAND_BYTES = 4 << 20

# Derived once per mode: the table flattened onto the 9 multipliers, the
# adder tree's group sizes and the window side.
_ROUTING = {PeMode.CONV: CONV_ROUTING, PeMode.DECONV: PATCH_ROUTING}
_FLAT = {m: tuple(pair for slot in r for pair in slot) for m, r in _ROUTING.items()}
_GROUPS = {m: tuple(len(slot) for slot in r) for m, r in _ROUTING.items()}
_WINDOW = {m: 1 + max(max(pos) for pos, _ in flat) for m, flat in _FLAT.items()}
# array_cycle: the flat table as index arrays (window rows, cols; tap rows,
# cols) plus the first multiplier of each adder-tree group
_GATHER = {m: (tuple(np.array([p for p, _ in flat]).T),
               tuple(np.array([t for _, t in flat]).T),
               np.cumsum((0,) + _GROUPS[m][:-1]))
           for m, flat in _FLAT.items()}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HwConfig:
    """Array geometry and clocking for one accelerator instance.

    tn: input channels reduced per cycle, tm: output channels in parallel,
    arrays: replicated PE arrays working on independent output tiles.
    Buffer capacities are in bits; None means "large enough", which is the
    desk-scale default (feasibility checks only fire on finite values).
    """

    tn: int = 8
    tm: int = 8
    arrays: int = 1
    stream_bits: int = 64
    clock_hz: int = 220_000_000
    if_capacity_bits: int | None = None
    of_capacity_bits: int | None = None
    weight_capacity_bits: int | None = None

    def __post_init__(self):
        if not _is_pow2(self.tn) or not _is_pow2(self.tm):
            raise ValueError(f"tn/tm must be powers of two, got {self.tn}/{self.tm}")
        if self.arrays < 1:
            raise ValueError("arrays must be at least 1")
        if self.stream_bits < 8:
            raise ValueError("stream_bits must be at least 8")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        for name in ("if_capacity_bits", "of_capacity_bits", "weight_capacity_bits"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when set")

    @property
    def multiplier_count(self) -> int:
        """Physical multipliers: 9 per PE, tn*tm PEs per array."""
        return 9 * self.tn * self.tm * self.arrays


class PeArray:
    """A Tn x Tm grid of process elements with shared mode control."""

    def __init__(self, cfg: HwConfig | None = None):
        self.cfg = cfg or HwConfig()
        self.multiplications = 0
        self.evaluations = 0

    def array_cycle(self, mode: PeMode, windows, kernels, psum=None) -> np.ndarray:
        """One array step at a single spatial position: m x n elements at once.

        windows: (n, K, K), n <= Tn per-channel windows from the same
        position, K the mode's window side; channels beyond the live ones
        are simply not driven. kernels: (m, n, 3, 3) with m <= Tm output
        channels. Every element multiplies its 9 routed (window position,
        kernel tap) pairs in int64; the products are summed over the n
        channels and then per adder-tree group. psum: carry-in partial sums
        from earlier depth passes, (m,) for convolution or (m, 4) for
        deconvolution (patch raster order: top-left, top-right, bottom-left,
        bottom-right). Returns updated int64 partial sums in the same shape.
        """
        win = np.asarray(windows)
        kern = np.asarray(kernels)
        if kern.ndim != 4 or kern.shape[2:] != (3, 3):
            raise ValueError(f"kernels must be (m, n, 3, 3), got {kern.shape}")
        n = len(win)
        m = kern.shape[0]
        if n == 0 or n > self.cfg.tn:
            raise ValueError(f"need 1..{self.cfg.tn} channel windows, got {n}")
        side = mode.window
        if win.shape[1:] != (side, side):
            raise ValueError(f"{mode.value} takes {side}x{side} windows, "
                             f"got {win.shape[1:]}")
        if kern.shape[1] != n:
            raise ValueError("one kernel slice per driven channel")
        if m > self.cfg.tm:
            raise ValueError(f"at most {self.cfg.tm} output channels per array, got {m}")
        (pr, pc), (tr, tc), starts = _GATHER[mode]
        products = kern[:, :, tr, tc].astype(np.int64) * win[:, pr, pc].astype(np.int64)
        out = np.add.reduceat(products.sum(axis=1), starts, axis=1)
        self.multiplications += 9 * m * n
        self.evaluations += m * n
        if psum is not None:
            out += np.asarray(psum, dtype=np.int64).reshape(m, mode.beats)
        check_accum(out)
        return out[:, 0] if mode.beats == 1 else out


def accumulate_map(mode: PeMode, padded: np.ndarray, weights: np.ndarray,
                   tile_depth: int) -> np.ndarray:
    """Slot sums of every window of a padded (hp, wp, cin) int8 map.

    weights: (cout, cin, 3, 3), pre-rotated for deconvolution. Returns float
    slot maps (beats, hp - k + 1, wp - k + 1, cout), k the window side, no
    bias; every value is an exact integer. Each routing slot is one GEMM
    over its stacked (position, tap) pairs.

    The accumulator bound is proven from the weights first: with int8
    inputs (|x| <= 128) every partial sum of any subset of one output
    channel's products lies within b = 128 * max_co sum|w[co]|. When
    b <= ACC_MAX no partial sum can leave int32, so all of cin goes in one
    pass with no range check; the GEMM runs in float32 when b <= 2**24
    (every partial sum in any summation order, fused or not, is then an
    integer float32 holds exactly) and in float64 otherwise (b < 2**53).
    When the proof fails, the array's schedule is followed: tiles of
    tile_depth input channels in float64, the slot accumulators
    range-checked after every tile, which raises AccumulatorOverflow on
    the first tile that leaves int32.
    """
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    wh, ww = hp - mode.window + 1, wp - mode.window + 1
    n = wh * ww
    per_channel = np.abs(weights, dtype=np.int64).reshape(cout, -1).sum(axis=1)
    bound = 128 * int(per_channel.max(initial=0))
    proven = bound <= ACC_MAX
    dtype = np.float32 if bound <= 1 << 24 else np.float64
    depth = cin if proven else tile_depth
    slots = np.empty((mode.beats, n, cout), dtype=dtype)
    for ci0 in range(0, cin, depth):
        ct = min(depth, cin - ci0)
        tile = padded[:, :, ci0:ci0 + ct]
        for acc, route in zip(slots, mode.routing):
            ops = np.empty((wh, ww, len(route), ct), dtype=dtype)
            for j, ((r, c), _) in enumerate(route):
                ops[:, :, j, :] = tile[r:r + wh, c:c + ww]
            us, vs = zip(*(tap for _, tap in route))
            km = weights[:, ci0:ci0 + ct, us, vs].transpose(0, 2, 1).astype(dtype)
            a, b = ops.reshape(n, -1), km.reshape(cout, -1).T
            if ci0:
                acc += a @ b
            else:
                np.matmul(a, b, out=acc)
        if not proven:
            check_accum(slots)
    return slots.reshape(-1, wh, ww, cout)


def accumulate_bands(mode: PeMode, padded: np.ndarray, weights: np.ndarray,
                     tile_depth: int):
    """accumulate_map over bands of window rows, each band placed.

    Yields (first output row, placed band (rows, wp', cout)). A band's
    working set, its gathered operand block (one slot at a time) and its
    float64 output rows, is kept near BAND_BYTES, so a caller that narrows
    each band at once never holds a full-map float temporary.
    """
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    k = mode.window
    wh, ww = hp - k + 1, wp - k + 1
    taps = max(len(route) for route in mode.routing)
    rows = max(1, BAND_BYTES // (8 * ww * (taps * cin + mode.beats * cout)))
    for y0 in range(0, wh, rows):
        slots = accumulate_map(mode, padded[y0:y0 + rows + k - 1], weights, tile_depth)
        yield mode.patch * y0, place_slots(slots)


def place_slots(slots: np.ndarray) -> np.ndarray:
    """Place slot maps (s*s, h, w, c) as the s x s patches of an (s*h, s*w, c) map.

    Slot i of window (y, x) lands at (s*y + i // s, s*x + i % s), the
    raster order of the routing tables. A single slot is the map itself,
    returned as a view.
    """
    n, h, w, c = slots.shape
    s = math.isqrt(n)
    return slots.reshape(s, s, h, w, c).transpose(2, 0, 3, 1, 4).reshape(s * h, s * w, c)


class RequantOverflow(ValueError):
    """Folded multiplier cannot be encoded; adjust the output scale."""


def fuse_bn(gamma: float, beta: float, mean: float, var: float, eps: float,
            in_scale_exp: int, w_scale_exp: int, out_scale_exp: int):
    """Fold inference batch-norm into (Requant, bias32).

    The accumulator is at scale 2**(in+w). Batch-norm y = g*(x-mean)+beta
    with g = gamma/sqrt(var+eps) becomes one multiply by
    g * 2**(in+w-out), encoded as a normalized 16-bit multiplier plus
    shift, and one pre-multiplier bias (beta/g - mean) at accumulator
    scale. Raises RequantOverflow when the multiplier cannot reach 16 bits
    at shift 0, which signals the caller to adjust out_scale_exp.
    """
    if var + eps <= 0.0:
        raise ValueError("var + eps must be positive")
    g = gamma / math.sqrt(var + eps)
    if g == 0.0:
        raise ValueError("a zero batch-norm gain cannot be folded into a multiplier")
    scale = g * 2.0 ** (in_scale_exp + w_scale_exp - out_scale_exp)
    shift = 31
    mult = int(round_half_away(scale * 2.0 ** (REQUANT_FRAC_BITS + shift)))
    while abs(mult) > (1 << 15) - 1 and shift > 0:
        shift -= 1
        mult = int(round_half_away(scale * 2.0 ** (REQUANT_FRAC_BITS + shift)))
    if abs(mult) > (1 << 15) - 1:
        raise RequantOverflow(
            f"folded multiplier {scale} does not fit 16 bits at shift 0; "
            "rescale the output")
    offset = beta - g * mean
    bias = int(round_half_away(offset / (g * 2.0 ** (in_scale_exp + w_scale_exp))))
    if not ACC_MIN <= bias <= ACC_MAX:
        raise RequantOverflow(f"folded bias {bias} exceeds 32 bits")
    return Requant(mult, shift), bias
