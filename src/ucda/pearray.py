"""Process-element model: a 9-multiplier array with a reconfigurable adder tree.

Every process element multiplies 9 operand pairs per cycle. Convolution and
deconvolution differ only in a routing table (CONV_ROUTING, PATCH_ROUTING):
which window position and kernel tap each multiplier takes, and how the
adder tree groups the products into accumulator slots. Convolution sums the
9 products of a 3x3 window into one slot; deconvolution evaluates a 2x2
window against the 9 kernel taps and groups the products 4/2/2/1 into a 2x2
output patch. PeArray.array_cycle (one step of the whole array), the
whole-map kernel accumulate_bands and place_slots all run the mode's table.
A Tn x Tm grid of these elements reduces over Tn input channels and computes
Tm output channels in parallel; array_cycle evaluates all of them at once,
for a batch of positions, in exact int64 arithmetic of its own (an einsum
numpy never hands to BLAS), so the cells engine stays an independent check
on the GEMM kernel.

accumulate_bands is also the one place that proves a layer's accumulator
range: once per call it bounds acc from the weights (weight_bound) and
acc + bias with the bias, and range-checks only what the bounds leave open.

fuse_bn folds a layer's inference batch-norm, all channels at once, into the
per-channel requantization (multiplier/shift) and a 32-bit accumulator bias.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linebuffer import window_grid
from .qtensor import (
    ACC_MAX,
    ACC_MIN,
    REQUANT_FRAC_BITS,
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


def _rectangle(slot) -> tuple:
    """(first row, first column, rows, columns) of the window positions a
    routing slot reads, which accumulate_bands gathers with one strided
    copy: they must be a rectangle listed in raster order."""
    pos = [p for p, _ in slot]
    (r0, c0), (r1, c1) = pos[0], pos[-1]
    rect = (r0, c0, r1 - r0 + 1, c1 - c0 + 1)
    if pos != [(r0 + i, c0 + j) for i in range(rect[2]) for j in range(rect[3])]:
        raise ValueError(f"routing slot positions {pos} are not a raster-ordered rectangle")
    return rect


# accumulate_bands: each slot's window rectangle
_RECTS = {m: tuple(_rectangle(slot) for slot in r) for m, r in _ROUTING.items()}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HwConfig:
    """Array geometry and clocking for one accelerator instance.

    tn: input channels reduced per cycle, tm: output channels in parallel,
    arrays: replicated PE arrays, each taking its share of a layer's
    Tm-wide output-channel passes.
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

    def array_cycle(self, mode: PeMode, windows, kernels) -> np.ndarray:
        """One array step at each of b spatial positions: m x n elements at once.

        windows: (b, n, K, K), per position n <= Tn per-channel windows, K
        the mode's window side; channels beyond the live ones are simply not
        driven. kernels: (m, n, 3, 3) with m <= Tm output channels. Every
        element multiplies its 9 routed (window position, kernel tap) pairs;
        one int64 einsum sums the products over the n channels, then they
        are summed per adder-tree group. Returns the int64 slot sums, (b, m)
        for convolution or (b, m, 4) for deconvolution (patch raster order:
        top-left, top-right, bottom-left, bottom-right); the caller carries
        them across depth passes.
        """
        win = np.asarray(windows)
        kern = np.asarray(kernels)
        if kern.ndim != 4 or kern.shape[2:] != (3, 3):
            raise ValueError(f"kernels must be (m, n, 3, 3), got {kern.shape}")
        b, n = win.shape[:2]
        m = kern.shape[0]
        if n == 0 or n > self.cfg.tn:
            raise ValueError(f"need 1..{self.cfg.tn} channel windows, got {n}")
        side = mode.window
        if win.shape[2:] != (side, side):
            raise ValueError(f"{mode.value} takes {side}x{side} windows, "
                             f"got {win.shape[2:]}")
        if kern.shape[1] != n:
            raise ValueError("one kernel slice per driven channel")
        if m > self.cfg.tm:
            raise ValueError(f"at most {self.cfg.tm} output channels per array, got {m}")
        (pr, pc), (tr, tc), starts = _GATHER[mode]
        taps = np.einsum("bnj,mnj->bmj", win[:, :, pr, pc].astype(np.int64),
                         kern[:, :, tr, tc].astype(np.int64))
        out = np.add.reduceat(taps, starts, axis=2)
        self.multiplications += 9 * b * m * n
        check_accum(out)
        return out[:, :, 0] if mode.beats == 1 else out


def weight_bound(weights: np.ndarray) -> np.ndarray:
    """Per output channel of (cout, cin, 3, 3) weights, 128 * sum|w[co]|:
    no partial sum of that channel's products on int8 inputs (|x| <= 128)
    leaves [-bound, bound]. int64, (cout,)."""
    return 128 * np.abs(weights, dtype=np.int64).reshape(len(weights), -1).sum(axis=1)


def accumulate_bands(mode: PeMode, padded: np.ndarray, weights: np.ndarray,
                     bias: np.ndarray, tile_depth: int):
    """Slot sums of every window of a padded (hp, wp, cin) int8 map, placed
    and yielded in bands of window rows.

    weights: (cout, cin, 3, 3), pre-rotated for deconvolution; bias: (cout,)
    int32, not added. Yields (first output row, placed band (rows, wp', cout))
    of exact integer floats. Each routing slot is one GEMM over its stacked
    (position, tap) pairs. A slot's window positions are a rectangle in
    raster order (checked at import), so per band its operand block is one
    copy, into the GEMM's dtype, of a strided view of the band's input rows
    (rows * ww, taps * channels); a channel tile is made contiguous first.

    This is the one place that proves the accumulator range, once per call,
    from the weights: with int8 inputs (|x| <= 128) every partial sum of any
    subset of output channel co's products lies within weight_bound[co], at
    most b = 128 * max_co sum|w[co]|. When b <= ACC_MAX all of cin goes in
    one pass with no range check; the GEMM runs in float32 when b <= 2**24
    (every partial sum in any summation order, fused or not, is then an
    integer float32 holds exactly) and in float64 otherwise (b < 2**53).
    When that proof fails, the array's schedule is followed: tiles of
    tile_depth input channels in float64, the slot accumulators
    range-checked after every tile, which raises AccumulatorOverflow on the
    first tile that leaves int32. Unless bias[co] +- weight_bound[co] lies
    inside int32 for every channel, each band's acc + bias is range-checked
    before it is yielded. So every band yielded has acc and acc + bias
    inside int32, and a caller may add the bias in int32.

    A band's working set, one slot's gathered block at a time (none is
    kept across bands) and its float64 output rows, is kept near
    BAND_BYTES, so a caller that narrows each band at once never holds a
    full-map float temporary. Every placed band but a last one of odd
    height has an even row count (an odd conv band takes one more window
    row; a deconv patch is two output rows), so no 2x2 pooling block
    straddles two bands.
    """
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    k = mode.window
    wh, ww = window_grid(hp, wp, k)
    bound = weight_bound(weights)
    top = int(bound.max(initial=0))
    proven = top <= ACC_MAX
    dtype = np.float32 if top <= 1 << 24 else np.float64
    depth = cin if proven else tile_depth
    biased_proven = np.all((bias - bound >= ACC_MIN) & (bias + bound <= ACC_MAX))
    # per input-channel tile, each slot's (taps * ct, cout) weight matrix
    taps_of = [tuple(zip(*(tap for _, tap in route))) for route in mode.routing]
    mats = [(ci0, [weights[:, ci0:ci0 + depth, us, vs].transpose(0, 2, 1)
                   .astype(dtype).reshape(cout, -1).T for us, vs in taps_of])
            for ci0 in range(0, cin, depth)]
    taps = max(len(route) for route in mode.routing)
    rows = max(1, BAND_BYTES // (8 * ww * (taps * cin + mode.beats * cout)))
    if mode.patch * rows % 2:
        rows += 1
    for y0 in range(0, wh, rows):
        bh = min(rows, wh - y0)
        slots = np.empty((mode.beats, bh * ww, cout), dtype=dtype)
        for ci0, tile_mats in mats:
            # C order, so the columns of a window row are one run of values
            tile = np.ascontiguousarray(padded[y0:y0 + bh + k - 1, :, ci0:ci0 + depth])
            sy, sx, sc = tile.strides
            for acc, (r0, c0, nr, nc), b in zip(slots, _RECTS[mode], tile_mats):
                # view[y, x, i, j * ct + c] = tile[y + r0 + i, x + c0 + j, c], the
                # slot's (position, channel) operands of window (y, x) in raster
                # order; numpy checks that the view stays inside the tile
                view = np.ndarray((bh, ww, nr, nc * tile.shape[2]), tile.dtype, tile,
                                  r0 * sy + c0 * sx, (sy, sx, sy, sc))
                a = view.astype(dtype, order="C").reshape(bh * ww, -1)
                if ci0:
                    acc += a @ b
                else:
                    np.matmul(a, b, out=acc)
            if not proven:
                check_accum(slots)
        band = place_slots(slots.reshape(-1, bh, ww, cout))
        if not biased_proven:
            check_accum(band + bias)
        yield mode.patch * y0, band


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


def fuse_bn(gamma, beta, mean, var, eps: float,
            in_scale_exp: int, w_scale_exp: int, out_scale_exp: int):
    """Fold one layer's inference batch-norm into per-channel arrays
    (multiplier int16, shift uint8, bias int64).

    gamma, beta, mean, var hold one entry per output channel; the
    accumulator is at scale 2**(in+w). y = g*(x-mean)+beta with
    g = gamma/sqrt(var+eps) becomes one multiply by g * 2**(in+w-out), a
    16-bit multiplier at the largest shift in [0, 31] where it fits, and
    one pre-multiplier bias (beta/g - mean) at accumulator scale. An
    unfoldable layer raises for its lowest-numbered failing channel and
    that channel's first failing check: ValueError for var + eps <= 0 or a
    zero gain, RequantOverflow for a multiplier beyond 16 bits at shift 0
    (adjust out_scale_exp) or a bias beyond 32 bits.
    """
    var_eps = np.asarray(var, dtype=np.float64) + eps
    # failing channels may compute inf or nan; they raise below, unwarned
    with np.errstate(all="ignore"):
        g = gamma / np.sqrt(var_eps)
        scale = g * 2.0 ** (in_scale_exp + w_scale_exp - out_scale_exp)
        # candidate multipliers, one column per shift 0..31
        table = round_half_away(
            scale[:, None] * 2.0 ** (REQUANT_FRAC_BITS + np.arange(32)))
        shift = np.where((-(1 << 15) < table) & (table < 1 << 15),
                         np.arange(32), -1).max(axis=1)
        bias = round_half_away(
            (beta - g * mean) / (g * 2.0 ** (in_scale_exp + w_scale_exp)))
        failing = np.stack([var_eps <= 0.0, g == 0.0, shift < 0,
                            (bias < ACC_MIN) | (bias > ACC_MAX)])
    if failing.any():
        c = int(failing.any(axis=0).argmax())
        kind, text = (
            (ValueError, "var + eps must be positive"),
            (ValueError, "a zero batch-norm gain cannot be folded into a multiplier"),
            (RequantOverflow, f"folded multiplier {float(scale[c])} does not fit "
                              "16 bits at shift 0; rescale the output"),
            (RequantOverflow, f"folded bias {int(bias[c])} exceeds 32 bits"),
        )[int(failing[:, c].argmax())]
        raise kind(f"channel {c}: {text}")
    mult = table[np.arange(len(shift)), shift]
    return mult.astype(np.int16), shift.astype(np.uint8), bias
