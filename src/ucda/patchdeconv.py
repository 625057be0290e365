"""Patch-decomposed stride-2 transposed convolution.

Zero-insertion deconvolution wastes three quarters of its multiplies on
zeros. Because the inserted zeros sit on a fixed lattice, every 2x2 window
of the (top/left zero-padded) input produces one disjoint 2x2 output patch
from a fixed subset of kernel taps:

    out_tl = tl*k[0,0] + tr*k[0,2] + bl*k[2,0] + br*k[2,2]
    out_tr = tr*k[0,1] + br*k[2,1]
    out_bl = bl*k[1,0] + br*k[1,2]
    out_br = br*k[1,1]

That is 9 multiplications and 5 additions per window per channel pair,
against 36 multiplications for the zero-insertion route over the same four
outputs; kernels arrive already rotated 180 degrees from pack time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import OpCounters
from .qtensor import KernelSet, QTensor, check_accum

# The routing of one 2x2 window onto the 9 multipliers. Per output-patch
# slot, in raster order (top-left, top-right, bottom-left, bottom-right),
# the (window corner, kernel tap) pairs whose products the adder tree sums:
# 4/2/2/1 products. Every deconvolution path derives from this table.
PATCH_ROUTING = (
    (((0, 0), (0, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0)), ((1, 1), (2, 2))),
    (((0, 1), (0, 1)), ((1, 1), (2, 1))),
    (((1, 0), (1, 0)), ((1, 1), (1, 2))),
    (((1, 1), (1, 1)),),
)

_CHANNEL_TILE = 8  # deconv_full's input-channel tile: the default Tn


@dataclass(frozen=True)
class Window2x2:
    """One 2x2 input window (quantized values)."""

    top_left: int
    top_right: int
    bottom_left: int
    bottom_right: int

    @classmethod
    def from_array(cls, a) -> "Window2x2":
        a = np.asarray(a)
        if a.shape != (2, 2):
            raise ValueError(f"expected a 2x2 window, got {a.shape}")
        return cls(int(a[0, 0]), int(a[0, 1]), int(a[1, 0]), int(a[1, 1]))


@dataclass(frozen=True)
class Patch2x2:
    """One 2x2 output patch at accumulator precision."""

    top_left: int
    top_right: int
    bottom_left: int
    bottom_right: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.top_left, self.top_right],
             [self.bottom_left, self.bottom_right]], dtype=np.int64)


def rotate180(kernel) -> np.ndarray:
    """Flip a 3x3 tap grid in both dimensions (its own inverse)."""
    k = np.asarray(kernel)
    if k.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 taps, got {k.shape}")
    return k[..., ::-1, ::-1].copy()


def pad_for_patches(input: QTensor) -> QTensor:
    """Add the zero row on top and zero column on the left.

    After this pad, the stride-1 2x2 windows of the (h+1, w+1) map are in
    one-to-one correspondence with the h*w disjoint output patches of the
    exact-double transform.
    """
    return QTensor(np.pad(input.data, ((1, 0), (1, 0), (0, 0))), input.scale_exp)


def deconv_patch(win: Window2x2, kernel, counters: OpCounters | None = None) -> Patch2x2:
    """Evaluate one window against one (pre-rotated) 3x3 kernel.

    Exactly 9 multiplications and 5 additions, whatever the operand values.
    """
    k = np.asarray(kernel)
    if k.shape != (3, 3):
        raise ValueError(f"expected a single 3x3 kernel, got {k.shape}")
    w = ((int(win.top_left), int(win.top_right)),
         (int(win.bottom_left), int(win.bottom_right)))
    out = Patch2x2(*(sum(w[r][c] * int(k[t]) for (r, c), t in route)
                     for route in PATCH_ROUTING))
    check_accum(out.as_array())
    if counters is not None:
        counters.add(multiplications=9, additions=5, loads=4, stores=4)
    return out


def interleave_patches(slots: np.ndarray) -> np.ndarray:
    """Place slot maps (4, h, w, c) as the 2x2 patches of a (2h, 2w, c) map.

    Slot i of window (y, x) lands at (2y + i // 2, 2x + i % 2), the raster
    order of PATCH_ROUTING.
    """
    _, h, w, c = slots.shape
    return slots.reshape(2, 2, h, w, c).transpose(2, 0, 3, 1, 4).reshape(2 * h, 2 * w, c)


def patch_accumulate(padded: np.ndarray, weights: np.ndarray,
                     tile_depth: int) -> np.ndarray:
    """Patch sums of every 2x2 window of a padded (hp, wp, cin) int8 map.

    weights: (cout, cin, 3, 3), pre-rotated. Returns the int64
    (2*(hp-1), 2*(wp-1), cout) map without bias. Input channels run in
    tiles of tile_depth; per tile each slot is one GEMM over its stacked
    (corner, tap) pairs, added in place into the slot accumulators, which
    are range-checked after every tile. int8 operands keep every float64
    partial sum below 2**53, so the products are exact.
    """
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    wh, ww = hp - 1, wp - 1
    n = wh * ww
    slots = np.zeros((len(PATCH_ROUTING), n, cout), dtype=np.int64)
    for ci0 in range(0, cin, tile_depth):
        ct = min(tile_depth, cin - ci0)
        tile = padded[:, :, ci0:ci0 + ct]
        for acc, route in zip(slots, PATCH_ROUTING):
            ops = np.stack(
                [tile[r:r + wh, c:c + ww].reshape(n, ct) for (r, c), _ in route],
                axis=2).reshape(n, ct * len(route)).astype(np.float64)
            km = np.stack(
                [weights[:, ci0:ci0 + ct, u, v] for _, (u, v) in route],
                axis=2).reshape(cout, ct * len(route)).astype(np.float64)
            acc += (ops @ km.T).astype(np.int64)
        check_accum(slots)
    return interleave_patches(slots.reshape(-1, wh, ww, cout))


def deconv_full(input: QTensor, weights: KernelSet,
                counters: OpCounters | None = None) -> np.ndarray:
    """Whole-map patch deconvolution: (h, w, cin) -> (2h, 2w, cout) int32.

    Equals deconv_naive(..., exact_double=True) bit for bit while spending
    a quarter of the multiplications. Bias is added once per output value.
    """
    if not weights.rotated:
        raise ValueError("deconvolution expects kernels rotated at pack time")
    h, w, cin = input.shape
    if weights.in_channels != cin:
        raise ValueError(
            f"weights expect {weights.in_channels} input channels, map has {cin}")
    cout = weights.out_channels
    out = patch_accumulate(pad_for_patches(input).data, weights.weights,
                           _CHANNEL_TILE)
    out += weights.bias.astype(np.int64)
    check_accum(out)
    if counters is not None:
        windows = h * w
        counters.add(
            multiplications=9 * windows * cin * cout,
            additions=windows * cout * (5 * cin + 4 * (cin - 1) + 4),
            loads=4 * windows * cin,
            stores=4 * windows * cout,
        )
    return out.astype(np.int32)
