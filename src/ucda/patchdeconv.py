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
The equations are the table pearray.PATCH_ROUTING: PeArray.array_cycle
evaluates one window per element from it, and deconv_full runs whole maps
through the shared kernel, in pearray.accumulate_bands' bands of window
rows.
"""
from __future__ import annotations

import numpy as np

from .oracle import OpCounters
from .pearray import PeMode, accumulate_bands
from .qtensor import KernelSet, QTensor

_CHANNEL_TILE = 8  # deconv_full's input-channel tile: the default Tn


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
    (2h, 2w) transposed convolution.
    """
    return QTensor(np.pad(input.data, ((1, 0), (1, 0), (0, 0))), input.scale_exp)


def deconv_full(input: QTensor, weights: KernelSet,
                counters: OpCounters | None = None) -> np.ndarray:
    """Whole-map patch deconvolution: (h, w, cin) -> (2h, 2w, cout) int32.

    Equals deconv_naive bit for bit while spending
    a quarter of the multiplications. Bias is added once per output value.
    """
    if not weights.rotated:
        raise ValueError("deconvolution expects kernels rotated at pack time")
    h, w, cin = input.shape
    if weights.in_channels != cin:
        raise ValueError(
            f"weights expect {weights.in_channels} input channels, map has {cin}")
    cout = weights.out_channels
    out = np.empty((2 * h, 2 * w, cout), dtype=np.int32)
    for y, acc in accumulate_bands(PeMode.DECONV, pad_for_patches(input).data,
                                   weights.weights, weights.bias, _CHANNEL_TILE):
        # the kernel proved or checked acc + bias inside int32
        np.add(acc, weights.bias, out=out[y:y + len(acc)], casting="unsafe")
    if counters is not None:
        counters.multiplications += 9 * h * w * cin * cout
    return out
