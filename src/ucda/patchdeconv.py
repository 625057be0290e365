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
evaluates one window per element from it. deconv_full runs a whole map as
the deconv2x command a net stage compiles to, through the fast engine's own
datapath.accumulator_bands, and counts it from that command's cycle report.
"""
from __future__ import annotations

import numpy as np

from .datapath import accumulator_bands, layer_command, layer_report
from .linebuffer import PaddingMode
from .oracle import OpCounters
from .pearray import HwConfig
from .qtensor import KernelSet, QTensor


def deconv_full(input: QTensor, weights: KernelSet,
                counters: OpCounters | None = None) -> np.ndarray:
    """Whole-map patch deconvolution: (h, w, cin) -> (2h, 2w, cout) int32.

    The top/left-padded deconv2x command at HwConfig() through
    datapath.accumulator_bands, which raises ShapeMismatch for kernels that
    are not pre-rotated or do not take cin channels; the bias is added once
    per output value. Equals deconv_naive bit for bit while spending a
    quarter of the multiplications; counters gains the command's
    layer_report count.
    """
    cfg = HwConfig()
    cmd = layer_command("deconv2x", input.shape, weights.out_channels,
                        PaddingMode.of("TL"), cfg)
    out = np.empty(cmd.out_shape, dtype=np.int32)
    for y, acc in accumulator_bands(cmd, input, weights, cfg):
        # the kernel proved or checked acc + bias inside int32
        np.add(acc, weights.bias, out=out[y:y + len(acc)], casting="unsafe")
    if counters is not None:
        counters.multiplications += layer_report(cmd, cfg).multiplications
    return out
