"""Straight-line reference implementations and a multiplication counter.

These functions are the ground truth the streaming datapath is tested
against: plain padded 3x3 convolution, zero-insertion transposed
convolution, 2x2 pooling and the batch-norm/activation tail. They favour
clarity over speed and stay at accumulator precision (int32) until the
requantization step narrows back to q8. The pooling and activation
arithmetic itself is shared with the datapath (qtensor.pool2x2 and
qtensor.apply_activation); tests/reference_impls.py checks it on its own.

Both convolutions end in one valid 3x3 convolution, computed as a banded
im2col GEMM: per band of output rows, the nine shifted taps form one
(rows*ow, 9*cin) matrix that meets the (9*cin, cout) weights in a single
product. The layer's shape alone picks the GEMM's dtype: each product of
two int8 values is at most 2**14 in magnitude, so every partial sum of the
9*cin products is an integer of magnitude at most 9*cin*2**14. When that is
at most 2**24 (cin <= 113) the GEMM runs in float32, otherwise in float64;
the bias is added in float64 after it, exact as the sums plus bias stay far
below 2**53. BAND_BYTES bounds a band's working set, and qtensor.BLOCK_BYTES
the requantize tail's, which never copies the int32 map to float64;
together they bound the oracle's memory beyond its int32 and int8 maps.

OpCounters counts multiplications only: deconv_naive fills it, directly or
through controller.reference_composition, for the dense side of the
dense/patch ratio. Every kernel tap counts one multiplication even when an
operand is an injected zero, because the modeled hardware spends the
multiplier either way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qtensor import (
    KernelSet,
    QTensor,
    apply_activation,
    check_accum,
    pool2x2,
    requantize_array,
)

_EDGES = ("top", "bottom", "left", "right")
# working set of one band of output rows in _valid_conv3x3, counted at 8
# bytes per value whether the band's GEMM runs in float32 or float64; it
# bounds the oracle's memory and never changes its results
BAND_BYTES = 4 << 20


@dataclass
class OpCounters:
    """Multiplications of one measured run."""

    multiplications: int = 0


def _edge_set(pad) -> frozenset:
    edges = frozenset(pad)
    bad = edges - set(_EDGES)
    if bad:
        raise ValueError(f"unknown edges {sorted(bad)}")
    return edges


def zero_pad(data: np.ndarray, pad) -> np.ndarray:
    """Pad an (h, w, c) array with one zero row/column per named edge."""
    edges = _edge_set(pad)
    t = int("top" in edges)
    b = int("bottom" in edges)
    l = int("left" in edges)
    r = int("right" in edges)
    return np.pad(data, ((t, b), (l, r), (0, 0)))


def _valid_conv3x3(padded: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   counters: OpCounters | None = None) -> np.ndarray:
    """3x3 valid convolution over an already-padded map, bias included.

    Banded im2col: for each band of output rows the nine shifted tap views
    are gathered into one (rows, ow, 9*cin) block of the GEMM's dtype and
    multiplied in one GEMM by the (9*cin, cout) weight matrix, rows in
    (u, v, ci) order. The shape proves the result exact, reading no
    weights: every product of two int8 values is at most 2**14 in
    magnitude, so every partial sum of the k = 9*cin products is an
    integer of magnitude at most k*2**14. When k*2**14 <= 2**24 (cin <=
    113) float32 holds every such sum exactly, in any summation order,
    fused or not, and the GEMM runs in float32; above that it runs in
    float64. The bias (|bias| < 2**31) is added in float64 on the GEMM's
    result, exact since sum plus bias stays far below 2**53. Each band is
    range-checked before it is written into the int32 output, so an
    overflow anywhere raises AccumulatorOverflow.
    """
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    if weights.shape[1] != cin:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, map has {cin}")
    oh, ow = hp - 2, wp - 2
    if oh < 1 or ow < 1:
        raise ValueError(f"padded map {hp}x{wp} smaller than the 3x3 window")
    k = 9 * cin
    # float32 holds every integer of magnitude up to 2**24 exactly
    dtype = np.float32 if k << 14 <= 1 << 24 else np.float64
    wmat = weights.transpose(2, 3, 1, 0).reshape(k, cout).astype(dtype)
    b = bias.astype(np.float64)
    out = np.empty((oh, ow, cout), dtype=np.int32)
    # the band's working set at 8 bytes a value: its im2col block and sums
    rows = max(1, BAND_BYTES // (8 * ow * (k + cout)))
    for r0 in range(0, oh, rows):
        n = min(rows, oh - r0)
        cols = np.empty((n, ow, k), dtype=dtype)
        for u in range(3):
            for v in range(3):
                t = (3 * u + v) * cin
                cols[:, :, t:t + cin] = padded[r0 + u:r0 + u + n, v:v + ow, :]
        acc = np.add(cols.reshape(n * ow, k) @ wmat, b)
        check_accum(acc)
        out[r0:r0 + n] = acc.reshape(n, ow, cout)
    if counters is not None:
        counters.multiplications += 9 * oh * ow * cin * cout
    return out


def conv2d_ref(input: QTensor, weights: KernelSet, pad) -> np.ndarray:
    """Padded 3x3 convolution at stride 1.

    pad is an iterable of edge names; each named edge gains one zero ring
    row/column. Output shape is (padded_h - 2, padded_w - 2, out_ch) at
    accumulator precision with the per-channel bias already added.
    """
    padded = zero_pad(input.data, pad)
    return _valid_conv3x3(padded, weights.weights, weights.bias)


def deconv_naive(input: QTensor, weights: KernelSet,
                 counters: OpCounters | None = None) -> np.ndarray:
    """Stride-2 transposed convolution by explicit zero insertion.

    The input grows to (2h+1) x (2w+1) with one zero between neighbouring
    pixels and a zero ring, plus one more zero row on top and zero column
    on the left. A valid 3x3 convolution over that (2h+2) x (2w+2) map
    with the stored (pre-rotated) kernel gives exactly (2h, 2w).
    """
    if not weights.rotated:
        raise ValueError("deconvolution expects kernels rotated at pack time")
    h, w, cin = input.shape
    exp = np.zeros((2 * h + 1, 2 * w + 1, cin), dtype=np.int8)
    exp[1::2, 1::2, :] = input.data
    # two steps on purpose: one allocation of the final size moves decoder
    # peak RSS by several percent, up or down with the heap's layout
    exp = np.pad(exp, ((1, 0), (1, 0), (0, 0)))
    return _valid_conv3x3(exp, weights.weights, weights.bias, counters)


def maxpool_ref(input: QTensor) -> QTensor:
    """2x2/stride-2 max pooling; needs even spatial dims."""
    return QTensor(pool2x2(input.data, "max"), input.scale_exp)


def avgpool_ref(input: QTensor) -> QTensor:
    """2x2/stride-2 average pooling, quotient truncated toward zero."""
    return QTensor(pool2x2(input.data, "avg"), input.scale_exp)


def bn_act_ref(acc, multiplier, shift, act: str = "none",
               out_scale_exp: int = 0) -> QTensor:
    """Requantize accumulator values and apply the activation.

    multiplier/shift are per-channel arrays over the last axis of acc (the
    folded batch-norm plus output rescale). acc must already carry the
    bias — conv2d_ref and the deconvolution references add it themselves.
    The multiply/shift/round/clamp narrows to q8, then the activation runs
    on the quantized value.
    """
    q = apply_activation(requantize_array(acc, multiplier, shift), act)
    return QTensor(q, out_scale_exp)
