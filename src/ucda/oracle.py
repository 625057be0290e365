"""Straight-line reference implementations and a multiplication counter.

These functions are the ground truth the streaming datapath is tested
against: plain padded 3x3 convolution, zero-insertion transposed
convolution, 2x2 pooling and the batch-norm/activation tail. They favour
clarity over speed and stay at accumulator precision (int32) until the
requantization step narrows back to q8. The pooling and activation
arithmetic itself is shared with the datapath (qtensor.pool2x2 and
qtensor.apply_activation); tests/reference_impls.py checks it on its own.

Both convolutions end in one valid 3x3 convolution, computed as a banded
im2col GEMM by one band generator. Per band of output rows, one strided
copy stacks the band's input rows r, r+1 and r+2 at every column q of the
input width ow + 2, a (rows*(ow+2), 3*cin) block. One GEMM meets the
(3*cin, 3*cout) weights, one plane of cout sums for each kernel column v,
and output column x adds plane v at its column x + v, two adds a band.
A layer with 3*cin < cout, where copying all nine taps moves fewer values
than three planes of sums, keeps the (rows*ow, 9*cin) block and the
(9*cin, cout) weights instead; both are one code path, kv kernel columns
along K and 3 // kv along N, with kv read from the layer's shape. Two
proofs from the layer's shape and bias, reading no weights, keep it exact:
every partial sum of the 9*cin int8 products, those of one plane and the
plane sums included, is at most 9*cin*2**14 in magnitude, so the GEMM runs
in float32 when that is at most 2**24 (cin <= 113) and in float64
otherwise; and when every |bias| is at most ACC_MAX minus that bound, each
band is cast to int32 and the bias added there.
A layer outside the second proof adds its bias in float64 and range-checks
every band. A band reads its input rows from the zero-padded int8 map
(conv) or from one reused buffer holding only its own rows of the
zero-inserted map (deconv).

reference_layer, the stage controller.reference_composition runs, narrows
each band as it arrives, in this literal order: requantize (one
qtensor.Requantizer per layer, bn_act_ref's arithmetic), then
apply_activation, then pool2x2. Bands have an even number of rows, so no
2x2 pooling block straddles two. conv2d_ref and deconv_naive assemble the
same bands into a whole int32 map. So a reference stage holds its int8
input and output, the padded input (conv) and one band's working set:
BAND_BYTES bounds the band's im2col block and planes of sums, and so
the requantizer's temporary (one float64 value a sum).
No full int32 or zero-inserted map is built.

OpCounters counts multiplications only: deconv_naive and reference_layer
fill it for deconvolutions, the dense side of the dense/patch ratio.
Every kernel tap counts one multiplication even when an operand is an
injected zero, because the modeled hardware spends the multiplier either
way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qtensor import (
    ACC_MAX,
    KernelSet,
    QTensor,
    Requantizer,
    apply_activation,
    check_accum,
    pool2x2,
    requantize_array,
)

_EDGES = ("top", "bottom", "left", "right")
# working set of one band of output rows in _gemm_bands, its im2col block
# plus its GEMM's planes of sums, counted at 8 bytes per value whether the
# GEMM runs in float32 or float64; it bounds the oracle's memory and never
# changes its results
BAND_BYTES = 4 << 20


@dataclass
class OpCounters:
    """Multiplications of one measured run."""

    multiplications: int = 0


def zero_pad(data: np.ndarray, pad) -> np.ndarray:
    """Pad an (h, w, c) array with one zero row/column per named edge."""
    edges = frozenset(pad)
    bad = edges - set(_EDGES)
    if bad:
        raise ValueError(f"unknown edges {sorted(bad)}")
    t, b, l, r = (int(e in edges) for e in _EDGES)
    return np.pad(data, ((t, b), (l, r), (0, 0)))


def _gemm_bands(rows_of, oh: int, ow: int, weights: np.ndarray,
                bias: np.ndarray, counters: OpCounters | None = None):
    """Yield (r0, band): the exact int32 rows r0.. of a 3x3 valid
    convolution, bias included, one band at a time.

    rows_of(r0, n) returns the n + 2 input rows, ow + 2 columns wide, that
    output rows r0 to r0 + n - 1 read. Banded im2col, kv of the three
    kernel columns along K and nv = 3 // kv along N: block[r, q] holds input
    rows r..r+2 at columns q..q+kv-1, a run of kv*cin values of each row,
    for q over ow + nv - 1 columns. It is one strided copy of the band's
    rows into a reused block of the GEMM's dtype. One GEMM meets the
    (3*kv*cin, nv*cout) weights, K = (u, j, ci) and N = (v, co) for kernel
    column v*kv + j, and output column x sums the planes p[:, x + v, v].
    Per GEMM row the nine-tap block (kv = 3) moves 9*cin + cout values and
    the stacked one (kv = 1) 3*cin + 3*cout, so kv = 3 only when
    3*cin < cout.

    Both proofs read only the shape and the bias. Every partial sum of the
    k = 9*cin int8 products has magnitude at most k*2**14, a plane's
    3*kv*cin products and the plane sums included: float32 holds it
    exactly, in any summation order, when k*2**14 <= 2**24 (cin <= 113),
    else the GEMM runs in float64. When every |bias| <= ACC_MAX - k*2**14,
    acc + bias lies inside int32, so a band is cast to int32 and the bias
    added there. Otherwise the bias is added in float64 (exact, far below
    2**53) and each band is range-checked before it is yielded, so an
    overflow raises AccumulatorOverflow. counters, when given, gains the
    multiplications of every tap once the last band is out.
    """
    cout, cin = weights.shape[:2]
    k = 9 * cin
    acc_bound = k << 14
    # float32 holds every integer of magnitude up to 2**24 exactly
    dtype = np.float32 if acc_bound <= 1 << 24 else np.float64
    kv = 3 if 3 * cin < cout else 1
    nv = 3 // kv
    wq = ow + nv - 1              # block columns: ow and one per extra plane
    # wmat[(u, j, ci), (v, co)] = weights[co, ci, u, v * kv + j]
    wmat = (weights.reshape(cout, cin, 3, nv, kv).transpose(2, 4, 1, 3, 0)
            .reshape(3 * kv * cin, nv * cout).astype(dtype))
    bias_bound = int(np.abs(bias, dtype=np.int64).max(initial=0))
    in_range = bias_bound <= ACC_MAX - acc_bound
    b = bias.astype(np.int32 if in_range else np.float64)
    # the band's im2col block and planes at 8 bytes a value; an even count,
    # so a band holds whole 2x2 pooling blocks and starts on a data row of a
    # zero-inserted map
    rows = BAND_BYTES // (8 * wq * (3 * kv * cin + nv * cout))
    rows = max(2, rows - rows % 2)
    cols = np.empty((min(rows, oh), wq, 3, kv * cin), dtype=dtype)
    for r0 in range(0, oh, rows):
        n = min(rows, oh - r0)
        src, block = np.ascontiguousarray(rows_of(r0, n)), cols[:n]
        sy, sx, sc = src.strides
        # block[r, q, u, j * cin + c] = src[r + u, q + j, c]; numpy checks
        # that the view stays inside the band's rows
        block[...] = np.ndarray(block.shape, src.dtype, src, 0, (sy, sx, sy, sc))
        p = (block.reshape(n * wq, -1) @ wmat).reshape(n, wq, nv, cout)
        acc = p[:, :ow, 0]
        for v in range(1, nv):
            # the first add makes the band's sums, the next adds in place
            acc = np.add(acc, p[:, v:v + ow, v], out=acc if v > 1 else None)
        if in_range:
            acc = np.add(acc, b, dtype=np.int32, casting="unsafe")
        else:
            acc = check_accum(np.add(acc, b)).astype(np.int32)
        yield r0, acc
    if counters is not None:
        counters.multiplications += 9 * oh * ow * cin * cout


def _inserted_rows(data: np.ndarray):
    """Row source of the zero-inserted map of a 2x transposed convolution.

    The map is (2h+2) x (2w+2): input pixel (i, j) sits at (2i+2, 2j+2) and
    every other value is zero. Each band's rows are written into one zero
    buffer, made for the first (tallest) band and reused. Bands start on
    even rows, so every band's data rows fall on the buffer's even rows and
    its odd rows and columns stay zero.
    """
    h, w, cin = data.shape
    buf = None

    def rows_of(r0: int, n: int) -> np.ndarray:
        nonlocal buf
        if buf is None:
            buf = np.zeros((n + 2, 2 * w + 2, cin), dtype=np.int8)
        i0 = r0 // 2 - 1             # the input row on the band's first row
        k0 = 2 if i0 < 0 else 0      # map row 0 is the top zero row
        buf[k0:n + 2:2, 2::2] = data[max(i0, 0):r0 // 2 + n // 2]
        return buf[:n + 2]
    return rows_of


def _layer_bands(data: np.ndarray, weights: KernelSet, kind: str, pad=_EDGES,
                 counters: OpCounters | None = None):
    """(bands, oh, ow) of one layer's accumulators: conv3x3 over data padded
    at the named edges, or deconv2x over its zero-inserted map. bands is a
    _gemm_bands generator; counters, when given, gains a deconvolution's
    dense multiplications once its last band is out."""
    h, w, cin = data.shape
    if kind == "deconv2x" and not weights.rotated:
        raise ValueError("deconvolution expects kernels rotated at pack time")
    if weights.in_channels != cin:
        raise ValueError(f"weights expect {weights.in_channels} input"
                         f" channels, map has {cin}")
    if kind == "deconv2x":
        rows_of, oh, ow = _inserted_rows(data), 2 * h, 2 * w
    else:
        padded = zero_pad(data, pad)
        oh, ow = padded.shape[0] - 2, padded.shape[1] - 2
        if oh < 1 or ow < 1:
            raise ValueError(
                f"padded map {oh + 2}x{ow + 2} smaller than the 3x3 window")
        counters = None

        def rows_of(r0, n):
            return padded[r0:r0 + n + 2]
    return _gemm_bands(rows_of, oh, ow, weights.weights, weights.bias,
                       counters), oh, ow


def _assemble(bands, oh: int, ow: int, cout: int) -> np.ndarray:
    out = np.empty((oh, ow, cout), dtype=np.int32)
    for r0, band in bands:
        out[r0:r0 + len(band)] = band
    return out


def conv2d_ref(input: QTensor, weights: KernelSet, pad) -> np.ndarray:
    """Padded 3x3 convolution at stride 1.

    pad is an iterable of edge names; each named edge gains one zero ring
    row/column. Output shape is (padded_h - 2, padded_w - 2, out_ch) at
    accumulator precision with the per-channel bias already added.
    """
    bands, oh, ow = _layer_bands(input.data, weights, "conv3x3", pad)
    return _assemble(bands, oh, ow, weights.out_channels)


def deconv_naive(input: QTensor, weights: KernelSet,
                 counters: OpCounters | None = None) -> np.ndarray:
    """Stride-2 transposed convolution by explicit zero insertion.

    The input grows to (2h+1) x (2w+1) with one zero between neighbouring
    pixels and a zero ring, plus one more zero row on top and zero column
    on the left. A valid 3x3 convolution over that (2h+2) x (2w+2) map
    with the stored (pre-rotated) kernel gives exactly (2h, 2w).
    """
    bands, oh, ow = _layer_bands(input.data, weights, "deconv2x",
                                 counters=counters)
    return _assemble(bands, oh, ow, weights.out_channels)


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


def reference_layer(x: QTensor, ks: KernelSet, kind: str, activation: str,
                    pool: str, out_scale_exp: int,
                    counters: OpCounters | None = None) -> QTensor:
    """One compute stage of a net: conv3x3 padded on all four edges, or
    deconv2x, then requantize, activation and pool, band by band.

    Equals bn_act_ref(conv2d_ref or deconv_naive) followed by maxpool_ref
    or avgpool_ref, while holding beyond its input only the int8 result,
    a conv's padded input and one band's working set at a time: bands have
    an even number of rows, so no 2x2 pooling block straddles two.
    counters, when given, gains the dense multiplications of a
    deconvolution.
    """
    bands, oh, ow = _layer_bands(x.data, ks, kind, counters=counters)
    f = 1 if pool == "none" else 2
    if oh % f or ow % f:
        raise ValueError(f"pooling needs even dims, got {oh}x{ow}")
    out = np.empty((oh // f, ow // f, ks.out_channels), dtype=np.int8)
    requantizer = Requantizer(ks.bn_multiplier, ks.bn_shift)
    for r0, acc in bands:
        q = apply_activation(requantizer.narrow(acc), activation)
        if f == 2:
            q = pool2x2(q, pool)
        out[r0 // f:r0 // f + len(q)] = q
    return QTensor(out, out_scale_exp)
