"""Straight-line reference implementations and operation counters.

These functions are the ground truth the streaming datapath is tested
against: plain padded 3x3 convolution, zero-insertion transposed
convolution, 2x2 pooling and the batch-norm/activation tail. They favour
clarity over speed and stay at accumulator precision (int32) until the
requantization step narrows back to q8. The pooling and activation
arithmetic itself is shared with the datapath (qtensor.pool2x2 and
qtensor.apply_activation); tests/reference_impls.py checks it on its own.

Counter bookkeeping is part of the contract: every kernel tap counts one
multiplication even when an operand is an injected zero, because the
modeled hardware spends the multiplier either way.
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


@dataclass
class OpCounters:
    """Multiplication/addition/load/store tallies for one measured run."""

    multiplications: int = 0
    additions: int = 0
    loads: int = 0
    stores: int = 0

    def add(self, multiplications: int = 0, additions: int = 0,
            loads: int = 0, stores: int = 0) -> None:
        if min(multiplications, additions, loads, stores) < 0:
            raise ValueError("counters only move forward")
        self.multiplications += multiplications
        self.additions += additions
        self.loads += loads
        self.stores += stores


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
                   counters: OpCounters | None) -> np.ndarray:
    """3x3 valid convolution over an already-padded map, bias included."""
    hp, wp, cin = padded.shape
    cout = weights.shape[0]
    if weights.shape[1] != cin:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, map has {cin}")
    oh, ow = hp - 2, wp - 2
    if oh < 1 or ow < 1:
        raise ValueError(f"padded map {hp}x{wp} smaller than the 3x3 window")
    acc = np.zeros((oh, ow, cout), dtype=np.int64)
    acc += bias.astype(np.int64)
    x = padded.astype(np.float64)
    for u in range(3):
        for v in range(3):
            wk = weights[:, :, u, v].astype(np.float64)
            # int8 operands keep all partial sums far below 2**53, so the
            # float64 product path is exact
            acc += (x[u:u + oh, v:v + ow, :] @ wk.T).astype(np.int64)
    check_accum(acc)
    if counters is not None:
        counters.add(
            multiplications=9 * oh * ow * cin * cout,
            additions=9 * cin * oh * ow * cout,
            loads=9 * cin * oh * ow,
            stores=oh * ow * cout,
        )
    return acc.astype(np.int32)


def conv2d_ref(input: QTensor, weights: KernelSet, pad,
               counters: OpCounters | None = None) -> np.ndarray:
    """Padded 3x3 convolution at stride 1.

    pad is an iterable of edge names; each named edge gains one zero ring
    row/column. Output shape is (padded_h - 2, padded_w - 2, out_ch) at
    accumulator precision with the per-channel bias already added.
    """
    padded = zero_pad(input.data, pad)
    return _valid_conv3x3(padded, weights.weights, weights.bias, counters)


def deconv_naive(input: QTensor, weights: KernelSet, exact_double: bool = True,
                 counters: OpCounters | None = None) -> np.ndarray:
    """Stride-2 transposed convolution by explicit zero insertion.

    The input grows to (2h+1) x (2w+1) with one zero between neighbouring
    pixels and a zero ring, then a valid 3x3 convolution runs over it with
    the stored (pre-rotated) kernel. exact_double additionally pads one
    zero row on top and one zero column on the left, which makes the output
    exactly (2h, 2w); otherwise it is (2h-1, 2w-1).
    """
    if not weights.rotated:
        raise ValueError("deconvolution expects kernels rotated at pack time")
    h, w, cin = input.shape
    exp = np.zeros((2 * h + 1, 2 * w + 1, cin), dtype=np.int8)
    exp[1::2, 1::2, :] = input.data
    if exact_double:
        exp = np.pad(exp, ((1, 0), (1, 0), (0, 0)))
    return _valid_conv3x3(exp, weights.weights, weights.bias, counters)


def maxpool_ref(input: QTensor, counters: OpCounters | None = None) -> QTensor:
    """2x2/stride-2 max pooling; needs even spatial dims."""
    out = pool2x2(input.data, "max")
    if counters is not None:
        counters.add(loads=input.data.size, stores=out.size)
    return QTensor(out, input.scale_exp)


def avgpool_ref(input: QTensor, counters: OpCounters | None = None) -> QTensor:
    """2x2/stride-2 average pooling, quotient truncated toward zero."""
    out = pool2x2(input.data, "avg")
    if counters is not None:
        counters.add(additions=3 * out.size, loads=input.data.size, stores=out.size)
    return QTensor(out, input.scale_exp)


def bn_act_ref(acc, multiplier, shift, act: str = "none",
               leaky_shift: int = 3, out_scale_exp: int = 0,
               counters: OpCounters | None = None) -> QTensor:
    """Requantize accumulator values and apply the activation.

    multiplier/shift are per-channel arrays over the last axis of acc (the
    folded batch-norm plus output rescale). acc must already carry the
    bias — conv2d_ref and the deconvolution references add it themselves.
    The multiply/shift/round/clamp narrows to q8, then the activation runs
    on the quantized value.
    """
    acc = check_accum(np.asarray(acc, dtype=np.int64))
    q = requantize_array(acc, multiplier, shift)
    q = apply_activation(q, act, leaky_shift).astype(np.int8)
    if counters is not None:
        counters.add(multiplications=acc.size, additions=acc.size,
                     loads=acc.size, stores=acc.size)
    return QTensor(q, out_scale_exp)
