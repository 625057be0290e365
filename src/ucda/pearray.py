"""Process-element model: a 9-multiplier array with a reconfigurable adder tree.

Every process element multiplies 9 operand pairs per cycle. In convolution
mode the tree sums all 9 products into one accumulator. In deconvolution
mode the same multipliers evaluate one 2x2 input window against the 9
kernel taps and the tree regroups the products 4/2/2/1 into the four
output-patch values; window operands are duplicated across slots rather
than gating idle multipliers off. A Tn x Tm grid of these elements reduces
over Tn input channels and computes Tm output channels in parallel.

fuse_bn folds inference batch-norm into the per-channel requantization
(multiplier/shift) plus a 32-bit bias at accumulator scale.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .patchdeconv import PATCH_ROUTING
from .qtensor import (
    ACC_MAX,
    ACC_MIN,
    REQUANT_FRAC_BITS,
    Requant,
    check_accum,
    round_half_away,
)


class PeMode(enum.Enum):
    CONV = "convolution"
    DECONV = "deconvolution"

    @property
    def beats(self) -> int:
        """Accumulators one evaluation drains: conv 1, deconv one per patch slot."""
        return 1 if self is PeMode.CONV else len(PATCH_ROUTING)


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


@dataclass(frozen=True)
class PeOutput:
    """Result of one PE evaluation.

    Convolution: values = (acc,). Deconvolution: values = four accumulators
    in patch placement order (top-left, top-right, bottom-left,
    bottom-right), drained serially over four beats.
    """

    mode: PeMode
    values: tuple


# PATCH_ROUTING laid out on the 9 multipliers, slot by slot, and the adder
# tree's 4/2/2/1 grouping of their products.
_DECONV_ROUTE = tuple(pair for route in PATCH_ROUTING for pair in route)
_DECONV_GROUPS = tuple(len(route) for route in PATCH_ROUTING)


def conv_operands(window, kernel) -> tuple:
    """Pair a 3x3 window with a 3x3 kernel in raster order."""
    w = np.asarray(window)
    k = np.asarray(kernel)
    if w.shape != (3, 3) or k.shape != (3, 3):
        raise ValueError(f"conv mode pairs 3x3 with 3x3, got {w.shape} and {k.shape}")
    return tuple((int(w[u, v]), int(k[u, v])) for u in range(3) for v in range(3))


def deconv_operands(window, kernel) -> tuple:
    """Route a 2x2 window onto the 9 multiplier slots against a 3x3 kernel."""
    w = np.asarray(window)
    k = np.asarray(kernel)
    if w.shape != (2, 2) or k.shape != (3, 3):
        raise ValueError(f"deconv mode pairs 2x2 with 3x3, got {w.shape} and {k.shape}")
    return tuple((int(w[p]), int(k[t])) for p, t in _DECONV_ROUTE)


class PeArray:
    """A Tn x Tm grid of process elements with shared mode control."""

    def __init__(self, cfg: HwConfig | None = None):
        self.cfg = cfg or HwConfig()
        self.multiplications = 0
        self.evaluations = 0

    def pe_eval(self, mode: PeMode, operands) -> PeOutput:
        """One element, one cycle: 9 products through the adder tree."""
        ops = tuple(operands)
        if len(ops) != 9:
            raise ValueError(f"a process element takes exactly 9 operand pairs, got {len(ops)}")
        products = [int(p) * int(w) for p, w in ops]
        self.multiplications += 9
        self.evaluations += 1
        if mode is PeMode.CONV:
            values = (sum(products),)
        elif mode is PeMode.DECONV:
            values = []
            at = 0
            for g in _DECONV_GROUPS:
                values.append(sum(products[at:at + g]))
                at += g
            values = tuple(values)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        check_accum(np.array(values, dtype=np.int64))
        return PeOutput(mode, values)

    def array_cycle(self, mode: PeMode, windows, kernels, psum=None) -> np.ndarray:
        """One array step at a single spatial position.

        windows: up to Tn per-channel windows (list/array, each KxK) from
        the same position; channels beyond the live ones are simply not
        driven. kernels: (m, n, 3, 3) with m <= Tm output channels. psum:
        carry-in partial sums from earlier depth passes, (m,) for
        convolution or (m, 4) for deconvolution. Returns updated int64
        partial sums in the same shape.
        """
        kern = np.asarray(kernels)
        if kern.ndim != 4 or kern.shape[2:] != (3, 3):
            raise ValueError(f"kernels must be (m, n, 3, 3), got {kern.shape}")
        n = len(windows)
        m = kern.shape[0]
        if n == 0 or n > self.cfg.tn:
            raise ValueError(f"need 1..{self.cfg.tn} channel windows, got {n}")
        if kern.shape[1] != n:
            raise ValueError("one kernel slice per driven channel")
        if m > self.cfg.tm:
            raise ValueError(f"at most {self.cfg.tm} output channels per array, got {m}")
        width = mode.beats
        out = np.zeros((m, width), dtype=np.int64)
        build = conv_operands if mode is PeMode.CONV else deconv_operands
        for mi in range(m):
            for ni in range(n):
                res = self.pe_eval(mode, build(windows[ni], kern[mi, ni]))
                out[mi] += np.asarray(res.values, dtype=np.int64)
        if psum is not None:
            out += np.asarray(psum, dtype=np.int64).reshape(m, width)
        check_accum(out)
        return out if mode is PeMode.DECONV else out[:, 0]


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
