"""Per-layer streaming pipeline with cycle accounting.

run_layer executes one register-file command, bit-exact against the
straight-line references: windows over the padded input, multiply-accumulate
on the PE array, the folded batch-norm/activation tail and optional pooling.
layer_report gives its capacity check and cycle report from shapes alone.

A compute op is its PE mode (PE_MODES), whose routing table gives window,
patch side and beats. Both engines yield placed accumulator bands, (first
output row, band) with acc and acc + bias inside int32, and one tail takes
each band to its final int8 rows as it arrives (bias added in int32, one
qtensor.Requantizer per layer, activation, pool), so no stage holds the layer.
Only a last band of odd height has odd rows: no 2x2 pool block straddles two.
'fast' is accumulator_bands (also run by patchdeconv.deconv_full): one exact
GEMM per routing slot over bands of window rows, the int32 bounds of acc and
acc + bias proven once per layer from weights and bias, and only what the
proof leaves open range-checked.
'cells' is the cycle-faithful route that validates it. The frame streams
once through the line buffer (linebuffer.window_stream); each row of windows
runs every depth pass and Tm tile as one PeArray.array_cycle (exact int64,
no GEMM), added in place into its patch rows of a band of two window rows
(output-stationary). It proves nothing: it range-checks those rows after
every pass and a band's acc + bias before yielding it, and asserts its
counted priming, compute and products against layer_report.

On max-pooled layers the tail pools each band 2x2 per channel, then narrows
and activates. This is exact because acc -> acc + bias -> requantize ->
relu/leaky is monotone per channel (non-decreasing for a multiplier >= 0,
non-increasing below 0): the block max of the literal tail is the tail of
the block's max accumulator, or of its min under a negative multiplier.
Rounding does not commute with averaging, so avg pooling keeps the literal
order. The oracle chain (oracle.reference_layer) runs the literal order
requantize -> activation -> pool and stays the independent check of this.

Cycle model per layer (layer_report; linebuffer.priming_slots, window_grid and
PaddingMode.padded give the line-buffer terms, qtensor.WEIGHT_ENTRY the weight bits):
    priming  = priming_slots(padded_width, K)      (line-buffer fill)
    compute  = passes_in * ceil(passes_out / arrays) * windows * beats
               (windows of window_grid; PeMode.beats; arrays split the passes)
    drain    = attached pool: priming_slots(pre-pool width, 2), else 0
    weight   = ceil(weight entry bits / stream_bits), never overlapped
    transfer = ceil(in_bits / stream) + ceil(out_bits / stream), overlapped
               with compute per direction (double-buffered feature streams)
    total    = priming + compute + drain + weight + max(0, transfer - overlapped)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linebuffer import PaddingMode, priming_slots, window_grid, window_stream
from .pearray import HwConfig, PeArray, PeMode, accumulate_bands, place_slots
from .qtensor import (
    KernelSet,
    QTensor,
    Requantizer,
    apply_activation,
    check_accum,
    pool2x2,
    weight_entry,
)

PE_MODES = {"conv3x3": PeMode.CONV, "deconv2x": PeMode.DECONV}
COMPUTE_OPS = tuple(PE_MODES)
POOL_OPS = {"maxpool": "max", "avgpool": "avg"}   # stand-alone op -> pool kind
LAYER_OPS = COMPUTE_OPS + tuple(POOL_OPS) + ("identity",)
ACTIVATIONS = ("none", "relu", "leaky")
POOLS = ("none", "max", "avg")


class ShapeMismatch(ValueError):
    """Command geometry and tensor/weight shapes disagree."""


class CapacityError(RuntimeError):
    """A working set does not fit the configured buffer capacity."""


class UnsupportedOp(ValueError):
    """Command requests an operation outside the modeled set."""


@dataclass(frozen=True)
class LayerCommand:
    """One pre-loaded register-file entry: data, not code. It stores what can
    vary; out_shape and tile_depth are derived, banks and requant implied."""

    op: str
    padding: PaddingMode
    in_shape: tuple
    out_channels: int
    unroll: tuple
    weight_slot: int = -1
    activation: str = "none"
    pool: str = "none"
    out_scale_exp: int = 0
    out_shape: tuple = field(init=False)

    def __post_init__(self):
        if self.op not in LAYER_OPS:
            raise UnsupportedOp(f"unknown op {self.op!r}")
        if self.op not in COMPUTE_OPS and self.pool != "none":
            raise UnsupportedOp("pool attachments only follow compute ops")
        if min(self.unroll) < 1:
            raise ValueError(f"unroll entries must be at least 1, got {self.unroll}")
        object.__setattr__(self, "out_shape", compute_out_shape(
            self.op, self.in_shape, self.padding, self.out_channels, self.pool))
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.op not in COMPUTE_OPS and self.activation != "none":
            raise UnsupportedOp("activations only follow compute ops")
        if self.pool not in POOLS:
            raise ValueError(f"unknown pool {self.pool!r}")

    @property
    def pe_mode(self) -> PeMode:
        return PE_MODES[self.op]

    @property
    def tile_depth(self) -> int:
        """Input channels per accumulation pass."""
        return min(self.in_shape[2], self.unroll[0])


@dataclass
class CycleReport:
    """Cycle and operation accounting for one command (or a whole program)."""

    priming_cycles: int = 0
    compute_cycles: int = 0
    drain_cycles: int = 0
    transfer_cycles: int = 0
    weight_cycles: int = 0
    total_cycles: int = 0
    multiplications: int = 0
    additions: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0

    def merge(self, other: "CycleReport") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def compute_out_shape(op: str, in_shape, mode: PaddingMode, out_channels: int,
                      pool: str = "none"):
    """Final output shape of a command, pooling included."""
    h, w, c = in_shape
    if min(h, w, c) < 1:
        raise ShapeMismatch(f"input dimensions must be at least 1, got {h}x{w}x{c}")
    if op in PE_MODES:
        k, side = PE_MODES[op].window, PE_MODES[op].patch
        try:
            grid = window_grid(*mode.padded(h, w), k)
        except ValueError as e:
            raise ShapeMismatch(str(e)) from e
        if out_channels < 1:
            raise ShapeMismatch(f"out_channels must be at least 1, got {out_channels}")
        oh, ow = (side * n for n in grid)
    elif op in POOL_OPS:
        if out_channels != c:
            raise ShapeMismatch("pooling keeps the channel count")
        if h % 2 or w % 2:
            raise ShapeMismatch(f"pooling needs even dims, got {h}x{w}")
        return (h // 2, w // 2, c)
    elif op == "identity":
        if out_channels != c:
            raise ShapeMismatch("identity keeps the channel count")
        return (h, w, c)
    else:
        raise UnsupportedOp(f"unknown op {op!r}")
    if pool != "none":
        if oh % 2 or ow % 2:
            raise ShapeMismatch(f"attached pooling needs even dims, got {oh}x{ow}")
        oh, ow = oh // 2, ow // 2
    return (oh, ow, out_channels)


def layer_command(op: str, in_shape, out_channels: int, mode: PaddingMode,
                  cfg: HwConfig, activation: str = "none", pool: str = "none",
                  out_scale_exp: int = 0, weight_slot: int = -1) -> LayerCommand:
    """Convenience builder taking the unroll from the config."""
    return LayerCommand(op, mode, tuple(in_shape), out_channels, (cfg.tn, cfg.tm),
                        weight_slot, activation, pool, out_scale_exp)


def pool_act(data: np.ndarray, pool: str = "none", act: str = "none") -> np.ndarray:
    """Activation-then-pool tail on a q8 stream, int8 in and out; with both
    stages bypassed it returns data itself."""
    out = apply_activation(np.asarray(data), act)
    if pool != "none":
        try:
            out = pool2x2(out, pool)
        except ValueError as e:
            raise ShapeMismatch(str(e)) from e
    return out


def _maxpool_acc(acc: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """2x2 blocks of placed accumulators (even dims) reduced per channel: the
    block max, or its min where the channel's multiplier is negative."""
    out = pool2x2(acc, "max")
    neg = multiplier < 0
    if neg.any():
        out[..., neg] = -pool2x2(-acc[..., neg], "max")
    return out


def accumulator_bands(cmd: LayerCommand, input: QTensor, ks: KernelSet,
                      cfg: HwConfig):
    """The fast engine: validates the command against input, kernels and
    config at the call (ShapeMismatch), pads the input by cmd.padding and
    returns pearray.accumulate_bands over it, the bias not added."""
    _validate(cmd, input, ks, cfg)
    padded = np.pad(input.data, (
        (cmd.padding.pad_top, cmd.padding.pad_bottom),
        (cmd.padding.pad_left, cmd.padding.pad_right),
        (0, 0)))
    return accumulate_bands(cmd.pe_mode, padded, ks.weights, ks.bias, cmd.tile_depth)


def _narrow_bands(cmd: LayerCommand, bands, ks: KernelSet) -> np.ndarray:
    """The layer's q8 output from either engine's accumulator bands, each band
    taken through the whole tail as it arrives: a max-pooled layer's pooled
    first, then the bias added in int32, requantized, activated and any
    average pool."""
    f = 1 if cmd.pool == "none" else 2
    out = np.empty(cmd.out_shape, dtype=np.int8)
    requantizer = Requantizer(ks.bn_multiplier, ks.bn_shift)
    for y, acc in bands:
        if cmd.pool == "max":
            acc = _maxpool_acc(acc, ks.bn_multiplier)
        q = requantizer.narrow(np.add(acc, ks.bias, dtype=np.int32, casting="unsafe"))
        q = pool_act(q, "avg" if cmd.pool == "avg" else "none", cmd.activation)
        out[y // f:y // f + len(q)] = q
    return out


def _compute_cells(cmd: LayerCommand, input: QTensor, ks: KernelSet, cfg: HwConfig):
    """Cycle-faithful accumulator_bands, two window rows a band: Tm tile t of
    a depth pass runs on array t % arrays. After the last band, the counted
    priming, busiest array's beats and products must equal layer_report's."""
    cout, mode = ks.out_channels, cmd.pe_mode
    s = mode.patch
    rows = window_grid(*cmd.padding.padded(*input.shape[:2]), mode.window)[0]
    pe = PeArray(cfg)
    busy = [0] * min(cfg.arrays, _ceil_div(cout, cfg.tm))   # beats per array
    for y, (slots, row) in enumerate(window_stream(input, cmd.padding, mode.window)):
        if y % 2 == 0:
            band = np.zeros((2 * s, s * len(row), cout), dtype=np.int64)
        if y == 0:
            priming = slots
        patch = band[s * (y % 2):s * (y % 2) + s]
        row = row.transpose(0, 3, 1, 2)   # (positions, channels, K, K)
        for ci0 in range(0, input.shape[2], cmd.tile_depth):
            ci = slice(ci0, ci0 + cmd.tile_depth)
            for t, co0 in enumerate(range(0, cout, cfg.tm)):
                step = pe.array_cycle(mode, row[:, ci], ks.weights[co0:co0 + cfg.tm, ci])
                busy[t % len(busy)] += len(row) * mode.beats
                patch[:, :, co0:co0 + cfg.tm] += place_slots(
                    step.reshape(1, len(row), -1, mode.beats).transpose(3, 0, 1, 2))
            check_accum(patch)
        if y % 2 or y == rows - 1:
            band = band[:s * (y % 2 + 1)]
            check_accum(band + ks.bias)
            yield s * (y - y % 2), band
    rep = layer_report(cmd, cfg)
    counted = (priming, max(busy), pe.multiplications)
    want = (rep.priming_cycles, rep.compute_cycles, rep.multiplications)
    assert counted == want, ("counted {} priming cycles, {} compute cycles and {} products,"
                             " layer_report says {}, {} and {}".format(*counted, *want))


def _validate(cmd: LayerCommand, input: QTensor, weights: KernelSet | None,
              cfg: HwConfig) -> None:
    if tuple(input.shape) != tuple(cmd.in_shape):
        raise ShapeMismatch(
            f"command expects input {cmd.in_shape}, got {input.shape}")
    if cmd.unroll != (cfg.tn, cfg.tm):
        raise ShapeMismatch(
            f"command compiled for unroll {cmd.unroll}, config is {(cfg.tn, cfg.tm)}")
    if cmd.op in COMPUTE_OPS:
        if weights is None:
            raise ShapeMismatch(f"{cmd.op} needs weights")
        cin, cout = cmd.in_shape[2], cmd.out_channels
        if weights.in_channels != cin or weights.out_channels != cout:
            raise ShapeMismatch(
                f"weights are {weights.out_channels}x{weights.in_channels}, "
                f"command needs {cout}x{cin}")
        if cmd.op == "deconv2x" and not weights.rotated:
            raise ShapeMismatch("deconvolution kernels must be pre-rotated")


def check_layer_capacity(cmd: LayerCommand, cfg: HwConfig,
                         label: str = "layer") -> dict:
    """Working-set bits per buffer; raises CapacityError on finite overrun."""
    h, w, cin = cmd.in_shape
    if_bits = math.prod(cmd.padding.padded(h, w)) * cmd.tile_depth * 8
    if cmd.op in COMPUTE_OPS:   # the OF buffer holds the pre-pool int32 map
        of_bits = math.prod(compute_out_shape(
            cmd.op, cmd.in_shape, cmd.padding, cmd.out_channels)) * 32
        # the layer's weight-image entry past its header
        weight_bits = sum(8 * dtype.itemsize * n
                          for _, dtype, _, n in weight_entry(cin, cmd.out_channels))
    else:
        of_bits = math.prod(cmd.out_shape) * 8
        weight_bits = 0
    need = {"if_bits": if_bits, "of_bits": of_bits, "weight_bits": weight_bits}
    for key, buf, cap in (("if_bits", "IF bank", cfg.if_capacity_bits),
                          ("of_bits", "OF buffer", cfg.of_capacity_bits),
                          ("weight_bits", "weight buffer", cfg.weight_capacity_bits)):
        if cap is not None and need[key] > cap:
            raise CapacityError(f"{label}: {buf} needs {need[key]} bits, capacity {cap}")
    return need


def layer_report(cmd: LayerCommand, cfg: HwConfig) -> CycleReport:
    """Cycle report of one command from its shapes alone; runs no data.

    Raises CapacityError when a working set overruns a finite buffer.
    """
    weight_bits = check_layer_capacity(cmd, cfg)["weight_bits"]
    h, w, cin = cmd.in_shape
    cout = cmd.out_channels
    out_elems = math.prod(cmd.out_shape)
    r = CycleReport()
    r.weight_cycles = _ceil_div(weight_bits, cfg.stream_bits)
    r.buffer_writes = h * w * cin
    if cmd.op in COMPUTE_OPS:
        k, beats = cmd.pe_mode.window, cmd.pe_mode.beats
        ph, pw = cmd.padding.padded(h, w)
        windows = math.prod(window_grid(ph, pw, k))
        passes_in = _ceil_div(cin, cmd.tile_depth)
        # `arrays` output passes run at once from one shared input stream
        out_rounds = _ceil_div(_ceil_div(cout, cmd.unroll[1]), cfg.arrays)
        r.priming_cycles = priming_slots(pw, k)
        r.compute_cycles = passes_in * out_rounds * windows * beats
        if cmd.pool != "none":
            # the pool primes on its pre-pool stream, twice its output width
            r.drain_cycles = priming_slots(2 * cmd.out_shape[1], 2)
            r.buffer_writes += out_elems
        # one addition per product: per window and output channel, conv 8*cin tree
        # + (cin - 1) channel + 1 bias, deconv 5*cin + 4*(cin - 1) + 4; both 9*cin
        r.multiplications = r.additions = 9 * windows * cin * cout
        if cmd.pool == "avg":
            r.additions += 3 * windows * beats * cout // 4
        acc_elems = windows * beats * cout
        r.buffer_reads = out_rounds * windows * k * cin + (passes_in - 1) * acc_elems
        r.buffer_writes += passes_in * acc_elems
    else:
        if cmd.op in POOL_OPS:
            r.priming_cycles = priming_slots(w, 2)
        r.compute_cycles = _ceil_div(cin, cfg.tn) * h * w
        if cmd.op == "avgpool":
            r.additions = 3 * out_elems
        r.buffer_reads = h * w * cin
        r.buffer_writes += out_elems
    in_xfer = _ceil_div(h * w * cin * 8, cfg.stream_bits)
    out_xfer = _ceil_div(out_elems * 8, cfg.stream_bits)
    r.transfer_cycles = in_xfer + out_xfer
    overlapped = min(in_xfer, r.compute_cycles) + min(out_xfer, r.compute_cycles)
    r.total_cycles = (r.priming_cycles + r.compute_cycles + r.drain_cycles
                      + r.weight_cycles + max(0, r.transfer_cycles - overlapped))
    return r


def run_layer(cmd: LayerCommand, input: QTensor, weights: KernelSet | None,
              cfg: HwConfig, engine: str = "fast"):
    """Execute one command; returns (QTensor, CycleReport)."""
    if engine not in ("fast", "cells"):
        raise ValueError(f"unknown engine {engine!r}")
    _validate(cmd, input, weights, cfg)
    report = layer_report(cmd, cfg)
    if cmd.op in COMPUTE_OPS:
        bands = (accumulator_bands if engine == "fast" else _compute_cells)(
            cmd, input, weights, cfg)
        out = QTensor(_narrow_bands(cmd, bands, weights), cmd.out_scale_exp)
    elif cmd.op in POOL_OPS:
        out = QTensor(pool_act(input.data, POOL_OPS[cmd.op]), input.scale_exp)
    else:  # identity
        out = QTensor(input.data.copy(), input.scale_exp)
    if tuple(out.shape) != tuple(cmd.out_shape):
        raise ShapeMismatch(f"produced {out.shape}, command says {cmd.out_shape}")
    return out, report
