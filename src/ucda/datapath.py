"""Per-layer streaming pipeline with cycle accounting.

run_layer executes one register-file command: window generation over the
padded input, multiply-accumulate on the PE array, the folded
batch-norm/activation tail (qtensor.apply_activation, qtensor.pool2x2), and
the optional pooling stage, everything bit-exact against the straight-line
reference implementations. layer_report gives the same command's capacity
check and cycle report from its shapes alone, without running any data.

A compute op is its PE mode (PE_MODES); window, patch side and beats come
from the mode's routing table. Two engines produce identical slot maps,
which pearray.place_slots places and one tail narrows: bias added in
float64 (exact: |acc| + |bias| < 2**33) and qtensor.requantize_array to q8.
'fast' runs pearray.accumulate_bands: pearray.accumulate_map over bands of
window rows of the padded input (a few MiB of operands and float64 output
each), every band narrowed to int8 at once. The kernel proves the int32
bound from the weights and then runs one exact GEMM per routing slot over
all input channels, or falls back to Tn-tiled, range-checked passes.
Pooling runs once, on the whole int8 pre-pool map. 'cells' drives the FIFO
line buffer and, per window and Tm output tile, one PeArray.array_cycle
(all Tn x Tm elements of one array step, exact int64 arithmetic, no GEMM);
it is the cycle-faithful route and validates the fast one. Its whole slot
map goes through the same tail as one band.

Cycle model per layer:
    priming  = (K - 1) * padded_width + K          (line-buffer fill)
    compute  = passes_in * passes_out * windows * beats   (PeMode.beats)
    drain    = attached-pool priming (one stream row + 2 slots), else 0
    weight   = ceil(weight_image_bits / stream_bits), never overlapped
    transfer = ceil(in_bits / stream) + ceil(out_bits / stream), overlapped
               with compute per direction (double-buffered feature streams)
    total    = priming + compute + drain + weight + max(0, transfer - overlapped)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linebuffer import LineBuffer, PaddingMode
from .pearray import HwConfig, PeArray, PeMode, accumulate_bands, place_slots
from .qtensor import (
    KernelSet,
    QTensor,
    apply_activation,
    check_accum,
    pool2x2,
    requantize_array,
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
class PostOps:
    """Post-accumulation stage settings carried by a command."""

    activation: str = "none"
    pool: str = "none"
    requant: bool = True
    out_scale_exp: int = 0
    leaky_shift: int = 3

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.pool not in POOLS:
            raise ValueError(f"unknown pool {self.pool!r}")


@dataclass(frozen=True)
class LayerCommand:
    """One pre-loaded register-file entry: data, not code."""

    op: str
    padding: PaddingMode
    in_shape: tuple
    out_shape: tuple
    tile_depth: int
    unroll: tuple
    weight_slot: int
    if_bank: int
    of_bank: int
    post: PostOps

    def __post_init__(self):
        if self.op not in LAYER_OPS:
            raise UnsupportedOp(f"unknown op {self.op!r}")
        if self.tile_depth < 1:
            raise ValueError("tile_depth must be at least 1")
        if self.if_bank not in (0, 1) or self.of_bank not in (0, 1):
            raise ValueError("banks are double-buffered: 0 or 1")

    @property
    def pe_mode(self) -> PeMode:
        return PE_MODES[self.op]


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


def padded_dims(h: int, w: int, mode: PaddingMode):
    return h + mode.pad_top + mode.pad_bottom, w + mode.pad_left + mode.pad_right


def compute_out_shape(op: str, in_shape, mode: PaddingMode, out_channels: int,
                      pool: str = "none"):
    """Final output shape of a command, pooling included."""
    h, w, c = in_shape
    ph, pw = padded_dims(h, w, mode)
    if op in PE_MODES:
        k, side = PE_MODES[op].window, PE_MODES[op].patch
        if ph < k or pw < k:
            raise ShapeMismatch(f"padded {ph}x{pw} too small for a {k}x{k} window")
        oh, ow = side * (ph - k + 1), side * (pw - k + 1)
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
        raise UnsupportedOp(op)
    if pool != "none":
        if oh % 2 or ow % 2:
            raise ShapeMismatch(f"attached pooling needs even dims, got {oh}x{ow}")
        oh, ow = oh // 2, ow // 2
    return (oh, ow, out_channels)


def layer_command(op: str, in_shape, out_channels: int, mode: PaddingMode,
                  cfg: HwConfig, activation: str = "none", pool: str = "none",
                  out_scale_exp: int = 0, weight_slot: int = -1,
                  if_bank: int = 0, of_bank: int = 1,
                  leaky_shift: int = 3) -> LayerCommand:
    """Convenience builder deriving out_shape and tiling from the config."""
    if op not in COMPUTE_OPS and pool != "none":
        raise UnsupportedOp("pool attachments only follow compute ops")
    out_shape = compute_out_shape(op, in_shape, mode, out_channels, pool)
    post = PostOps(activation=activation, pool=pool,
                   requant=op in COMPUTE_OPS, out_scale_exp=out_scale_exp,
                   leaky_shift=leaky_shift)
    return LayerCommand(
        op=op, padding=mode, in_shape=tuple(in_shape), out_shape=out_shape,
        tile_depth=min(in_shape[2], cfg.tn), unroll=(cfg.tn, cfg.tm),
        weight_slot=weight_slot, if_bank=if_bank, of_bank=of_bank, post=post)


def pool_act(data: np.ndarray, pool: str = "none", act: str = "none",
             leaky_shift: int = 3) -> np.ndarray:
    """Activation-then-pool tail on a q8 stream; both stages bypassable."""
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")
    out = apply_activation(np.asarray(data), act, leaky_shift)
    if pool != "none":
        try:
            out = pool2x2(out, pool)
        except ValueError as e:
            raise ShapeMismatch(str(e)) from e
    return out.astype(np.int8)


def _weight_image_bits(cin: int, cout: int) -> int:
    # int8 taps + int32 bias + int16 bn multiplier + uint8 bn shift
    return cout * cin * 9 * 8 + cout * 32 + cout * 16 + cout * 8


def _narrow(acc: np.ndarray, ks: KernelSet) -> np.ndarray:
    """Placed accumulators -> biased (float64, exact) and requantized q8 rows."""
    return requantize_array(acc + ks.bias.astype(np.float64),
                            ks.bn_multiplier, ks.bn_shift)


def _compute_fast(cmd: LayerCommand, input: QTensor, ks: KernelSet) -> np.ndarray:
    """Pre-pool q8 map, each band of pearray.accumulate_bands narrowed at once."""
    padded = np.pad(input.data, (
        (cmd.padding.pad_top, cmd.padding.pad_bottom),
        (cmd.padding.pad_left, cmd.padding.pad_right),
        (0, 0)))
    out = np.empty(compute_out_shape(cmd.op, cmd.in_shape, cmd.padding,
                                     ks.out_channels), dtype=np.int8)
    for y, acc in accumulate_bands(cmd.pe_mode, padded, ks.weights, cmd.tile_depth):
        out[y:y + len(acc)] = _narrow(acc, ks)
    return out


def _compute_cells(cmd: LayerCommand, input: QTensor, ks: KernelSet,
                   cfg: HwConfig) -> np.ndarray:
    """Cycle-faithful route: FIFO line buffer feeding the PE array; slot maps."""
    h, w, cin = input.shape
    cout = ks.out_channels
    mode = cmd.pe_mode
    k = mode.window
    beats = mode.beats
    pe = PeArray(cfg)
    psum = None
    for ci0 in range(0, cin, cmd.tile_depth):
        ct = min(cmd.tile_depth, cin - ci0)
        lb = LineBuffer(w, h, cmd.padding, k)
        tile_out = []
        for y in range(h):
            for x in range(w):
                for win in lb.push(input.data[y, x, ci0:ci0 + ct]):
                    row = np.zeros((cout, beats), dtype=np.int64)
                    for co0 in range(0, cout, cfg.tm):
                        cm = min(cfg.tm, cout - co0)
                        part = pe.array_cycle(mode, np.moveaxis(win, 2, 0),
                                              ks.weights[co0:co0 + cm, ci0:ci0 + ct])
                        row[co0:co0 + cm] = part.reshape(cm, beats)
                    tile_out.append(row)
        assert lb.first_window_slot == lb.priming_slots
        tile = np.stack(tile_out)          # (windows, cout, beats)
        psum = tile if psum is None else check_accum(psum + tile)
    wh, ww = lb.padded_height - k + 1, lb.padded_width - k + 1
    return np.moveaxis(psum.reshape(wh, ww, cout, beats), 3, 0)


def _compute_layer_report(cmd: LayerCommand, cfg: HwConfig) -> CycleReport:
    h, w, cin = cmd.in_shape
    cout = cmd.out_shape[2]
    ph, pw = padded_dims(h, w, cmd.padding)
    k = cmd.pe_mode.window
    windows = (ph - k + 1) * (pw - k + 1)
    beats = cmd.pe_mode.beats
    passes_in = _ceil_div(cin, cmd.tile_depth)
    passes_out = _ceil_div(cout, cmd.unroll[1])
    r = CycleReport()
    r.priming_cycles = (k - 1) * pw + k
    r.compute_cycles = passes_in * passes_out * windows * beats
    # the pool's pre-pool stream is twice its output width in either mode
    r.drain_cycles = (2 * cmd.out_shape[1] + 2) if cmd.post.pool != "none" else 0
    r.weight_cycles = _ceil_div(_weight_image_bits(cin, cout), cfg.stream_bits)
    # one addition per product: per window and output channel, conv 8*cin tree
    # + (cin - 1) channel + 1 bias, deconv 5*cin + 4*(cin - 1) + 4; both 9*cin
    r.multiplications = r.additions = 9 * windows * cin * cout
    if cmd.post.pool == "avg":
        r.additions += 3 * windows * beats * cout // 4
    acc_elems = windows * beats * cout
    r.buffer_reads = passes_out * windows * k * cin + (passes_in - 1) * acc_elems
    r.buffer_writes = h * w * cin + passes_in * acc_elems
    if cmd.post.pool != "none":
        r.buffer_writes += int(np.prod(cmd.out_shape))
    return r


def _move_layer_report(cmd: LayerCommand, cfg: HwConfig) -> CycleReport:
    h, w, c = cmd.in_shape
    r = CycleReport()
    if cmd.op in POOL_OPS:
        r.priming_cycles = w + 2
    r.compute_cycles = _ceil_div(c, cfg.tn) * h * w
    out_elems = int(np.prod(cmd.out_shape))
    if cmd.op == "avgpool":
        r.additions = 3 * out_elems
    r.buffer_reads = h * w * c
    r.buffer_writes = h * w * c + out_elems
    return r


def _add_transfer(r: CycleReport, cmd: LayerCommand, cfg: HwConfig) -> CycleReport:
    """Feature-stream transfer, its overlap with compute, and the total."""
    h, w, c = cmd.in_shape
    in_xfer = _ceil_div(h * w * c * 8, cfg.stream_bits)
    out_xfer = _ceil_div(int(np.prod(cmd.out_shape)) * 8, cfg.stream_bits)
    r.transfer_cycles = in_xfer + out_xfer
    overlapped = min(in_xfer, r.compute_cycles) + min(out_xfer, r.compute_cycles)
    r.total_cycles = (r.priming_cycles + r.compute_cycles + r.drain_cycles
                      + r.weight_cycles + max(0, r.transfer_cycles - overlapped))
    return r


def _validate(cmd: LayerCommand, input: QTensor, weights: KernelSet | None,
              cfg: HwConfig) -> None:
    if tuple(input.shape) != tuple(cmd.in_shape):
        raise ShapeMismatch(
            f"command expects input {cmd.in_shape}, got {input.shape}")
    if cmd.unroll != (cfg.tn, cfg.tm):
        raise ShapeMismatch(
            f"command compiled for unroll {cmd.unroll}, config is {(cfg.tn, cfg.tm)}")
    if cmd.tile_depth > cfg.tn:
        raise ShapeMismatch("tile_depth exceeds the input-channel unroll")
    if cmd.op in COMPUTE_OPS:
        if weights is None:
            raise ShapeMismatch(f"{cmd.op} needs weights")
        if not cmd.post.requant:
            raise ShapeMismatch("compute ops always requantize")
        cin, cout = cmd.in_shape[2], cmd.out_shape[2]
        if weights.in_channels != cin or weights.out_channels != cout:
            raise ShapeMismatch(
                f"weights are {weights.out_channels}x{weights.in_channels}, "
                f"command needs {cout}x{cin}")
        if cmd.op == "deconv2x" and not weights.rotated:
            raise ShapeMismatch("deconvolution kernels must be pre-rotated")
    expected = compute_out_shape(cmd.op, cmd.in_shape, cmd.padding,
                                 cmd.out_shape[2], cmd.post.pool)
    if tuple(cmd.out_shape) != tuple(expected):
        raise ShapeMismatch(
            f"command out_shape {cmd.out_shape} does not match geometry {expected}")


def check_layer_capacity(cmd: LayerCommand, cfg: HwConfig,
                         label: str = "layer") -> dict:
    """Working-set bits per buffer; raises CapacityError on finite overrun."""
    h, w, cin = cmd.in_shape
    ph, pw = padded_dims(h, w, cmd.padding)
    if_bits = ph * pw * min(cmd.tile_depth, cin) * 8
    if cmd.op in COMPUTE_OPS:   # the OF buffer holds the pre-pool int32 map
        of_bits = int(np.prod(compute_out_shape(
            cmd.op, cmd.in_shape, cmd.padding, cmd.out_shape[2]))) * 32
        weight_bits = _weight_image_bits(cin, cmd.out_shape[2])
    else:
        of_bits = int(np.prod(cmd.out_shape)) * 8
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
    check_layer_capacity(cmd, cfg)
    build = _compute_layer_report if cmd.op in COMPUTE_OPS else _move_layer_report
    return _add_transfer(build(cmd, cfg), cmd, cfg)


def run_layer(cmd: LayerCommand, input: QTensor, weights: KernelSet | None,
              cfg: HwConfig, engine: str = "fast"):
    """Execute one command; returns (QTensor, CycleReport)."""
    if engine not in ("fast", "cells"):
        raise ValueError(f"unknown engine {engine!r}")
    _validate(cmd, input, weights, cfg)
    report = layer_report(cmd, cfg)
    if cmd.op in COMPUTE_OPS:
        if engine == "cells":
            q = _narrow(place_slots(_compute_cells(cmd, input, weights, cfg)), weights)
        else:
            q = _compute_fast(cmd, input, weights)
        q = pool_act(q, cmd.post.pool, cmd.post.activation, cmd.post.leaky_shift)
        out = QTensor(q, cmd.post.out_scale_exp)
    elif cmd.op in POOL_OPS:
        out = QTensor(pool_act(input.data, POOL_OPS[cmd.op]), input.scale_exp)
    else:  # identity
        out = QTensor(input.data.copy(), input.scale_exp)
    if tuple(out.shape) != tuple(cmd.out_shape):
        raise ShapeMismatch(f"produced {out.shape}, command says {cmd.out_shape}")
    return out, report
