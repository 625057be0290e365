"""Network description, layer-command compiler, sequential executor and
weight packing.

The controller is a register-file machine: compile() lowers a network
description into per-layer commands (data, not code), execute() walks them
in order the way the hardware FSM does, pack_weights() quantizes and
serializes parameters exactly the way the weight buffer expects them
(deconvolution kernels rotated 180 degrees at pack time, batch-norm folded
into per-channel multiplier/shift plus a 32-bit bias).

Serialized forms:
  * network description: strict JSON (version 1, unknown fields rejected)
  * weight image: little-endian binary, magic 'UCDW'
  * program dump: one command per line, fixed field order (write-only)
"""
from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import oracle
from .datapath import (
    ACTIVATIONS,
    COMPUTE_OPS,
    LAYER_OPS,
    POOLS,
    CycleReport,
    LayerCommand,
    PaddingMode,
    ShapeMismatch,
    check_layer_capacity,
    compute_out_shape,
    layer_command,
    run_layer,
)
from .pearray import HwConfig, fuse_bn
from .qtensor import (
    LEAKY_SHIFT,
    SCALE_EXP_MAX,
    SCALE_EXP_MIN,
    KernelSet,
    QTensor,
    check_accum,
    quantize_array,
    round_half_away,
    weight_entry,
)

KIND_CODES = {kind: code for code, kind in enumerate(LAYER_OPS)}
_CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

WEIGHT_MAGIC = b"UCDW"
WEIGHT_VERSION = 1
NET_VERSION = 1


class NetParseError(ValueError):
    """The network description file is malformed or violates the schema."""


def _check_scale(name: str, value: int | None) -> None:
    if value is not None and not SCALE_EXP_MIN <= value <= SCALE_EXP_MAX:
        raise NetParseError(
            f"{name} {value} outside [{SCALE_EXP_MIN}, {SCALE_EXP_MAX}]")


@dataclass(frozen=True)
class LayerSpec:
    """One stage of a network description."""

    kind: str
    out_channels: int
    activation: str = "none"
    pool: str = "none"
    scale_exp: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise NetParseError(f"unknown layer kind {self.kind!r}")
        if self.out_channels < 1:
            raise NetParseError("out_channels must be positive")
        if self.activation not in ACTIVATIONS:
            raise NetParseError(f"unknown activation {self.activation!r}")
        if self.activation != "none" and self.kind not in COMPUTE_OPS:
            raise NetParseError("activations only follow conv/deconv stages")
        if self.pool not in POOLS:
            raise NetParseError(f"unknown pool {self.pool!r}")
        if self.pool != "none" and self.kind not in COMPUTE_OPS:
            raise NetParseError("pool attachments only follow conv/deconv stages")
        # a move stage keeps its input's scale: run_layer never rescales it
        if self.scale_exp is not None and self.kind not in COMPUTE_OPS:
            raise NetParseError("scale_exp only follows conv/deconv stages")
        _check_scale("scale_exp", self.scale_exp)


@dataclass(frozen=True)
class NetDescription:
    """Input geometry plus an ordered list of stages."""

    input_shape: tuple
    input_scale_exp: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise NetParseError(f"bad input shape {self.input_shape}")
        _check_scale("input.scale_exp", self.input_scale_exp)
        self.chain()  # validates stage-to-stage geometry

    def stage_count(self) -> int:
        """Stages = layers plus pool attachments (each counts separately)."""
        return len(self.layers) + sum(1 for l in self.layers if l.pool != "none")

    def chain(self):
        """Per-layer (in_shape, out_shape, in_scale, out_scale)."""
        out = []
        shape = self.input_shape
        scale = self.input_scale_exp
        for i, spec in enumerate(self.layers):
            mode = default_padding(spec.kind)
            try:
                nxt = compute_out_shape(spec.kind, shape, mode,
                                        spec.out_channels, spec.pool)
            except (ShapeMismatch, ValueError) as e:
                raise NetParseError(f"layer {i} ({spec.kind}): {e}") from e
            out_scale = scale if spec.scale_exp is None else spec.scale_exp
            out.append((shape, nxt, scale, out_scale))
            shape, scale = nxt, out_scale
        return out


def default_padding(kind: str) -> PaddingMode:
    """Edge padding a net stage (and `ucda bench --layer`) uses for a kind."""
    if kind == "conv3x3":
        return PaddingMode.all_edges()
    if kind == "deconv2x":
        return PaddingMode.of("TL")
    return PaddingMode.none()


# ---------------------------------------------------------------- net JSON

_INPUT_FIELDS = ("h", "w", "c", "scale_exp")

# each LayerSpec field, the net JSON types it accepts (never a bool) and their name
_LAYER_FIELD_TYPES = {
    "kind": (str, "a string"),
    "out_channels": (int, "an integer"),
    "activation": (str, "a string"),
    "pool": (str, "a string"),
    "scale_exp": ((int, type(None)), "an integer or null"),
}
_REQUIRED_LAYER_FIELDS = tuple(f.name for f in fields(LayerSpec)
                               if f.default is MISSING)


def net_to_json(net: NetDescription) -> str:
    doc = {
        "version": NET_VERSION,
        "input": dict(zip(_INPUT_FIELDS, (*net.input_shape, net.input_scale_exp))),
        "layers": [asdict(l) for l in net.layers],
    }
    return json.dumps(doc, indent=2) + "\n"


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise NetParseError(f"{where}: unknown fields {sorted(unknown)}")


def _unique_fields(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise NetParseError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


def net_from_json(text: str) -> NetDescription:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as e:
        raise NetParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise NetParseError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise NetParseError("top level must be an object")
    _reject_unknown(doc, ("version", "input", "layers"), "top level")
    for key in ("version", "input", "layers"):
        if key not in doc:
            raise NetParseError(f"missing field {key!r}")
    if doc["version"] != NET_VERSION:
        raise NetParseError(f"unsupported version {doc['version']!r}")
    inp = doc["input"]
    if not isinstance(inp, dict):
        raise NetParseError("input must be an object")
    _reject_unknown(inp, _INPUT_FIELDS, "input")
    for key in _INPUT_FIELDS:
        if not isinstance(inp.get(key), int) or isinstance(inp[key], bool):
            raise NetParseError(f"input.{key} must be an integer")
    layers = []
    if not isinstance(doc["layers"], list):
        raise NetParseError("layers must be a list")
    for i, l in enumerate(doc["layers"]):
        if not isinstance(l, dict):
            raise NetParseError(f"layer {i} must be an object")
        _reject_unknown(l, _LAYER_FIELD_TYPES, f"layer {i}")
        for key in _REQUIRED_LAYER_FIELDS:
            if key not in l:
                raise NetParseError(f"layer {i}: missing field {key!r}")
        for key, (types, name) in _LAYER_FIELD_TYPES.items():
            if key in l and (not isinstance(l[key], types) or isinstance(l[key], bool)):
                raise NetParseError(f"layer {i}: {key} must be {name}, got {l[key]!r}")
        try:
            layers.append(LayerSpec(**l))
        except NetParseError as e:
            raise NetParseError(f"layer {i}: {e}") from None
    *shape, scale_exp = (inp[key] for key in _INPUT_FIELDS)
    return NetDescription(input_shape=shape, input_scale_exp=scale_exp,
                          layers=layers)


def load_net(path) -> NetDescription:
    with open(path, "r", encoding="utf-8") as f:
        return net_from_json(f.read())


# ----------------------------------------------------------------- presets

def segnet_basic_preset() -> NetDescription:
    """Encoder/decoder segmentation network at 360x480x3.

    Encoder: four 3x3 conv stages (batch-norm + ReLU), max pooling after
    the first three. Decoder: three 2x upsampling deconv stages interleaved
    with two 3x3 conv stages; the 12-class head folds into the final
    deconv's output channels. 12 stages in total.
    """
    hidden = 64
    classes = 12
    s = -5
    layers = (
        LayerSpec("conv3x3", hidden, "relu", "max", s),
        LayerSpec("conv3x3", hidden, "relu", "max", s),
        LayerSpec("conv3x3", hidden, "relu", "max", s),
        LayerSpec("conv3x3", hidden, "relu", "none", s),
        LayerSpec("deconv2x", hidden, "relu", "none", s),
        LayerSpec("conv3x3", hidden, "relu", "none", s),
        LayerSpec("deconv2x", hidden, "relu", "none", s),
        LayerSpec("conv3x3", hidden, "relu", "none", s),
        LayerSpec("deconv2x", classes, "none", "none", s),
    )
    return NetDescription((360, 480, 3), -7, layers)


# ----------------------------------------------------------------- compile

@dataclass(frozen=True)
class Program:
    """Compiled command list plus buffer budget."""

    commands: tuple
    stages: int
    if_bits_required: int
    of_bits_required: int
    weight_bits_required: int


def compile_network(net: NetDescription, cfg: HwConfig | None = None) -> Program:
    """Lower a network description to register-file commands.

    Tiling is along input depth only: tile_depth = min(Cin, Tn), so Cin=64
    at Tn=8 runs as 8 accumulation passes. Raises CapacityError naming the
    violating layer when a finite buffer capacity is exceeded.
    """
    cfg = cfg or HwConfig()
    commands = []
    budget = {"if_bits": 0, "of_bits": 0, "weight_bits": 0}
    wslot = 0
    for i, (spec, link) in enumerate(zip(net.layers, net.chain())):
        in_shape, _, _, out_scale = link
        slot = -1
        if spec.kind in COMPUTE_OPS:
            slot = wslot
            wslot += 1
        cmd = layer_command(
            spec.kind, in_shape, spec.out_channels, default_padding(spec.kind),
            cfg, activation=spec.activation, pool=spec.pool,
            out_scale_exp=out_scale, weight_slot=slot)
        need = check_layer_capacity(cmd, cfg, label=f"layer {i} ({spec.kind})")
        for key in budget:
            budget[key] = max(budget[key], need[key])
        commands.append(cmd)
    return Program(
        commands=tuple(commands),
        stages=net.stage_count(),
        if_bits_required=budget["if_bits"],
        of_bits_required=budget["of_bits"],
        weight_bits_required=budget["weight_bits"],
    )


# ------------------------------------------------------------ program dump

def program_to_text(p: Program) -> str:
    """The program dump: a header, then one line per command with every
    field in fixed order, the implied ones (out, tile_depth, banks,
    requant, leaky_shift) included. Nothing reads it back; its bytes are
    the format."""
    lines = ["# ucda program v1", f"stages: {p.stages}",
             f"commands: {len(p.commands)}",
             f"budget_if_bits: {p.if_bits_required}",
             f"budget_of_bits: {p.of_bits_required}",
             f"budget_weight_bits: {p.weight_bits_required}"]
    for i, c in enumerate(p.commands):
        vals = {"op": c.op, "pad": c.padding.short_name(), "in": c.in_shape,
                "out": c.out_shape, "tile_depth": c.tile_depth, "unroll": c.unroll,
                "wslot": c.weight_slot, "if_bank": i % 2, "of_bank": (i + 1) % 2,
                "requant": int(c.op in COMPUTE_OPS), "act": c.activation,
                "pool": c.pool, "scale_exp": c.out_scale_exp, "leaky_shift": LEAKY_SHIFT}
        text = " ".join(f"{k}={'x'.join(map(str, v)) if isinstance(v, tuple) else v}"
                        for k, v in vals.items())
        lines.append(f"cmd {i:02d}: {text}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ weight image

def weight_image(kinds, kernel_sets) -> bytes:
    """Serialize packed parameters: entries only for conv/deconv layers."""
    if len(kinds) != len(kernel_sets):
        raise ValueError("one kind per kernel set")
    out = io.BytesIO()
    out.write(WEIGHT_MAGIC)
    out.write(struct.pack("<II", WEIGHT_VERSION, len(kernel_sets)))
    for kind, ks in zip(kinds, kernel_sets):
        if kind not in COMPUTE_OPS:
            raise ValueError(f"{kind} carries no weights")
        out.write(struct.pack(
            "<IIIi", KIND_CODES[kind], ks.in_channels, ks.out_channels,
            ks.scale_exp))
        for name, dtype, _, _ in weight_entry(ks.in_channels, ks.out_channels):
            out.write(getattr(ks, name).astype(dtype, copy=False).tobytes())
    return out.getvalue()


def parse_weight_image(blob: bytes):
    """Inverse of weight_image: returns (kinds, kernel_sets).

    Raises ValueError naming the byte offset when the image ends early.
    """
    pos = 0

    def take(size: int, what: str) -> int:
        nonlocal pos
        if len(blob) - pos < size:
            raise ValueError(
                f"weight image truncated at byte {pos}: {what} needs {size}"
                f" bytes, {len(blob) - pos} left")
        pos += size
        return pos - size

    if blob[take(4, "magic"):4] != WEIGHT_MAGIC:
        raise ValueError("bad magic: not a weight image")
    version, count = struct.unpack_from("<II", blob, take(8, "header"))
    if version != WEIGHT_VERSION:
        raise ValueError(f"unsupported weight image version {version}")
    kinds, sets = [], []
    for i in range(count):
        code, cin, cout, scale_exp = struct.unpack_from(
            "<IIIi", blob, take(16, f"entry {i} header"))
        kind = _CODE_KINDS.get(code)
        if kind not in COMPUTE_OPS:
            raise ValueError(f"weight entry with non-compute kind code {code}")
        entry = {name: np.frombuffer(blob, dtype, n, take(n * dtype.itemsize,
                                                          f"entry {i} {label}"))
                 .astype(dtype.newbyteorder("="))
                 for name, dtype, label, n in weight_entry(cin, cout)}
        entry["weights"] = entry["weights"].reshape(cout, cin, 3, 3)
        kinds.append(kind)
        sets.append(KernelSet(**entry, scale_exp=scale_exp, rotated=(kind == "deconv2x")))
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes in weight image")
    return kinds, sets


# ------------------------------------------------------------ weight pack

@dataclass(frozen=True)
class BnParams:
    """Per-channel inference batch-norm statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5


def _weight_scale_exp(w: np.ndarray) -> int:
    peak = float(np.max(np.abs(w))) if w.size else 0.0
    if peak == 0.0:
        return 0
    s = math.ceil(math.log2(peak / 127.0))
    if s > 0:
        raise ValueError(f"weights reach {peak}, beyond the q8 range at scale 1")
    return max(s, -16)


def rotate180(kernel) -> np.ndarray:
    """Flip a 3x3 tap grid in both dimensions (its own inverse)."""
    k = np.asarray(kernel)
    if k.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 taps, got {k.shape}")
    return k[..., ::-1, ::-1].copy()


def pack_weights(net: NetDescription, weights, bn_params=None, biases=None):
    """Quantize per-layer parameters and build the weight image.

    weights: one (out, in, 3, 3) array per conv/deconv layer, float (to be
    quantized at a per-layer power-of-two scale) or int8 (stored verbatim
    at scale 1). bn_params: matching list of BnParams or None (identity).
    biases: matching list of real bias vectors or None. Returns
    (weight image bytes, kernel sets). Deconvolution kernels rotate here,
    at pack time. A layer fuse_bn cannot fold raises fuse_bn's error class
    (ValueError or RequantOverflow), its message prefixed with the layer.
    """
    compute = [(i, spec, link) for i, (spec, link)
               in enumerate(zip(net.layers, net.chain()))
               if spec.kind in COMPUTE_OPS]
    if len(weights) != len(compute):
        raise ValueError(
            f"net has {len(compute)} parameterized layers, got {len(weights)} arrays")
    bn_params = bn_params or [None] * len(compute)
    biases = biases or [None] * len(compute)
    kinds, sets = [], []
    for (idx, spec, link), w, bn, b in zip(compute, weights, bn_params, biases):
        in_shape, out_shape, in_scale, out_scale = link
        cin, cout = in_shape[2], out_shape[2]
        w = np.asarray(w)
        if w.shape != (cout, cin, 3, 3):
            raise ValueError(
                f"layer {idx}: weights must be {(cout, cin, 3, 3)}, got {w.shape}")
        if w.dtype == np.int8:
            w_scale = 0
            qw = w.copy()
        else:
            w_scale = _weight_scale_exp(w)
            qw = quantize_array(w, w_scale)
        if spec.kind == "deconv2x":
            qw = rotate180(qw)
        if bn is None:
            bn = BnParams(np.ones(cout), np.zeros(cout), np.zeros(cout), np.ones(cout), 0.0)
        try:
            mult, shift, bias32 = fuse_bn(bn.gamma, bn.beta, bn.mean, bn.var, bn.eps,
                                          in_scale, w_scale, out_scale)
        except ValueError as e:
            raise type(e)(f"layer {idx} {e}") from e
        if b is not None:
            bias32 += round_half_away(np.asarray(b, dtype=np.float64)
                                      / 2.0 ** (in_scale + w_scale))
        check_accum(bias32)
        kinds.append(spec.kind)
        sets.append(KernelSet(
            weights=qw, bias=bias32.astype(np.int32), bn_multiplier=mult,
            bn_shift=shift, scale_exp=w_scale, rotated=(spec.kind == "deconv2x")))
    return weight_image(kinds, sets), sets


# ----------------------------------------------------------------- execute

@dataclass
class ExecutedCommand:
    """One trace record from execute()."""

    index: int
    command: LayerCommand
    output: QTensor
    report: CycleReport
    start_cycle: int
    end_cycle: int


class ExecutionError(RuntimeError):
    """A command failed while the program was running."""


def execute(program: Program, kernel_sets, input: QTensor,
            cfg: HwConfig | None = None, engine: str = "fast",
            trace: list | None = None, fault_layer: int | None = None):
    """Run a program sequentially; returns (output, aggregate CycleReport).

    Commands run strictly in order, command i reading IF bank i % 2 and
    writing the other. fault_layer flips the lowest bit of one element of
    that command's output (fault-injection hook for the comparison tool).
    Pass a list as trace to receive per-command records with start/end
    cycle stamps.
    """
    cfg = cfg or HwConfig()
    n_slots = sum(1 for c in program.commands if c.op in COMPUTE_OPS)
    if len(kernel_sets) != n_slots:
        raise ExecutionError(
            f"program expects {n_slots} kernel sets, got {len(kernel_sets)}")
    x = input
    aggregate = CycleReport()
    cursor = 0
    for i, cmd in enumerate(program.commands):
        ks = kernel_sets[cmd.weight_slot] if cmd.weight_slot >= 0 else None
        try:
            x, report = run_layer(cmd, x, ks, cfg, engine=engine)
        except (ShapeMismatch, ValueError) as e:
            raise ExecutionError(f"command {i} ({cmd.op}): {e}") from e
        if fault_layer == i:
            flipped = x.data.copy()
            flipped[0, 0, 0] ^= 1
            x = QTensor(flipped, x.scale_exp)
        start, cursor = cursor, cursor + report.total_cycles
        if trace is not None:
            trace.append(ExecutedCommand(i, cmd, x, report, start, cursor))
        aggregate.merge(report)
    return x, aggregate


# ------------------------------------------------- reference composition

def reference_composition(net: NetDescription, kernel_sets, input: QTensor,
                          counters: oracle.OpCounters | None = None):
    """Layer-by-layer outputs using only the straight-line references.

    This is the comparison chain for the datapath: every compute stage
    runs through oracle.reference_layer, the padded/zero-insertion
    reference narrowed through the requantize/activation/pool tail band by
    band; pooling stages run the reference pools. Returns one QTensor per
    layer. counters, when given, gains the dense multiplications of every
    deconvolution.
    """
    x = input
    outputs = []
    slot = 0
    for spec, link in zip(net.layers, net.chain()):
        _, _, _, out_scale = link
        if spec.kind in COMPUTE_OPS:
            x = oracle.reference_layer(x, kernel_sets[slot], spec.kind,
                                       spec.activation, spec.pool, out_scale,
                                       counters)
            slot += 1
        elif spec.kind == "maxpool":
            x = oracle.maxpool_ref(x)
        elif spec.kind == "avgpool":
            x = oracle.avgpool_ref(x)
        else:  # identity
            x = QTensor(x.data.copy(), x.scale_exp)
        outputs.append(x)
    return outputs
