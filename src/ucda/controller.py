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
  * program dump: one command per line, fixed field order
"""
from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass

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
    PostOps,
    ShapeMismatch,
    check_layer_capacity,
    compute_out_shape,
    layer_command,
    run_layer,
)
from .pearray import HwConfig, fuse_bn
from .patchdeconv import rotate180
from .qtensor import (
    KernelSet,
    QTensor,
    check_accum,
    quantize_array,
    round_half_away,
)

KIND_CODES = {kind: code for code, kind in enumerate(LAYER_OPS)}
_CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

WEIGHT_MAGIC = b"UCDW"
WEIGHT_VERSION = 1
NET_VERSION = 1


class NetParseError(ValueError):
    """The network description file is malformed or violates the schema."""


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
        if self.pool not in POOLS:
            raise NetParseError(f"unknown pool {self.pool!r}")
        if self.pool != "none" and self.kind not in COMPUTE_OPS:
            raise NetParseError("pool attachments only follow conv/deconv stages")


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

    def output_shape(self) -> tuple:
        links = self.chain()
        return links[-1][1] if links else self.input_shape


def default_padding(kind: str) -> PaddingMode:
    """Edge padding a net stage (and `ucda bench --layer`) uses for a kind."""
    if kind == "conv3x3":
        return PaddingMode.all_edges()
    if kind == "deconv2x":
        return PaddingMode.of("TL")
    return PaddingMode.none()


# ---------------------------------------------------------------- net JSON

def net_to_json(net: NetDescription) -> str:
    doc = {
        "version": NET_VERSION,
        "input": {
            "h": net.input_shape[0],
            "w": net.input_shape[1],
            "c": net.input_shape[2],
            "scale_exp": net.input_scale_exp,
        },
        "layers": [
            {
                "kind": l.kind,
                "out_channels": l.out_channels,
                "activation": l.activation,
                "pool": l.pool,
                "scale_exp": l.scale_exp,
            }
            for l in net.layers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise NetParseError(f"{where}: unknown fields {sorted(unknown)}")


# net JSON layer field, the types it accepts (never a bool) and their name
_LAYER_FIELD_TYPES = (
    ("kind", str, "a string"),
    ("out_channels", int, "an integer"),
    ("activation", str, "a string"),
    ("pool", str, "a string"),
    ("scale_exp", (int, type(None)), "an integer or null"),
)


def net_from_json(text: str) -> NetDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise NetParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
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
    _reject_unknown(inp, ("h", "w", "c", "scale_exp"), "input")
    for key in ("h", "w", "c", "scale_exp"):
        if not isinstance(inp.get(key), int) or isinstance(inp[key], bool):
            raise NetParseError(f"input.{key} must be an integer")
    layers = []
    if not isinstance(doc["layers"], list):
        raise NetParseError("layers must be a list")
    for i, l in enumerate(doc["layers"]):
        if not isinstance(l, dict):
            raise NetParseError(f"layer {i} must be an object")
        _reject_unknown(
            l, ("kind", "out_channels", "activation", "pool", "scale_exp"),
            f"layer {i}")
        for key in ("kind", "out_channels"):
            if key not in l:
                raise NetParseError(f"layer {i}: missing field {key!r}")
        for key, types, name in _LAYER_FIELD_TYPES:
            if key in l and (not isinstance(l[key], types) or isinstance(l[key], bool)):
                raise NetParseError(f"layer {i}: {key} must be {name}, got {l[key]!r}")
        layers.append(LayerSpec(
            kind=l["kind"],
            out_channels=l["out_channels"],
            activation=l.get("activation", "none"),
            pool=l.get("pool", "none"),
            scale_exp=l.get("scale_exp"),
        ))
    return NetDescription(
        input_shape=(inp["h"], inp["w"], inp["c"]),
        input_scale_exp=inp["scale_exp"],
        layers=tuple(layers),
    )


def load_net(path) -> NetDescription:
    with open(path, "r", encoding="utf-8") as f:
        return net_from_json(f.read())


def save_net(path, net: NetDescription) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(net_to_json(net))


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
    at Tn=8 runs as 8 accumulation passes. IF banks alternate per command
    for double buffering. Raises CapacityError naming the violating layer
    when a finite buffer capacity is exceeded.
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
            out_scale_exp=out_scale, weight_slot=slot,
            if_bank=i % 2, of_bank=(i + 1) % 2)
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
    out = io.StringIO()
    out.write("# ucda program v1\n")
    out.write(f"stages: {p.stages}\n")
    out.write(f"commands: {len(p.commands)}\n")
    out.write(f"budget_if_bits: {p.if_bits_required}\n")
    out.write(f"budget_of_bits: {p.of_bits_required}\n")
    out.write(f"budget_weight_bits: {p.weight_bits_required}\n")
    for i, c in enumerate(p.commands):
        out.write(
            f"cmd {i:02d}: op={c.op} pad={c.padding.short_name()}"
            f" in={c.in_shape[0]}x{c.in_shape[1]}x{c.in_shape[2]}"
            f" out={c.out_shape[0]}x{c.out_shape[1]}x{c.out_shape[2]}"
            f" tile_depth={c.tile_depth} unroll={c.unroll[0]}x{c.unroll[1]}"
            f" wslot={c.weight_slot} if_bank={c.if_bank} of_bank={c.of_bank}"
            f" requant={int(c.post.requant)} act={c.post.activation}"
            f" pool={c.post.pool} scale_exp={c.post.out_scale_exp}"
            f" leaky_shift={c.post.leaky_shift}\n")
    return out.getvalue()


def _ints(key: str, val: str, n: int = 1):
    """A dump field as n integers joined by 'x' (one integer when n is 1)."""
    try:
        vals = tuple(int(v) for v in val.split("x"))
    except ValueError:
        vals = ()
    if len(vals) != n:
        raise ValueError(f"field {key}={val!r} is not {'x'.join('N' * n)}")
    return vals if n > 1 else vals[0]


def _command_from_tokens(tokens) -> LayerCommand:
    kv = dict(tok.partition("=")[::2] for tok in tokens)

    def get(key, n=0):   # the field's text, or with n > 0 its n integers
        if key not in kv:
            raise ValueError(f"missing field {key!r}")
        return _ints(key, kv[key], n) if n else kv[key]

    return LayerCommand(
        op=get("op"),
        padding=PaddingMode.of(get("pad")),
        in_shape=get("in", 3),
        out_shape=get("out", 3),
        tile_depth=get("tile_depth", 1),
        unroll=get("unroll", 2),
        weight_slot=get("wslot", 1),
        if_bank=get("if_bank", 1),
        of_bank=get("of_bank", 1),
        post=PostOps(
            activation=get("act"), pool=get("pool"),
            requant=bool(get("requant", 1)),
            out_scale_exp=get("scale_exp", 1),
            leaky_shift=get("leaky_shift", 1)),
    )


def program_from_text(text: str) -> Program:
    """Parse a program dump; a bad or missing field raises ValueError naming it.

    Command lines must be numbered 0, 1, 2, ... and their number must
    equal the `commands:` header, so a dump that lost a line is an error.
    """
    header = {}
    commands = []
    for no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition(":")
        try:
            if line.startswith("cmd "):
                index = _ints("cmd", key[4:].strip())
                if index != len(commands):
                    raise ValueError(f"command index {index} where {len(commands)} "
                                     "was expected")
                commands.append(_command_from_tokens(val.split()))
            else:
                header[key.strip()] = _ints(key.strip(), val.strip())
        except ValueError as e:
            raise ValueError(f"program dump line {no}: {e}") from e
    try:
        program = Program(
            commands=tuple(commands),
            stages=header["stages"],
            if_bits_required=header["budget_if_bits"],
            of_bits_required=header["budget_of_bits"],
            weight_bits_required=header["budget_weight_bits"],
        )
        declared = header["commands"]
    except KeyError as e:
        raise ValueError(f"program dump: missing header field {e}") from None
    if declared != len(commands):
        raise ValueError(f"program dump: header says commands: {declared}, "
                         f"found {len(commands)} command lines")
    return program


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
        out.write(ks.weights.tobytes())
        out.write(ks.bias.astype("<i4").tobytes())
        out.write(ks.bn_multiplier.astype("<i2").tobytes())
        out.write(ks.bn_shift.tobytes())
    return out.getvalue()


def parse_weight_image(blob: bytes):
    """Inverse of weight_image: returns (kinds, kernel_sets).

    Raises ValueError naming the byte offset when the image ends early.
    """
    if blob[:4] != WEIGHT_MAGIC:
        raise ValueError("bad magic: not a weight image")
    pos = 4

    def take(size: int, what: str) -> int:
        nonlocal pos
        if len(blob) - pos < size:
            raise ValueError(
                f"weight image truncated at byte {pos}: {what} needs {size}"
                f" bytes, {len(blob) - pos} left")
        pos += size
        return pos - size

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
        nw = cout * cin * 9
        weights = np.frombuffer(blob, np.int8, nw, take(nw, f"entry {i} weights"))
        bias = np.frombuffer(blob, "<i4", cout, take(4 * cout, f"entry {i} biases"))
        mult = np.frombuffer(blob, "<i2", cout,
                             take(2 * cout, f"entry {i} bn multipliers"))
        shift = np.frombuffer(blob, np.uint8, cout, take(cout, f"entry {i} bn shifts"))
        kinds.append(kind)
        sets.append(KernelSet(
            weights=weights.reshape(cout, cin, 3, 3).copy(),
            bias=bias.astype(np.int32),
            bn_multiplier=mult.astype(np.int16),
            bn_shift=shift.copy(),
            scale_exp=scale_exp,
            rotated=(kind == "deconv2x"),
        ))
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


def pack_weights(net: NetDescription, weights, bn_params=None, biases=None):
    """Quantize per-layer parameters and build the weight image.

    weights: one (out, in, 3, 3) array per conv/deconv layer, float (to be
    quantized at a per-layer power-of-two scale) or int8 (stored verbatim
    at scale 1). bn_params: matching list of BnParams or None (identity).
    biases: matching list of real bias vectors or None. Returns
    (weight image bytes, kernel sets). Deconvolution kernels rotate here,
    at pack time.
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
        acc_scale = 2.0 ** (in_scale + w_scale)
        mult = np.zeros(cout, dtype=np.int16)
        shift = np.zeros(cout, dtype=np.uint8)
        bias32 = np.zeros(cout, dtype=np.int64)
        for c in range(cout):
            g, bt, mn, vr, eps = ((1.0, 0.0, 0.0, 1.0, 0.0) if bn is None else
                                  (float(bn.gamma[c]), float(bn.beta[c]),
                                   float(bn.mean[c]), float(bn.var[c]), bn.eps))
            try:
                rq, fold_bias = fuse_bn(g, bt, mn, vr, eps,
                                        in_scale, w_scale, out_scale)
            except ValueError as e:
                raise ValueError(f"layer {idx} channel {c}: {e}") from e
            mult[c] = rq.multiplier
            shift[c] = rq.shift
            bias32[c] = fold_bias
        if b is not None:
            bias32 += round_half_away(np.asarray(b, dtype=np.float64) / acc_scale)
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

    Commands run strictly in order; feature maps round-trip through the
    alternating IF banks exactly as compiled. fault_layer flips the lowest
    bit of one element of that command's output (fault-injection hook for
    the comparison tool). Pass a list as trace to receive per-command
    records with start/end cycle stamps.
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
        if cmd.if_bank != i % 2 or cmd.of_bank != (i + 1) % 2:
            raise ExecutionError(f"command {i}: IF banks must alternate")
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

def reference_composition(net: NetDescription, kernel_sets, input: QTensor):
    """Layer-by-layer outputs using only the straight-line references.

    This is the comparison chain for the datapath: conv/deconv through the
    padded/zero-insertion reference, then the requantize/activation tail,
    then reference pooling. Returns one QTensor per layer.
    """
    x = input
    outputs = []
    slot = 0
    for spec, link in zip(net.layers, net.chain()):
        _, _, _, out_scale = link
        if spec.kind in COMPUTE_OPS:
            ks = kernel_sets[slot]
            slot += 1
            if spec.kind == "conv3x3":
                acc = oracle.conv2d_ref(x, ks, default_padding("conv3x3"))
            else:
                acc = oracle.deconv_naive(x, ks, exact_double=True)
            x = oracle.bn_act_ref(acc, ks.bn_multiplier, ks.bn_shift,
                                  act=spec.activation, out_scale_exp=out_scale)
            if spec.pool == "max":
                x = oracle.maxpool_ref(x)
            elif spec.pool == "avg":
                x = oracle.avgpool_ref(x)
        elif spec.kind == "maxpool":
            x = oracle.maxpool_ref(x)
        elif spec.kind == "avgpool":
            x = oracle.avgpool_ref(x)
        else:  # identity
            x = QTensor(x.data.copy(), x.scale_exp)
        outputs.append(x)
    return outputs
