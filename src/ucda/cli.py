"""Command-line front end: compile, run, compare, bench, convert.

Exit codes are a stable contract: 0 ok, 1 parse error (bad files or
flags), 2 infeasible (a buffer capacity is exceeded), 3 runtime failure,
4 comparison mismatch. A file's code follows its role: an input that
cannot be read exits 1, like a malformed one, and an output that cannot be
written exits 3.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import hashlib
import os
import pathlib
import sys

import numpy as np

from . import fileio, perf
from .controller import (
    BnParams,
    ExecutionError,
    NetParseError,
    compile_network,
    default_padding,
    execute,
    load_net,
    pack_weights,
    parse_weight_image,
    program_to_text,
    reference_composition,
    segnet_basic_preset,
)
from .datapath import COMPUTE_OPS, CapacityError, layer_command, layer_report
from .linebuffer import PaddingMode
from .oracle import OpCounters
from .pearray import HwConfig
from .qtensor import AccumulatorOverflow, QTensor

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_RUNTIME = 3
EXIT_MISMATCH = 4

_HW_ALIASES = {"clock": "clock_hz"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means infeasible here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _int_field(flag: str, field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NetParseError(f"{flag} {field} needs an integer, got {text!r}") from None


def _hw_config(pairs) -> HwConfig:
    names = {f.name for f in dataclasses.fields(HwConfig)}
    kwargs = {}
    for pair in pairs or ():
        key, sep, val = pair.partition("=")
        key = _HW_ALIASES.get(key, key)
        if not sep or key not in names:
            raise NetParseError(f"bad --hw override {pair!r}")
        if key in kwargs:
            raise NetParseError(f"--hw field {key!r} given twice")
        kwargs[key] = _int_field("--hw", key, val)
    return HwConfig(**kwargs)


def _read(load, *args):
    """load(*args), which reads an input file; one that cannot be read is a parse error."""
    try:
        return load(*args)
    except OSError as e:
        raise NetParseError(str(e)) from None


def _seed() -> int:
    seed = _int_field("environment variable", "UCDA_SEED",
                      os.environ.get("UCDA_SEED", "0"))
    if seed < 0:
        raise NetParseError(f"environment variable UCDA_SEED must be"
                            f" non-negative, got {seed}")
    return seed


def _net_for(args):
    if getattr(args, "preset", None):
        if args.preset != "segnet-basic":
            raise NetParseError(f"unknown preset {args.preset!r}")
        return segnet_basic_preset()
    if getattr(args, "net", None):
        return _read(load_net, args.net)
    raise NetParseError("need --net FILE or --preset NAME")


def _random_input(net, seed) -> QTensor:
    rng = np.random.default_rng(seed)
    h, w, c = net.input_shape
    data = rng.integers(-128, 128, size=(h, w, c)).astype(np.int8)
    return QTensor(data, net.input_scale_exp)


def _random_params(net, seed):
    """Deterministic float weights + batch-norm stats, then packed."""
    rng = np.random.default_rng(seed + 1)
    weights, bn, biases = [], [], []
    for spec, link in zip(net.layers, net.chain()):
        if spec.kind not in COMPUTE_OPS:
            continue
        cin, cout = link[0][2], link[1][2]
        weights.append(rng.normal(0.0, 0.2, (cout, cin, 3, 3)))
        bn.append(BnParams(
            gamma=rng.uniform(0.5, 1.5, cout),
            beta=rng.uniform(-0.5, 0.5, cout),
            mean=rng.uniform(-0.2, 0.2, cout),
            var=rng.uniform(0.25, 1.0, cout)))
        biases.append(rng.uniform(-0.1, 0.1, cout))
    return pack_weights(net, weights, bn, biases)


def _load_params(net, args):
    if getattr(args, "random_weights", False):
        _, sets = _random_params(net, _seed())
        return sets
    if not getattr(args, "weights", None):
        raise NetParseError("need --weights FILE or --random-weights")
    kinds, sets = parse_weight_image(_read(pathlib.Path(args.weights).read_bytes))
    want = [(s.kind, l[0][2], l[1][2])
            for s, l in zip(net.layers, net.chain()) if s.kind in COMPUTE_OPS]
    got = [(k, ks.in_channels, ks.out_channels) for k, ks in zip(kinds, sets)]
    if want != got:
        raise NetParseError(
            f"weight image does not match net: expected {want}, found {got}")
    return sets


def _load_input(net, args) -> QTensor:
    if getattr(args, "random_input", False):
        return _random_input(net, _seed())
    if not getattr(args, "input", None):
        raise NetParseError("need --input FILE or --random-input")
    t = _read(fileio.read_tensor, args.input)
    if t.shape != net.input_shape:
        raise NetParseError(
            f"input tensor is {t.shape}, net wants {net.input_shape}")
    if t.scale_exp != net.input_scale_exp:
        raise NetParseError(
            f"input scale 2^{t.scale_exp} != net input scale"
            f" 2^{net.input_scale_exp}")
    return t


def _digest(t: QTensor) -> str:
    return hashlib.sha256(fileio.tensor_bytes(t)).hexdigest()


def _parse_fault(value, commands: int):
    if value is None:
        return None
    mode, _, idx = value.partition(":")
    if mode != "flip-bit":
        raise NetParseError(f"unknown fault mode {value!r}")
    layer = _int_field("--fault", "layer", idx) if idx else 0
    if not 0 <= layer < commands:
        raise NetParseError(
            f"--fault layer {layer} outside the program's commands 0..{commands - 1}")
    return layer


# ------------------------------------------------------------ subcommands

def cmd_compile(args) -> int:
    net = _net_for(args)
    cfg = _hw_config(args.hw)
    program = compile_network(net, cfg)
    text = program_to_text(program)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"feasible: {len(program.commands)} commands, {program.stages} stages")
    for key, need, cap in (
            ("if", program.if_bits_required, cfg.if_capacity_bits),
            ("of", program.of_bits_required, cfg.of_capacity_bits),
            ("weights", program.weight_bits_required, cfg.weight_capacity_bits)):
        limit = "unbounded" if cap is None else f"{cap} bits"
        print(f"  {key} buffer: {need} bits needed (capacity {limit})")
    return EXIT_OK


def _check_writable(*paths) -> None:
    """Raise, creating nothing, the OSError that opening an output would."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        for bad, code in ((not os.path.isdir(parent), errno.ENOENT),
                          (os.path.isdir(path), errno.EISDIR),
                          (not os.access(parent, os.W_OK), errno.EACCES)):
            if bad:
                raise OSError(code, os.strerror(code), path)


def cmd_run(args) -> int:
    net = _net_for(args)
    cfg = _hw_config(args.hw)
    sets = _load_params(net, args)
    x = _load_input(net, args)
    program = compile_network(net, cfg)
    trace = []
    _check_writable(args.out_tensor, args.out_perf)
    out, total = execute(program, sets, x, cfg, trace=trace)
    fileio.write_tensor(args.out_tensor, out)
    report = perf.perf_report(total, cfg, trace)
    with open(args.out_perf, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    oh, ow, oc = out.shape
    print(f"wrote {args.out_tensor} ({oh}x{ow}x{oc}, scale 2^{out.scale_exp})")
    print(f"wrote {args.out_perf}")
    print(f"sha256 {_digest(out)}")
    print(f"cycles {total.total_cycles}"
          f"  runtime {1e3 * total.total_cycles / cfg.clock_hz:.3f} ms"
          f"  effective {report.effective_gops:.2f} GOPS")
    print()
    sys.stdout.write(report.to_table())
    return EXIT_OK


def cmd_compare(args) -> int:
    net = _net_for(args)
    cfg = _hw_config(args.hw)
    sets = _load_params(net, args)
    x = _load_input(net, args)
    program = compile_network(net, cfg)
    fault = _parse_fault(args.fault, len(program.commands))
    trace = []
    execute(program, sets, x, cfg, trace=trace, fault_layer=fault)
    dense = OpCounters()
    refs = reference_composition(net, sets, x, counters=dense)

    first_bad = None
    for entry, ref in zip(trace, refs):
        # |int8 - int8| <= 255: one int16 map, made in place
        diff = np.subtract(entry.output.data, ref.data, dtype=np.int16)
        worst = int(np.abs(diff, out=diff).max()) if diff.size else 0
        print(f"layer {entry.index:2d} {entry.command.op:<10}"
              f" max|diff| = {worst}")
        if worst and first_bad is None:
            first = int(np.argmax(diff != 0))    # raster order
            coord = tuple(int(v) for v in np.unravel_index(first, diff.shape))
            first_bad = (entry, ref, coord)

    patch = sum(e.report.multiplications for e in trace if e.command.op == "deconv2x")
    if patch:
        print(f"deconv multiplications dense/patch: {dense.multiplications / patch:.2f}")
    print(f"sha256 {_digest(refs[-1] if refs else x)}")
    if first_bad:
        entry, ref, coord = first_bad
        a = int(entry.output.data[coord])
        b = int(ref.data[coord])
        print(f"MISMATCH at layer {entry.index} ({entry.command.op})"
              f" coordinate {coord}: datapath {a} vs reference {b}")
        return EXIT_MISMATCH
    print("all layers bit-exact")
    return EXIT_OK


_LAYER_KEYS = ("op", "in", "out", "pad", "act", "pool")


def _parse_layer_spec(text: str):
    kv = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep or key not in _LAYER_KEYS:
            raise NetParseError(f"bad --layer field {item!r}")
        if key in kv:
            raise NetParseError(f"--layer field {key!r} given twice")
        kv[key] = val
    try:
        op = kv["op"]
        h, w, c = (int(v) for v in kv["in"].split("x"))
    except (KeyError, ValueError):
        raise NetParseError("--layer needs at least op=...,in=HxWxC")
    if min(h, w, c) < 1:
        raise NetParseError(
            f"--layer in dimensions must be at least 1, got {kv['in']!r}")
    out_c = _int_field("--layer", "out", kv["out"]) if "out" in kv else c
    pad = PaddingMode.of(kv["pad"]) if "pad" in kv else default_padding(op)
    return op, (h, w, c), out_c, pad, kv.get("act", "none"), kv.get("pool", "none")


def cmd_bench(args) -> int:
    cfg = _hw_config(args.hw)
    if args.scenario:
        if args.scenario != "paper-latency":
            raise NetParseError(f"unknown scenario {args.scenario!r}")
        sc = perf.latency_scenario(cfg)
        for name, rep in (("conv+pool", sc.conv), ("deconv", sc.deconv)):
            print(f"{name:<10} priming {rep.priming_cycles:>5}"
                  f"  compute {rep.compute_cycles:>6}"
                  f"  drain {rep.drain_cycles:>4}"
                  f"  weights {rep.weight_cycles:>4}"
                  f"  total {rep.total_cycles:>6}")
        print(f"conv = deconv compute cycles:"
              f" {sc.conv.compute_cycles} = {sc.deconv.compute_cycles}")
        print(f"priming delta: {sc.priming_delta_cycles} cycles"
              f" ({1e6 * sc.priming_delta_seconds:.3f} us)")
        print(f"deconv total savings: {100 * sc.total_savings_fraction:.2f}%")
        return EXIT_OK
    if args.layer:
        op, in_shape, out_c, pad, act, pool = _parse_layer_spec(args.layer)
        cmd = layer_command(op, in_shape, out_c, pad, cfg,
                            activation=act, pool=pool, out_scale_exp=-7)
        rep = layer_report(cmd, cfg)
        print(f"{op} {in_shape[0]}x{in_shape[1]}x{in_shape[2]} ->"
              f" {cmd.out_shape[0]}x{cmd.out_shape[1]}x{cmd.out_shape[2]}"
              f" pad={pad.short_name()}")
        print(f"priming {rep.priming_cycles}  compute {rep.compute_cycles}"
              f"  drain {rep.drain_cycles}  weights {rep.weight_cycles}"
              f"  transfer {rep.transfer_cycles}  total {rep.total_cycles}")
        print(f"effective {perf.effective_gops(rep, cfg):.2f} GOPS"
              f"  utilization {100 * perf.utilization(rep, cfg):.1f}%")
        return EXIT_OK
    print(f"peak {perf.peak_gops(cfg):.2f} GOPS, DSP-equiv {cfg.multiplier_count}")
    return EXIT_OK


def cmd_convert(args) -> int:
    src, dst = args.src, args.dst
    src_image, dst_image = (p.lower().endswith((".ppm", ".pgm")) for p in (src, dst))
    if src_image == dst_image:
        raise NetParseError("exactly one side of the conversion must be .ppm/.pgm")
    if src_image:
        scale = () if args.scale_exp is None else (args.scale_exp,)
        t = _read(fileio.ppm_to_tensor, src, *scale)
        fileio.write_tensor(dst, t)
    else:
        if args.scale_exp is not None:
            raise NetParseError("--scale-exp applies only to PPM/PGM input")
        fileio.tensor_to_ppm(dst, _read(fileio.read_tensor, src))
    print(f"wrote {dst}")
    return EXIT_OK


# ----------------------------------------------------------------- parser

def _add_net_args(p):
    p.add_argument("--net", help="network description JSON")
    p.add_argument("--preset", help="built-in network (segnet-basic)")
    p.add_argument("--hw", action="append", metavar="KEY=VALUE",
                   help="hardware override (tn, tm, arrays, clock, ...)")


def _add_data_args(p):
    p.add_argument("--weights", help="packed weight image")
    p.add_argument("--random-weights", action="store_true",
                   help="generate weights from UCDA_SEED")
    p.add_argument("--input", help="raw input tensor")
    p.add_argument("--random-input", action="store_true",
                   help="generate input from UCDA_SEED")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ucda parser, built once per process (parse_args keeps no state).

    Subcommand NAME runs cmd_NAME, which main looks up at each call.
    """
    parser = _Parser(prog="ucda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a net to layer commands")
    _add_net_args(p)
    p.add_argument("--out", help="program dump path (default: stdout)")

    p = sub.add_parser("run", help="execute a net on the modeled datapath")
    _add_net_args(p)
    _add_data_args(p)
    p.add_argument("--out-tensor", default="out.tensor")
    p.add_argument("--out-perf", default="perf.json")

    p = sub.add_parser("compare", help="check the datapath against references")
    _add_net_args(p)
    _add_data_args(p)
    p.add_argument("--fault", metavar="flip-bit[:LAYER]",
                   help="corrupt one output bit to exercise the comparator")

    p = sub.add_parser("bench", help="print throughput and latency figures")
    p.add_argument("--hw", action="append", metavar="KEY=VALUE")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--scenario", help="canned comparison (paper-latency)")
    what.add_argument("--layer", help="one-layer spec: op=...,in=HxWxC[,out=N]"
                                      "[,pad=..][,act=..][,pool=..]")

    p = sub.add_parser("convert", help="convert between PPM/PGM and raw tensors")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--scale-exp", type=int, default=None,
                   help="scale 2^N of the tensor read from PPM/PGM input"
                        " (default -7); an error on tensor export")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not kept in the cached parser, so that a wrapped
    # cmd_* (as a tracer installs) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CapacityError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ExecutionError, AccumulatorOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as e:
        print("error:", str(e) or "out of memory", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
