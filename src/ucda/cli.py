"""Command-line front end: compile, run, compare, bench, convert.

Exit codes are a stable contract: 0 ok, 1 parse error (bad files or
flags), 2 infeasible (a buffer capacity is exceeded), 3 runtime failure,
4 comparison mismatch.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import fileio, oracle, patchdeconv, perf
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
from .pearray import HwConfig, RequantOverflow
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


def _hw_config(pairs) -> HwConfig:
    names = {f.name for f in dataclasses.fields(HwConfig)}
    kwargs = {}
    for pair in pairs or ():
        key, sep, val = pair.partition("=")
        key = _HW_ALIASES.get(key, key)
        if not sep or key not in names:
            raise NetParseError(f"bad --hw override {pair!r}")
        try:
            kwargs[key] = int(val)
        except ValueError:
            raise NetParseError(f"--hw {key} needs an integer, got {val!r}")
    return HwConfig(**kwargs)


def _seed() -> int:
    return int(os.environ.get("UCDA_SEED", "0"))


def _net_for(args):
    if getattr(args, "preset", None):
        if args.preset != "segnet-basic":
            raise NetParseError(f"unknown preset {args.preset!r}")
        return segnet_basic_preset()
    if getattr(args, "net", None):
        return load_net(args.net)
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
    with open(args.weights, "rb") as f:
        kinds, sets = parse_weight_image(f.read())
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
    t = fileio.read_tensor(args.input)
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
    layer = int(idx) if idx else 0
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
    cap = {
        "if": cfg.if_capacity_bits,
        "of": cfg.of_capacity_bits,
        "weights": cfg.weight_capacity_bits,
    }
    need = {
        "if": program.if_bits_required,
        "of": program.of_bits_required,
        "weights": program.weight_bits_required,
    }
    print(f"feasible: {len(program.commands)} commands, {program.stages} stages")
    for key in ("if", "of", "weights"):
        limit = "unbounded" if cap[key] is None else f"{cap[key]} bits"
        print(f"  {key} buffer: {need[key]} bits needed (capacity {limit})")
    return EXIT_OK


def cmd_run(args) -> int:
    net = _net_for(args)
    cfg = _hw_config(args.hw)
    sets = _load_params(net, args)
    x = _load_input(net, args)
    program = compile_network(net, cfg)
    trace = []
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
    refs = reference_composition(net, sets, x)

    first_bad = None
    for entry, ref in zip(trace, refs):
        diff = np.abs(entry.output.data.astype(np.int32)
                      - ref.data.astype(np.int32))
        worst = int(diff.max()) if diff.size else 0
        print(f"layer {entry.index:2d} {entry.command.op:<10}"
              f" max|diff| = {worst}")
        if worst and first_bad is None:
            coord = tuple(int(v) for v in np.argwhere(diff)[0])
            first_bad = (entry, ref, coord)

    _print_deconv_ratio(net, sets, x, refs)
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


def _print_deconv_ratio(net, sets, x, refs):
    """Dense vs patch multiplication count on the first upsampling layer."""
    slot = 0
    for i, spec in enumerate(net.layers):
        if spec.kind not in COMPUTE_OPS:
            continue
        if spec.kind == "deconv2x":
            src = x if i == 0 else refs[i - 1]
            dense, patch = OpCounters(), OpCounters()
            oracle.deconv_naive(src, sets[slot], counters=dense)
            patchdeconv.deconv_full(src, sets[slot], counters=patch)
            ratio = dense.multiplications / patch.multiplications
            print(f"deconv multiplications dense/patch: {ratio:.2f}")
            return
        slot += 1


_LAYER_KEYS = ("op", "in", "out", "pad", "act", "pool")


def _parse_layer_spec(text: str):
    kv = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep or key not in _LAYER_KEYS:
            raise NetParseError(f"bad --layer field {item!r}")
        kv[key] = val
    try:
        op = kv["op"]
        h, w, c = (int(v) for v in kv["in"].split("x"))
    except (KeyError, ValueError):
        raise NetParseError("--layer needs at least op=...,in=HxWxC")
    out_c = int(kv.get("out", c))
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
    print(f"peak {perf.peak_gops(cfg):.2f} GOPS, DSP-equiv {perf.dsp_equiv(cfg)}")
    return EXIT_OK


def cmd_convert(args) -> int:
    src, dst = args.src, args.dst
    if src.lower().endswith((".ppm", ".pgm")):
        t = fileio.ppm_to_tensor(src, scale_exp=args.scale_exp)
        fileio.write_tensor(dst, t)
    elif dst.lower().endswith((".ppm", ".pgm")):
        fileio.tensor_to_ppm(dst, fileio.read_tensor(src))
    else:
        raise NetParseError("one side of the conversion must be .ppm/.pgm")
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a net to layer commands")
    _add_net_args(p)
    p.add_argument("--out", help="program dump path (default: stdout)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a net on the modeled datapath")
    _add_net_args(p)
    _add_data_args(p)
    p.add_argument("--out-tensor", default="out.tensor")
    p.add_argument("--out-perf", default="perf.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="check the datapath against references")
    _add_net_args(p)
    _add_data_args(p)
    p.add_argument("--fault", metavar="flip-bit[:LAYER]",
                   help="corrupt one output bit to exercise the comparator")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="print throughput and latency figures")
    p.add_argument("--hw", action="append", metavar="KEY=VALUE")
    p.add_argument("--scenario", help="canned comparison (paper-latency)")
    p.add_argument("--layer", help="one-layer spec: op=...,in=HxWxC[,out=N]"
                                   "[,pad=..][,act=..][,pool=..]")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("convert", help="convert between PPM/PGM and raw tensors")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--scale-exp", type=int, default=-7)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RequantOverflow as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ExecutionError, AccumulatorOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
