"""The four workloads: seeded inputs, one op each, and the op's checks.

Each workload has `setup(seed, scratch_dir)` returning its state and
`round(state)` returning the ops of one round. A frame workload's round is
one op (one frame); layer-sweep's round is one pass over its whole grid, so
every run covers the grid a whole number of times. An op is a callable
taking the tracer and returning an `OpResult`; it raises or returns errors
when any output is wrong. A frame may carry cross-checks, run among its
checks: a small frame on the cells engine, or the CLI's cycle reports.

Calls into ucda go through module attributes (`controller.execute`, not a
name imported from it) so that a traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ucda import cli, controller, datapath, fileio, oracle, patchdeconv, perf
from ucda.controller import BnParams, LayerSpec, NetDescription
from ucda.linebuffer import PaddingMode, all_padding_modes
from ucda.oracle import OpCounters
from ucda.pearray import HwConfig
from ucda.qtensor import QTensor
from tracing import NoTrace

CFG = HwConfig()
NO_TRACE = NoTrace()


@dataclass
class OpResult:
    execute_s: float            # host time of the simulation call
    verify_s: float             # host time of the correctness check
    macs: int                   # modeled multiplications
    cycles: int                 # modeled total cycles
    multiplier_cycles: int      # cycles x physical multipliers (utilization base)
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _timed(tr, name, fn):
    with tr.span(name):
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0


# ------------------------------------------------------------ frame workloads

def random_params(net: NetDescription, rng: np.random.Generator):
    """Float weights, batch-norm statistics and biases for every compute layer."""
    weights, bn, biases = [], [], []
    for spec, (in_shape, out_shape, _, _) in zip(net.layers, net.chain()):
        if spec.kind not in datapath.COMPUTE_OPS:
            continue
        cin, cout = in_shape[2], out_shape[2]
        weights.append(rng.normal(0.0, 0.2, (cout, cin, 3, 3)))
        bn.append(BnParams(
            gamma=rng.uniform(0.5, 1.5, cout),
            beta=rng.uniform(-0.5, 0.5, cout),
            mean=rng.uniform(-0.2, 0.2, cout),
            var=rng.uniform(0.25, 1.0, cout)))
        biases.append(rng.uniform(-0.1, 0.1, cout))
    return weights, bn, biases


@dataclass
class FrameState:
    net: NetDescription
    x: QTensor
    sets: list
    program: controller.Program
    tensor_path: str
    cross_states: list


def _diff_at(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    coord = tuple(int(v) for v in np.argwhere(a != b)[0])
    return f"at {coord}: {int(a[coord])} vs {int(b[coord])}"


def _same_layers(trace, refs, what: str) -> list:
    errors = []
    if len(trace) != len(refs):
        return [f"{len(trace)} layers executed, {what} has {len(refs)}"]
    for entry, ref in zip(trace, refs):
        if entry.output.scale_exp != ref.scale_exp or not np.array_equal(
                entry.output.data, ref.data):
            errors.append(f"layer {entry.index} differs from {what} "
                          f"{_diff_at(entry.output.data, ref.data)}")
    return errors


@dataclass
class Frame:
    """One frame through `controller.execute`, checked layer by layer."""

    name: str
    net: NetDescription
    engine: str = "fast"
    count_deconv_mults: bool = False
    cross_checks: tuple = ()

    def setup(self, seed: int, scratch_dir: str) -> FrameState:
        rng = np.random.default_rng(seed)
        net = self.net
        x = QTensor(rng.integers(-128, 128, size=net.input_shape, dtype=np.int8),
                    net.input_scale_exp)
        _, sets = controller.pack_weights(net, *random_params(net, rng))
        program = controller.compile_network(net, CFG)
        path = os.path.join(scratch_dir, f"{self.name}-{os.getpid()}.tensor")
        return FrameState(net, x, sets, program, path,
                          [c.setup(seed, scratch_dir) for c in self.cross_checks])

    def round(self, st: FrameState):
        return [lambda tr: self.op(st, tr)]

    def simulate(self, st: FrameState, trace=None):
        return controller.execute(st.program, st.sets, st.x, CFG,
                                  engine=self.engine, trace=trace)

    def warm_up(self, st: FrameState) -> None:
        self.simulate(st)

    def op(self, st: FrameState, tr) -> OpResult:
        trace = []
        (out, total), execute_s = _timed(tr, "bench.simulate",
                                         lambda: self.simulate(st, trace))
        (errors, counts), verify_s = _timed(
            tr, "bench.verify", lambda: self.check(st, trace, out, total))
        return OpResult(execute_s, verify_s, total.multiplications,
                        total.total_cycles,
                        total.total_cycles * CFG.multiplier_count, errors, counts)

    def check(self, st: FrameState, trace, out: QTensor, total):
        refs = controller.reference_composition(st.net, st.sets, st.x)
        errors = _same_layers(trace, refs, "the reference chain")
        counts = {}
        if self.engine != "fast":
            fast_trace = []
            _, fast_total = controller.execute(st.program, st.sets, st.x, CFG,
                                               engine="fast", trace=fast_trace)
            errors += _same_layers(trace, [e.output for e in fast_trace],
                                   "the fast engine")
            if fast_total != total:
                errors.append("cycle report differs from the fast engine's")
        if self.count_deconv_mults:
            errors += self._deconv_mults(st, refs, counts)
        fileio.write_tensor(st.tensor_path, out)
        back = fileio.read_tensor(st.tensor_path)
        os.remove(st.tensor_path)
        if back.scale_exp != out.scale_exp or not np.array_equal(back.data, out.data):
            errors.append("tensor file round trip changed the output")
        report = perf.perf_report(total, CFG, trace)
        if sum(row["total_cycles"] for row in report.layers) != total.total_cycles:
            errors.append("per-layer cycles do not add up to the run total")
        for cross, cross_state in zip(self.cross_checks, st.cross_states):
            errors += cross.check(cross_state, counts)
        return errors, counts

    def _deconv_mults(self, st: FrameState, refs, counts: dict) -> list:
        """Dense zero-insertion vs patch multiplications on every deconv layer."""
        errors = []
        slot = 0
        dense_total = patch_total = 0
        for i, spec in enumerate(st.net.layers):
            if spec.kind not in datapath.COMPUTE_OPS:
                continue
            if spec.kind == "deconv2x":
                src = st.x if i == 0 else refs[i - 1]
                dense, patch = OpCounters(), OpCounters()
                a = oracle.deconv_naive(src, st.sets[slot], counters=dense)
                b = patchdeconv.deconv_full(src, st.sets[slot], counters=patch)
                if not np.array_equal(a, b):
                    errors.append(f"layer {i}: patch deconv differs from dense")
                if dense.multiplications != 4 * patch.multiplications:
                    errors.append(f"layer {i}: dense/patch multiplications "
                                  f"{dense.multiplications}/{patch.multiplications}"
                                  " is not 4")
                dense_total += dense.multiplications
                patch_total += patch.multiplications
            slot += 1
        counts["dense_mults"] = dense_total
        counts["patch_mults"] = patch_total
        return errors


def decoder_net() -> NetDescription:
    """45x60x64 -> 360x480x12: four 2x deconvs and one conv3x3 + avg pool."""
    s = -5
    return NetDescription((45, 60, 64), s, (
        LayerSpec("deconv2x", 64, "leaky", "none", s),   # -> 90x120x64
        LayerSpec("conv3x3", 32, "relu", "avg", s),      # -> 45x60x32
        LayerSpec("deconv2x", 32, "leaky", "none", s),   # -> 90x120x32
        LayerSpec("deconv2x", 32, "relu", "none", s),    # -> 180x240x32
        LayerSpec("deconv2x", 12, "leaky", "none", s),   # -> 360x480x12
    ))


def cells_net(h: int = 16, w: int = 16) -> NetDescription:
    """hxwx16 conv3x3 + max pool, then a 2x deconv with leaky ReLU."""
    s = -5
    return NetDescription((h, w, 16), s, (
        LayerSpec("conv3x3", 16, "relu", "max", s),
        LayerSpec("deconv2x", 16, "leaky", "none", s),
    ))


@dataclass(frozen=True)
class CellsCrossCheck:
    """A small frame on the cells engine, checked as a cells-engine op is."""

    frame: Frame

    def setup(self, seed: int, scratch_dir: str) -> FrameState:
        return self.frame.setup(seed, scratch_dir)

    def check(self, st: FrameState, counts: dict) -> list:
        trace = []
        out, total = self.frame.simulate(st, trace)
        errors, _ = self.frame.check(st, trace, out, total)
        return [f"cells cross-check: {e}" for e in errors]


# ---------------------------------------------------------------- layer sweep

# (h, w, cin, cout): cin=3 as in a first layer, cout=12 as in a class head,
# and odd dims, which make one-sided paddings legal under an attached pool
SWEEP_SHAPES = ((24, 32, 3, 16), (16, 24, 16, 12), (15, 21, 8, 8))
# --hw overrides as a user types them; the first is the paper's default
SWEEP_HW = ((), ("tn=4", "tm=16", "stream_bits=128"),
            ("tn=16", "tm=4", "stream_bits=32", "clock=150000000"))
SWEEP_KINDS = (("conv3x3", "none"), ("conv3x3", "max"), ("deconv2x", "none"))
ACTS = ("none", "relu", "leaky")

# the paper's conv/deconv latency pair (perf.latency_scenario)
PAPER_COMPUTE_CYCLES = 10800
PAPER_PRIMING_GAP = 184
PAPER_SAVINGS = (0.02, 0.05)


def _hw_config(overrides) -> HwConfig:
    """The HwConfig that `ucda --hw KEY=VALUE ...` builds from the same pairs."""
    kw = {}
    for pair in overrides:
        key, _, val = pair.partition("=")
        kw["clock_hz" if key == "clock" else key] = int(val)
    return HwConfig(**kw)


def _layer_macs(op, h, w, cin, cout, mode: PaddingMode) -> int:
    """Modeled multiplications: 9 per window, input and output channel.

    `ucda bench --layer` prints cycles but no multiplication count.
    """
    ph = h + mode.pad_top + mode.pad_bottom
    pw = w + mode.pad_left + mode.pad_right
    k = 3 if op == "conv3x3" else 2
    return 9 * (ph - k + 1) * (pw - k + 1) * cin * cout


def _parse_bench_layer(text: str) -> dict:
    """The `priming P  compute C ... total T` line of `ucda bench --layer`."""
    for line in text.splitlines():
        if line.startswith("priming "):
            words = line.split()
            return {k: int(v) for k, v in zip(words[0::2], words[1::2])}
    raise ValueError(f"no cycle line in bench output: {text!r}")


@dataclass(frozen=True)
class LayerPoint:
    hw: tuple
    cfg: HwConfig
    op: str
    shape: tuple
    mode: PaddingMode
    act: str
    pool: str
    out_shape: tuple

    def argv(self) -> list:
        h, w, cin, cout = self.shape
        spec = (f"op={self.op},in={h}x{w}x{cin},out={cout},"
                f"pad={self.mode.short_name()},act={self.act},pool={self.pool}")
        argv = ["bench", "--layer", spec]
        for pair in self.hw:
            argv += ["--hw", pair]
        return argv

    def report(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv())
        return code, buf.getvalue()

    def verify(self) -> list:
        return self.check(*self.report())

    def __call__(self, tr) -> OpResult:
        (code, text), execute_s = _timed(tr, "bench.simulate", self.report)
        errors, verify_s = _timed(tr, "bench.verify", lambda: self.check(code, text))
        h, w, cin, cout = self.shape
        macs = _layer_macs(self.op, h, w, cin, cout, self.mode)
        cycles = _parse_bench_layer(text)["total"] if code == 0 else 0
        return OpResult(execute_s, verify_s, macs, cycles,
                        cycles * self.cfg.multiplier_count, errors,
                        {"analytic_mismatches": int(bool(errors))})

    def check(self, code: int, text: str) -> list:
        if code != 0:
            return [f"`ucda {' '.join(self.argv())}` exited {code}"]
        got = _parse_bench_layer(text)
        h, w, cin, cout = self.shape
        if self.op == "conv3x3":
            want = perf.conv_cycles_analytic(h, w, cin, cout, self.mode,
                                             self.cfg, pool=self.pool)
        else:
            want = perf.deconv_cycles_analytic(h, w, cin, cout, self.mode, self.cfg)
        errors = [f"{' '.join(self.argv())}: {key} {got[key]} != closed form {want[ref]}"
                  for key, ref in (("priming", "priming"), ("compute", "compute"),
                                   ("drain", "drain"), ("weights", "weight"),
                                   ("total", "total"))
                  if got[key] != want[ref]]
        oh, ow, oc = self.out_shape
        if f"-> {oh}x{ow}x{oc} " not in text:
            errors.append(f"{' '.join(self.argv())}: output shape is not {self.out_shape}")
        return errors


@dataclass(frozen=True)
class Scenario:
    hw: tuple
    cfg: HwConfig

    def __call__(self, tr) -> OpResult:
        sc, execute_s = _timed(tr, "bench.simulate",
                               lambda: perf.latency_scenario(self.cfg))
        errors, verify_s = _timed(tr, "bench.verify", lambda: self.check(sc))
        cycles = sc.conv.total_cycles + sc.deconv.total_cycles
        return OpResult(execute_s, verify_s,
                        sc.conv.multiplications + sc.deconv.multiplications,
                        cycles, cycles * self.cfg.multiplier_count, errors,
                        {"analytic_mismatches": int(bool(errors))})

    def verify(self) -> list:
        return self.check(perf.latency_scenario(self.cfg))

    def check(self, sc) -> list:
        conv = perf.conv_cycles_analytic(90, 120, 8, 8, PaddingMode.all_edges(),
                                         self.cfg, pool="max")
        dec = perf.deconv_cycles_analytic(45, 60, 8, 8, PaddingMode.of("TL"), self.cfg)
        where = f"latency scenario {self.hw or 'default'}"
        errors = []
        for side, rep, want in (("conv", sc.conv, conv), ("deconv", sc.deconv, dec)):
            for field_, key in (("priming_cycles", "priming"), ("compute_cycles", "compute"),
                                ("drain_cycles", "drain"), ("total_cycles", "total")):
                if getattr(rep, field_) != want[key]:
                    errors.append(f"{where}: {side} {key} {getattr(rep, field_)}"
                                  f" != closed form {want[key]}")
        if not sc.compute_match:
            errors.append(f"{where}: conv and deconv compute cycles differ")
        if sc.priming_delta_cycles != PAPER_PRIMING_GAP:
            errors.append(f"{where}: priming gap {sc.priming_delta_cycles}"
                          f" != {PAPER_PRIMING_GAP}")
        if self.cfg == CFG:
            if not sc.conv.compute_cycles == sc.deconv.compute_cycles == PAPER_COMPUTE_CYCLES:
                errors.append(f"{where}: compute {sc.conv.compute_cycles} ="
                              f" {sc.deconv.compute_cycles}, paper {PAPER_COMPUTE_CYCLES}")
            lo, hi = PAPER_SAVINGS
            if not lo <= sc.total_savings_fraction <= hi:
                errors.append(f"{where}: savings {sc.total_savings_fraction:.4f}"
                              f" outside [{lo}, {hi}]")
        return errors


class LayerSweep:
    """Cycle reports from `ucda bench --layer` and `perf.latency_scenario`."""

    def __init__(self, hw_configs=SWEEP_HW):
        self.hw_configs = hw_configs

    def setup(self, seed: int, scratch_dir: str) -> list:
        grid = []
        for hw in self.hw_configs:
            cfg = _hw_config(hw)
            grid.append(Scenario(hw, cfg))
            for shape in SWEEP_SHAPES:
                h, w, cin, cout = shape
                for i, mode in enumerate(all_padding_modes()):
                    for op, pool in SWEEP_KINDS:
                        act = ACTS[i % len(ACTS)]
                        try:
                            cmd = datapath.layer_command(op, (h, w, cin), cout, mode, cfg,
                                                         activation=act, pool=pool)
                        except datapath.ShapeMismatch:
                            continue   # the pool needs even dims here
                        datapath.check_layer_capacity(cmd, cfg)
                        grid.append(LayerPoint(hw, cfg, op, shape, mode, act, pool,
                                               cmd.out_shape))
        np.random.default_rng(seed).shuffle(grid)
        return grid

    def round(self, grid: list) -> list:
        return grid

    def warm_up(self, grid: list) -> None:
        grid[0](NO_TRACE)


class ReportCrossCheck:
    """The layer-sweep grid of the paper's HwConfig, with its latency pair,
    checked against the closed forms and the paper's pins."""

    sweep = LayerSweep(SWEEP_HW[:1])

    def setup(self, seed: int, scratch_dir: str) -> list:
        return self.sweep.setup(seed, scratch_dir)

    def check(self, grid: list, counts: dict) -> list:
        errors = [point.verify() for point in grid]
        counts["analytic_mismatches"] = sum(map(bool, errors))
        return [f"report cross-check: {e}" for point_errors in errors
                for e in point_errors]


WORKLOADS = {
    "segnet-frame": Frame("segnet-frame", controller.segnet_basic_preset(),
                          cross_checks=(ReportCrossCheck(),)),
    "decoder-upsample": Frame(
        "decoder-upsample", decoder_net(), count_deconv_mults=True,
        cross_checks=(CellsCrossCheck(Frame("cells-check", cells_net(4, 4),
                                            engine="cells")),)),
    "cells-engine": Frame("cells-engine", cells_net(), engine="cells"),
    "layer-sweep": LayerSweep(),
}
