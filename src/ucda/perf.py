"""Throughput accounting and the conv-vs-deconv latency comparison.

The closed forms here are written directly from the timing model (priming,
window-serial compute, pool drain, weight streaming, overlapped transfers)
rather than by calling into the datapath, so the two can cross-check each
other in tests.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .datapath import CycleReport, layer_command, layer_report
from .linebuffer import PaddingMode
from .pearray import HwConfig


def peak_gops(cfg: HwConfig) -> float:
    """All multipliers busy, every cycle, 2 ops per multiply-accumulate."""
    return 2.0 * cfg.multiplier_count * cfg.clock_hz / 1e9


def effective_gops(report: CycleReport, cfg: HwConfig) -> float:
    """Achieved throughput: counted MACs over wall-clock cycles."""
    if report.total_cycles <= 0:
        raise ValueError("report covers zero cycles")
    return 2.0 * report.multiplications * cfg.clock_hz / (report.total_cycles * 1e9)


def utilization(report: CycleReport, cfg: HwConfig) -> float:
    return effective_gops(report, cfg) / peak_gops(cfg)


# ----------------------------------------------------- closed-form cycles

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _transfer_extra(in_bits, out_bits, compute, cfg):
    """Cycles the transfers add beyond what hides under compute.

    Input and output stream over separate ports, so each direction
    overlaps with compute independently.
    """
    xin = _ceil_div(in_bits, cfg.stream_bits)
    xout = _ceil_div(out_bits, cfg.stream_bits)
    hidden = min(xin, compute) + min(xout, compute)
    return max(0, xin + xout - hidden)


def _weight_stream_cycles(cin, cout, cfg):
    bits = cout * (cin * 72 + 56)  # 9 q8 taps + bias/multiplier/shift words
    return _ceil_div(bits, cfg.stream_bits)


def conv_cycles_analytic(h, w, cin, cout, mode: PaddingMode,
                         cfg: HwConfig | None = None, pool: str = "none") -> dict:
    """3x3 stride-1 layer: one output pixel per cycle per channel pass."""
    cfg = cfg or HwConfig()
    ph = h + mode.pad_top + mode.pad_bottom
    pw = w + mode.pad_left + mode.pad_right
    oh, ow = ph - 2, pw - 2
    priming = 2 * pw + 3
    passes = _ceil_div(cin, cfg.tn) * _ceil_div(_ceil_div(cout, cfg.tm), cfg.arrays)
    compute = passes * oh * ow
    drain = (ow + 2) if pool != "none" else 0
    weight = _weight_stream_cycles(cin, cout, cfg)
    fh, fw = (oh // 2, ow // 2) if pool != "none" else (oh, ow)
    extra = _transfer_extra(h * w * cin * 8, fh * fw * cout * 8, compute, cfg)
    total = priming + compute + drain + weight + extra
    return {"priming": priming, "compute": compute, "drain": drain,
            "weight": weight, "transfer_extra": extra, "total": total}


def deconv_cycles_analytic(h, w, cin, cout, mode: PaddingMode,
                           cfg: HwConfig | None = None) -> dict:
    """2x upsampling layer: each 2x2 window drains its patch over 4 beats."""
    cfg = cfg or HwConfig()
    ph = h + mode.pad_top + mode.pad_bottom
    pw = w + mode.pad_left + mode.pad_right
    wh, ww = ph - 1, pw - 1
    priming = pw + 2
    passes = _ceil_div(cin, cfg.tn) * _ceil_div(_ceil_div(cout, cfg.tm), cfg.arrays)
    compute = passes * wh * ww * 4
    weight = _weight_stream_cycles(cin, cout, cfg)
    extra = _transfer_extra(h * w * cin * 8, 2 * wh * 2 * ww * cout * 8,
                            compute, cfg)
    total = priming + compute + weight + extra
    return {"priming": priming, "compute": compute, "drain": 0,
            "weight": weight, "transfer_extra": extra, "total": total}


# ------------------------------------------------------- latency scenario

@dataclass
class LatencyScenario:
    """Matched conv/deconv pair producing the same output resolution."""

    clock_hz: int
    conv: CycleReport
    deconv: CycleReport

    @property
    def compute_match(self) -> bool:
        return self.conv.compute_cycles == self.deconv.compute_cycles

    @property
    def priming_delta_cycles(self) -> int:
        return self.conv.priming_cycles - self.deconv.priming_cycles

    @property
    def priming_delta_seconds(self) -> float:
        return self.priming_delta_cycles / self.clock_hz

    @property
    def total_savings_fraction(self) -> float:
        conv, deconv = self.conv.total_cycles, self.deconv.total_cycles
        return (conv - deconv) / conv


def latency_scenario(cfg: HwConfig | None = None) -> LatencyScenario:
    """Compare the timing of the matched pair from their shapes alone.

    The conv side processes 90x120x8 at full padding with an attached max
    pool; the deconv side upsamples 45x60x8 with top/left padding. Both
    produce 8 output channels and identical compute-cycle counts; the
    deconv keeps its lead from the shorter line-buffer priming. Reports
    come from datapath.layer_report, which runs no data but still raises
    CapacityError on a finite buffer the pair overruns.
    """
    cfg = cfg or HwConfig()
    conv_rep = layer_report(
        layer_command("conv3x3", (90, 120, 8), 8, PaddingMode.all_edges(), cfg,
                      activation="relu", pool="max", out_scale_exp=-7), cfg)
    dec_rep = layer_report(
        layer_command("deconv2x", (45, 60, 8), 8, PaddingMode.of("TL"), cfg,
                      out_scale_exp=-7), cfg)
    return LatencyScenario(clock_hz=cfg.clock_hz, conv=conv_rep, deconv=dec_rep)


# ------------------------------------------------------------ run report

@dataclass
class PerfReport:
    """Whole-run summary plus one row per command."""

    clock_hz: int
    dsp_equiv: int
    peak_gops: float
    bandwidth_bits_per_cycle: int
    total_cycles: int
    runtime_seconds: float
    multiplications: int
    additions: int
    effective_gops: float
    utilization: float
    layers: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"clock            {self.clock_hz / 1e6:.1f} MHz",
            f"dsp equivalents  {self.dsp_equiv}",
            f"peak             {self.peak_gops:.2f} GOPS",
            f"effective        {self.effective_gops:.2f} GOPS"
            f"  ({100 * self.utilization:.1f}% of peak)",
            f"cycles           {self.total_cycles}"
            f"  ({1e3 * self.runtime_seconds:.3f} ms)",
            "",
            f"{'#':>3} {'op':<10} {'out':<12} {'priming':>8} {'compute':>9} "
            f"{'drain':>6} {'weights':>8} {'total':>9}",
        ]
        for row in self.layers:
            oh, ow, oc = row["out_shape"]
            lines.append(
                f"{row['index']:>3} {row['op']:<10} {f'{oh}x{ow}x{oc}':<12} "
                f"{row['priming_cycles']:>8} {row['compute_cycles']:>9} "
                f"{row['drain_cycles']:>6} {row['weight_cycles']:>8} "
                f"{row['total_cycles']:>9}")
        return "\n".join(lines) + "\n"


def perf_report(aggregate: CycleReport, cfg: HwConfig,
                trace=None) -> PerfReport:
    """Summarize an executed program; trace rows become the layer table."""
    rows = []
    for entry in trace or ():
        util = (utilization(entry.report, cfg)
                if entry.report.total_cycles > 0 else 0.0)
        rows.append({
            "index": entry.index,
            "op": entry.command.op,
            "out_shape": list(entry.command.out_shape),
            "priming_cycles": entry.report.priming_cycles,
            "compute_cycles": entry.report.compute_cycles,
            "drain_cycles": entry.report.drain_cycles,
            "weight_cycles": entry.report.weight_cycles,
            "transfer_cycles": entry.report.transfer_cycles,
            "total_cycles": entry.report.total_cycles,
            "utilization": util,
            "start_cycle": entry.start_cycle,
            "end_cycle": entry.end_cycle,
        })
    eff = (effective_gops(aggregate, cfg)
           if aggregate.total_cycles > 0 else 0.0)
    return PerfReport(
        clock_hz=cfg.clock_hz,
        dsp_equiv=cfg.multiplier_count,
        peak_gops=peak_gops(cfg),
        bandwidth_bits_per_cycle=cfg.stream_bits,
        total_cycles=aggregate.total_cycles,
        runtime_seconds=aggregate.total_cycles / cfg.clock_hz,
        multiplications=aggregate.multiplications,
        additions=aggregate.additions,
        effective_gops=eff,
        utilization=eff / peak_gops(cfg),
        layers=rows,
    )
