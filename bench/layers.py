"""Per-layer metrics of the traced run: observers and the final figures.

Times are per op: the traced total divided by the number of traced ops,
except the two controller set-up calls, which come from one traced set-up.
A name ending in `_self_s` is self time (the span minus its child spans);
any other `_s` is inclusive span time. `run_layer` times and MACs and the
modeled counts (cycles, buffer traffic, working sets) are taken at
`datapath.run_layer` / `datapath.check_layer_capacity` inside the op's
simulation call only, so cross-checks do not count twice.
`datapath.L<i>.*` describe command i of the simulated program; they stay 0
where the workload has fewer commands, and on layer-sweep, which runs no
program. A layer a workload never calls reads 0.
"""
from __future__ import annotations

MAX_LAYERS = 9   # commands in the SegNet preset, the longest program
CYCLE_PHASES = ("priming", "compute", "drain", "weight")


def _run_layer(tr, args, kwargs, result, ns, self_ns):
    cmd = args[0]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    _, rep = result
    if not tr.inside("bench.simulate"):
        return
    tr.add(f"run_layer_ns.{cmd.op}", ns)
    tr.add(f"run_layer_self_ns.{cmd.op}", self_ns)
    tr.add(f"macs.{cmd.op}", rep.multiplications)
    for phase in CYCLE_PHASES:
        tr.add(f"cycles.{phase}", getattr(rep, f"{phase}_cycles"))
    tr.add("cycles.transfer_extra", rep.total_cycles - sum(
        getattr(rep, f"{p}_cycles") for p in CYCLE_PHASES))
    tr.add("buffer_reads", rep.buffer_reads)
    tr.add("buffer_writes", rep.buffer_writes)
    if tr.inside("controller.execute"):
        i = tr.layer_cursor
        tr.layer_cursor += 1
        tr.add(f"L{i}.ns", ns)
        tr.add(f"L{i}.total_cycles", rep.total_cycles)
        if rep.total_cycles:
            tr.add(f"L{i}.utilization",
                   rep.multiplications / (rep.total_cycles * cfg.multiplier_count))


def _capacity(tr, args, kwargs, result, ns, self_ns):
    if tr.inside("bench.simulate"):
        for key in ("if_bits", "of_bits", "weight_bits"):
            tr.high(key, result[key])


def _array_cycle(tr, args, kwargs, result, ns, self_ns):
    windows, kernels = args[2], args[3]
    tr.add("pe_evals", len(windows) * len(kernels))


def _push(tr, args, kwargs, result, ns, self_ns):
    tr.add("windows_out", len(result))


OBSERVERS = {
    "datapath.run_layer": _run_layer,
    "datapath.check_layer_capacity": _capacity,
    "pearray.PeArray.array_cycle": _array_cycle,
    "linebuffer.LineBuffer.push": _push,
}

# metric -> span whose inclusive time per op it reports
SPAN_SECONDS = {
    "datapath.pool_act_s": ("datapath.pool_act",),
    "datapath.check_layer_capacity_s": ("datapath.check_layer_capacity",),
    "qtensor.requantize_array_s": ("qtensor.requantize_array",),
    "qtensor.check_accum_s": ("qtensor.check_accum",),
    "oracle.conv2d_ref_s": ("oracle.conv2d_ref",),
    "oracle.deconv_naive_s": ("oracle.deconv_naive",),
    "oracle.bn_act_ref_s": ("oracle.bn_act_ref",),
    "oracle.pool_ref_s": ("oracle.maxpool_ref", "oracle.avgpool_ref"),
    "patchdeconv.deconv_full_s": ("patchdeconv.deconv_full",),
    "pearray.array_cycle_s": ("pearray.PeArray.array_cycle",),
    "linebuffer.push_s": ("linebuffer.LineBuffer.push",),
    "perf.latency_scenario_s": ("perf.latency_scenario",),
    "perf.perf_report_s": ("perf.perf_report",),
    "cli.bench_layer_s": ("cli.cmd_bench",),
    "controller.execute_s": ("controller.execute",),
    "controller.reference_composition_s": ("controller.reference_composition",),
    "fileio.write_tensor_s": ("fileio.write_tensor",),
    "fileio.read_tensor_s": ("fileio.read_tensor",),
}
SETUP_SECONDS = {
    "controller.compile_network_s": "controller.compile_network",
    "controller.pack_weights_s": "controller.pack_weights",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for kind in ("conv3x3", "deconv2x"):
        units[f"datapath.run_layer_self_s.{kind}"] = "s"
        units[f"datapath.ns_per_mac.{kind}"] = "ns/MAC"
    units.update({name: "s" for name in SPAN_SECONDS})
    units.update({name: "s" for name in SETUP_SECONDS})
    units["qtensor.requantize_array_calls"] = "count"
    for i in range(MAX_LAYERS):
        units[f"datapath.L{i}.host_ms"] = "ms"
        units[f"datapath.L{i}.total_cycles"] = "cycles"
        units[f"datapath.L{i}.utilization"] = "fraction"
    for phase in CYCLE_PHASES + ("transfer_extra",):
        units[f"datapath.cycles.{phase}"] = "cycles"
    units["datapath.buffer_reads"] = "count"
    units["datapath.buffer_writes"] = "count"
    for buf in ("if", "of", "weight"):
        units[f"datapath.{buf}_bits_max"] = "bits"
    units["patchdeconv.mult_ratio"] = "ratio"
    units["pearray.array_cycle_calls"] = "count"
    units["pearray.us_per_pe_eval"] = "us"
    units["linebuffer.push_calls"] = "count"
    units["linebuffer.windows_out"] = "count"
    units["linebuffer.window_yield"] = "ratio"
    units["perf.analytic_mismatches"] = "count"
    units["trace.overhead_frac"] = "fraction"
    return units


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tr, ops: int, setup_stats: dict, op_counts: dict,
                      overhead_frac: float) -> dict:
    """Figures from `ops` traced ops; setup_stats holds one traced set-up."""
    stat = tr.stats
    tot = tr.totals

    def calls(span):
        return stat.get(span, (0, 0, 0))[0] / ops

    def seconds(*spans):
        return sum(stat.get(s, (0, 0, 0))[1] for s in spans) / ops / 1e9

    m = {}
    for kind in ("conv3x3", "deconv2x"):
        m[f"datapath.run_layer_self_s.{kind}"] = (
            tot.get(f"run_layer_self_ns.{kind}", 0) / ops / 1e9)
        m[f"datapath.ns_per_mac.{kind}"] = _ratio(tot.get(f"run_layer_ns.{kind}", 0),
                                                  tot.get(f"macs.{kind}", 0))
    for name, spans in SPAN_SECONDS.items():
        m[name] = seconds(*spans)
    for name, span in SETUP_SECONDS.items():
        m[name] = setup_stats.get(span, (0, 0, 0))[1] / 1e9
    m["qtensor.requantize_array_calls"] = calls("qtensor.requantize_array")
    for i in range(MAX_LAYERS):
        m[f"datapath.L{i}.host_ms"] = tot.get(f"L{i}.ns", 0) / ops / 1e6
        m[f"datapath.L{i}.total_cycles"] = tot.get(f"L{i}.total_cycles", 0) / ops
        m[f"datapath.L{i}.utilization"] = tot.get(f"L{i}.utilization", 0) / ops
    for phase in CYCLE_PHASES + ("transfer_extra",):
        m[f"datapath.cycles.{phase}"] = tot.get(f"cycles.{phase}", 0) / ops
    m["datapath.buffer_reads"] = tot.get("buffer_reads", 0) / ops
    m["datapath.buffer_writes"] = tot.get("buffer_writes", 0) / ops
    for buf in ("if", "of", "weight"):
        m[f"datapath.{buf}_bits_max"] = tr.maxima.get(f"{buf}_bits", 0)
    m["patchdeconv.mult_ratio"] = _ratio(op_counts.get("dense_mults", 0),
                                         op_counts.get("patch_mults", 0))
    m["pearray.array_cycle_calls"] = calls("pearray.PeArray.array_cycle")
    m["pearray.us_per_pe_eval"] = _ratio(
        stat.get("pearray.PeArray.array_cycle", (0, 0, 0))[1] / 1e3,
        tot.get("pe_evals", 0))
    m["linebuffer.push_calls"] = calls("linebuffer.LineBuffer.push")
    m["linebuffer.windows_out"] = tot.get("windows_out", 0) / ops
    m["linebuffer.window_yield"] = _ratio(
        tot.get("windows_out", 0), stat.get("linebuffer.LineBuffer.push", (0,))[0])
    m["perf.analytic_mismatches"] = op_counts.get("analytic_mismatches", 0)
    m["trace.overhead_frac"] = overhead_frac
    return m


def self_time_table(tr, ops: int) -> str:
    """Every span name: calls, inclusive and self time per op, share of self."""
    rows = sorted(tr.stats.items(), key=lambda kv: -kv[1][2])
    total_self = sum(s[2] for _, s in rows) or 1
    lines = [f"{'span':<44} {'calls/op':>10} {'incl ms/op':>11} "
             f"{'self ms/op':>11} {'self %':>7}"]
    for name, (n, incl, own) in rows:
        lines.append(f"{name:<44} {n / ops:>10.1f} {incl / ops / 1e6:>11.3f} "
                     f"{own / ops / 1e6:>11.3f} {100 * own / total_self:>6.1f}%")
    return "\n".join(lines)
