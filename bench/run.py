#!/usr/bin/env python3
"""The ucda benchmark: host time and modeled cycles per op on four workloads.

    python3 bench/run.py --workload segnet-frame --seed 1 --seconds 55 --trace 0

`--workload all` runs every workload in turn in this one process. One
closed-loop client: the next op starts only when the previous op and its
checks have finished. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run (see bench/README.md). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Exit status: 0 when every op was correct, 1 on any mismatch or on modeled
cycles that differ from bench/pins.json, 2 when the run cannot start.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2     # kept back to confirm a claimed gain
# set-ups per run: 5 before measuring and one after every measured round, so
# that they spread over the whole run; setup_s is their median
SETUP_REPS = 5
# One BLAS thread: a steady single-core simulator figure on a shared machine.
BLAS_THREADS = 1
# str hashes, and with them the layout of every dict and set, are random per
# process; on pure-Python paths that alone moves set-up time by up to 2x
# between processes. The run re-executes itself once with this fixed seed.
HASH_SEED = "0"
WORKLOAD_ORDER = ("layer-sweep", "cells-engine", "decoder-upsample", "segnet-frame")

E2E_UNITS = {
    "setup_s": "s",
    "execute_s": "s",
    "verify_s": "s",
    "ops_per_s": "1/s",
    "sim_gmacs_per_s": "GMAC/s",
    "peak_rss_mb": "MiB",
    "modeled_cycles": "cycles",
    "modeled_utilization": "fraction",
}


class Phase:
    """Outcome of one measured loop."""

    def __init__(self):
        self.ok = []            # (op seconds, OpResult) of every correct op
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = {}
        self.round_cycles = None
        self.round_macs = 0
        self.round_multiplier_cycles = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def measure(wl, state, seconds: float, tr, pin: int, op_id: int = 0,
            between_rounds=None) -> Phase:
    """Run whole rounds until the next one would end after `seconds`.

    `between_rounds`, if given, is called after every round, inside the
    time budget but outside every op's times.
    """
    ph = Phase()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycles = macs = mcycles = 0
        failed_before = ph.failed
        for op in wl.round(state):
            tr.begin_op(op_id)
            op_id += 1
            ph.attempted += 1
            t_op = time.perf_counter()
            try:
                r = op(tr)
            except Exception as e:   # an op that raises is a failed op
                ph.fail(f"op {op_id - 1}: {type(e).__name__}: {e}")
                continue
            op_s = time.perf_counter() - t_op
            cycles += r.cycles
            macs += r.macs
            mcycles += r.multiplier_cycles
            for key, value in r.counts.items():
                ph.counts[key] = ph.counts.get(key, 0) + value
            if r.errors:
                ph.fail(f"op {op_id - 1}: " + "; ".join(r.errors[:3]))
            else:
                ph.ok.append((op_s, r))
        if ph.round_cycles is None:
            ph.round_cycles, ph.round_macs, ph.round_multiplier_cycles = cycles, macs, mcycles
        if cycles != pin and ph.failed == failed_before:
            ph.fail(f"modeled cycles {cycles} != pinned {pin}: an unexplained"
                    " change (update bench/pins.json and say why in CHANGES.md)")
        if between_rounds is not None:
            between_rounds()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return ph


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def describe(xs) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    if not xs:
        return "no samples"
    s = sorted(xs)
    text = f"median {statistics.median(s):.6g} (n={len(s)})"
    for q in (0.99, 0.9):
        if len(s) * (1 - q) >= 10:
            text += f", p{round(100 * q)} {s[int(q * len(s))]:.6g}"
            break
    return text + f", min {s[0]:.6g}, max {s[-1]:.6g}"


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def timed_setup(wl, seed: int, times: list):
    """One set-up; appends its seconds to `times` and returns the state."""
    t0 = time.perf_counter()
    state = wl.setup(seed, OUT_DIR)
    times.append(time.perf_counter() - t0)
    return state


def warm_up(wl, state) -> float:
    """The first simulation call, outside the measurement; returns seconds."""
    t0 = time.perf_counter()
    wl.warm_up(state)
    return time.perf_counter() - t0


def mean_execute_s(ph: Phase) -> float:
    return sum(r.execute_s for _, r in ph.ok) / len(ph.ok) if ph.ok else 0.0


def end_to_end(ph: Phase, setup_times) -> dict:
    """Op times are means over the whole run, set-up the median (README)."""
    n = len(ph.ok)
    execute = mean_execute_s(ph)
    return {
        "setup_s": _median(setup_times),
        "execute_s": execute,
        "verify_s": sum(r.verify_s for _, r in ph.ok) / n if n else 0.0,
        "ops_per_s": n / sum(op_s for op_s, _ in ph.ok) if n else 0.0,
        "sim_gmacs_per_s": sum(r.macs for _, r in ph.ok) / (n * execute) / 1e9 if n else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "modeled_cycles": ph.round_cycles or 0,
        "modeled_utilization": (ph.round_macs / ph.round_multiplier_cycles
                                if ph.round_multiplier_cycles else 0.0),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins: dict):
    """Returns (metrics with units, attempted, failed, errors, details)."""
    import layers
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    untraced = tracing.NoTrace()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        state = timed_setup(wl, seed, setup_times)
    first_op_s = warm_up(wl, state)
    details = {"first_op_s": first_op_s}
    if not trace:
        ph = measure(wl, state, seconds, untraced, pins[name],
                     between_rounds=lambda: timed_setup(wl, seed, setup_times))
        values = end_to_end(ph, setup_times)
        units = E2E_UNITS
        phases = [ph]
        details["execute_s"] = describe([r.execute_s for _, r in ph.ok])
        details["verify_s"] = describe([r.verify_s for _, r in ph.ok])
    else:
        base = measure(wl, state, seconds / 2, untraced, pins[name])
        tr = tracing.Tracer()
        restore = tracing.instrument(tr, layers.OBSERVERS)
        try:
            with tr.span("bench.setup"):
                traced_state = wl.setup(seed, OUT_DIR)
            setup_stats, tr.stats = tr.stats, {}
            tr.totals, tr.maxima = {}, {}
            ph = measure(wl, traced_state, seconds / 2, tr, pins[name],
                         op_id=base.attempted)
        finally:
            restore()
        base_exec = mean_execute_s(base)
        traced_exec = mean_execute_s(ph)
        overhead = traced_exec / base_exec - 1 if base_exec else 0.0
        values = layers.per_layer_metrics(tr, max(ph.attempted, 1), setup_stats,
                                          ph.counts, overhead)
        units = layers.metric_units()
        phases = [base, ph]
        path = os.path.join(OUT_DIR, f"trace-{name}-s{seed}.json")
        tr.write_chrome(path, {"workload": name, "seed": seed,
                               "environment": environment(seed)})
        details["trace_file"] = os.path.relpath(path, ROOT)
        details["self_time_table"] = layers.self_time_table(tr, max(ph.attempted, 1))
    details["setup_s"] = describe(setup_times)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return metrics, attempted, failed, errors, details


def print_report(name, metrics, attempted, failed, errors, details) -> None:
    print(f"== {name}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {failed / max(attempted, 1):>16.6g} fraction"
          f"  ({failed} failed of {attempted} ops)")
    for key in ("setup_s", "execute_s", "verify_s"):
        if key in details:
            print(f"  {key} samples: {details[key]}")
    print(f"  first simulation call (warm-up, not in the figures):"
          f" {details['first_op_s']:.4f} s")
    if "self_time_table" in details:
        print(details["self_time_table"])
        print(f"  trace written to {details['trace_file']}")
    for e in errors:
        print(f"  ERROR {e}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_ORDER + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measured time per run (at least one round always runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, SRC_DIR)
    t0 = time.perf_counter()
    try:
        import ucda
    except ImportError as e:
        print(f"cannot import ucda from {SRC_DIR}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(ucda.__file__).startswith(SRC_DIR + os.sep):
        print(f"ucda imported from {ucda.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as f:
        pins = json.load(f)["modeled_cycles"]
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment(args.seed)
    print("environment " + json.dumps(env))
    print(f"import ucda and numpy: {import_s:.4f} s (once per process, not in setup_s)")
    names = WORKLOAD_ORDER if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, errors, details = run_workload(
            name, args.seed, args.seconds, bool(args.trace), pins)
        print_report(name, metrics, attempted, failed, errors, details)
        record = {"workload": name, "trace": args.trace, "seconds": args.seconds,
                  "environment": env, "import_s": import_s,
                  "attempted": attempted, "failed": failed,
                  "error_rate": failed / max(attempted, 1), "errors": errors,
                  "metrics": metrics,
                  "details": {k: v for k, v in details.items() if k != "self_time_table"}}
        with open(os.path.join(OUT_DIR, f"result-{name}-s{args.seed}-t{args.trace}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2)
        total["attempted"] += attempted
        total["failed"] += failed
        total["correct"] = total["correct"] and not failed
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
