"""Throughput arithmetic, closed-form cycle mirrors, the latency scenario."""
import json

import numpy as np
import pytest

from ucda.datapath import CycleReport, layer_command, layer_report, run_layer
from ucda.linebuffer import PaddingMode
from ucda.pearray import HwConfig
from ucda.perf import (
    LatencyScenario,
    conv_cycles_analytic,
    deconv_cycles_analytic,
    effective_gops,
    latency_scenario,
    peak_gops,
    perf_report,
    utilization,
)
from ucda.qtensor import QTensor, identity_kernel_set

CFG = HwConfig()


class TestPeak:
    def test_default_dsp_count(self):
        assert CFG.multiplier_count == 576

    def test_default_peak(self):
        # 2 ops per multiplier per cycle at 220 MHz
        assert peak_gops(CFG) == pytest.approx(253.44, abs=1e-9)

    def test_small_array(self):
        assert HwConfig(tn=4, tm=4).multiplier_count == 144

    def test_scales_with_arrays(self):
        assert HwConfig(arrays=4).multiplier_count == 2304
        assert peak_gops(HwConfig(arrays=2)) == pytest.approx(506.88)

    def test_linear_in_clock(self):
        assert peak_gops(HwConfig(clock_hz=110_000_000)) == pytest.approx(
            peak_gops(CFG) / 2)


class TestEffective:
    def _report(self, mults, cycles):
        return CycleReport(compute_cycles=cycles, total_cycles=cycles,
                           multiplications=mults)

    def test_full_utilization_hits_peak(self):
        # every cycle keeps all multipliers busy
        rep = self._report(576 * 1000, 1000)
        assert effective_gops(rep, CFG) == pytest.approx(peak_gops(CFG))
        assert utilization(rep, CFG) == pytest.approx(1.0)

    def test_half_idle_halves_throughput(self):
        busy = self._report(576 * 1000, 1000)
        padded = CycleReport(compute_cycles=1000, total_cycles=2000,
                             multiplications=576 * 1000)
        assert effective_gops(padded, CFG) == pytest.approx(
            effective_gops(busy, CFG) / 2)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            effective_gops(CycleReport(), CFG)


class TestAnalyticMirrors:
    """The closed forms must agree with the simulated cycle reports."""

    def _run(self, op, shape, cout, mode, pool="none"):
        cmd = layer_command(op, shape, cout, mode, CFG, pool=pool)
        rotated = op == "deconv2x"
        _, rep = run_layer(
            cmd, QTensor(np.zeros(shape, np.int8), -7),
            identity_kernel_set(shape[2], cout, rotated=rotated), CFG, engine="cells")
        return rep

    @pytest.mark.parametrize("h, w, cin, cout, mode_name, pool", [
        (90, 120, 8, 8, "TBLR", "max"),
        (12, 17, 3, 5, "TL", "none"),
        (9, 9, 16, 8, "", "none"),
        (16, 16, 64, 32, "TBLR", "none"),
        (9, 8, 8, 8, "BLR", "max"),
    ])
    def test_conv(self, h, w, cin, cout, mode_name, pool):
        mode = PaddingMode.of(mode_name)
        want = conv_cycles_analytic(h, w, cin, cout, mode, CFG, pool=pool)
        rep = self._run("conv3x3", (h, w, cin), cout, mode, pool=pool)
        assert rep.priming_cycles == want["priming"]
        assert rep.compute_cycles == want["compute"]
        assert rep.drain_cycles == want["drain"]
        assert rep.weight_cycles == want["weight"]
        assert rep.total_cycles == want["total"]

    @pytest.mark.parametrize("h, w, cin, cout", [
        (45, 60, 8, 8),
        (5, 7, 4, 12),
        (10, 10, 32, 8),
    ])
    def test_deconv(self, h, w, cin, cout):
        mode = PaddingMode.of("TL")
        want = deconv_cycles_analytic(h, w, cin, cout, mode, CFG)
        rep = self._run("deconv2x", (h, w, cin), cout, mode)
        assert rep.priming_cycles == want["priming"]
        assert rep.compute_cycles == want["compute"]
        assert rep.total_cycles == want["total"]

    @pytest.mark.parametrize("arrays", [1, 2, 4])
    @pytest.mark.parametrize("cout", [8, 64])
    def test_arrays_split_the_output_passes(self, arrays, cout):
        cfg = HwConfig(arrays=arrays)
        mode = PaddingMode.all_edges()
        rep = layer_report(
            layer_command("conv3x3", (12, 16, 16), cout, mode, cfg), cfg)
        want = conv_cycles_analytic(12, 16, 16, cout, mode, cfg)
        assert (rep.compute_cycles, rep.total_cycles) == (
            want["compute"], want["total"])
        # input passes x output passes per array x windows
        assert rep.compute_cycles == 2 * -(-cout // (8 * arrays)) * 12 * 16
        mode = PaddingMode.of("TL")
        rep = layer_report(
            layer_command("deconv2x", (6, 8, 16), cout, mode, cfg), cfg)
        want = deconv_cycles_analytic(6, 8, 16, cout, mode, cfg)
        assert (rep.compute_cycles, rep.total_cycles) == (
            want["compute"], want["total"])

    def test_narrow_bus_shows_transfer_overhead(self):
        cfg = HwConfig(stream_bits=8)
        mode = PaddingMode.all_edges()
        cmd = layer_command("conv3x3", (16, 16, 8), 8, mode, cfg)
        _, rep = run_layer(cmd, QTensor(np.zeros((16, 16, 8), np.int8), -7),
                           identity_kernel_set(8, 8), cfg)
        want = conv_cycles_analytic(16, 16, 8, 8, mode, cfg)
        assert want["transfer_extra"] > 0
        assert rep.total_cycles == want["total"]


class TestLatencyScenario:
    def test_compute_parity(self):
        sc = latency_scenario()
        assert sc.compute_match
        assert sc.conv.compute_cycles == sc.deconv.compute_cycles == 10800

    def test_priming_delta(self):
        sc = latency_scenario()
        assert sc.priming_delta_cycles == 184
        assert 0.3e-6 < sc.priming_delta_seconds < 0.9e-6

    def test_total_savings_band(self):
        frac = latency_scenario().total_savings_fraction
        assert 0.02 < frac < 0.05

    def test_faster_clock_shrinks_seconds_not_cycles(self):
        fast = latency_scenario(HwConfig(clock_hz=440_000_000))
        base = latency_scenario()
        assert fast.priming_delta_cycles == base.priming_delta_cycles
        assert fast.priming_delta_seconds == pytest.approx(
            base.priming_delta_seconds / 2)

    def test_total_cycles(self):
        sc = latency_scenario()
        assert sc.conv.total_cycles == 11248
        assert sc.deconv.total_cycles == 10942


class TestPerfReport:
    def _sample(self):
        from ucda.controller import (LayerSpec, NetDescription,
                                     compile_network, execute, pack_weights)

        net = NetDescription((8, 8, 2), -7,
                             [LayerSpec("conv3x3", 4, activation="relu"),
                              LayerSpec("deconv2x", 2, scale_exp=-6)])
        rng = np.random.default_rng(40)
        weights = [rng.normal(0, 0.2, (4, 2, 3, 3)),
                   rng.normal(0, 0.2, (2, 4, 3, 3))]
        _, sets = pack_weights(net, weights)
        p = compile_network(net, CFG)
        x = QTensor(rng.integers(-128, 128, (8, 8, 2)).astype(np.int8), -7)
        trace = []
        _, agg = execute(p, sets, x, trace=trace)
        return agg, trace

    def test_totals_and_rows(self):
        agg, trace = self._sample()
        rep = perf_report(agg, CFG, trace)
        assert rep.total_cycles == agg.total_cycles
        assert rep.dsp_equiv == 576
        assert len(rep.layers) == 2
        assert [r["op"] for r in rep.layers] == ["conv3x3", "deconv2x"]
        assert rep.layers[1]["start_cycle"] == rep.layers[0]["end_cycle"]
        assert sum(r["total_cycles"] for r in rep.layers) == rep.total_cycles

    def test_json_key_order_is_stable(self):
        agg, trace = self._sample()
        rep_json = perf_report(agg, CFG, trace).to_json()
        keys = list(json.loads(rep_json).keys())
        assert keys == ["clock_hz", "dsp_equiv", "peak_gops",
                        "bandwidth_bits_per_cycle", "total_cycles",
                        "runtime_seconds", "multiplications", "additions",
                        "effective_gops", "utilization", "layers"]
        assert rep_json == perf_report(agg, CFG, trace).to_json()
        assert list(json.loads(rep_json)["layers"][0].keys()) == [
            "index", "op", "out_shape", "priming_cycles", "compute_cycles",
            "drain_cycles", "weight_cycles", "transfer_cycles", "total_cycles",
            "utilization", "start_cycle", "end_cycle"]

    def test_table_renders_every_layer(self):
        agg, trace = self._sample()
        text = perf_report(agg, CFG, trace).to_table()
        assert "peak             253.44 GOPS" in text
        assert "conv3x3" in text and "deconv2x" in text
