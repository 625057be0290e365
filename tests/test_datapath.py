"""Layer pipeline: bit-exactness against oracles and the cycle model."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucda import pearray
from ucda.datapath import (
    CapacityError,
    CycleReport,
    ShapeMismatch,
    check_layer_capacity,
    compute_out_shape,
    layer_command,
    pool_act,
    run_layer,
)
from ucda.linebuffer import PaddingMode, all_padding_modes
from ucda.oracle import bn_act_ref, conv2d_ref, deconv_naive, maxpool_ref
from ucda.patchdeconv import deconv_full
from ucda.pearray import HwConfig, accumulate_map, place_slots
from ucda.qtensor import (
    ACC_MAX,
    AccumulatorOverflow,
    KernelSet,
    QTensor,
    identity_kernel_set,
)

import reference_impls as ref

CFG = HwConfig()


def _rand_ks(rng, cin, cout, rotated=False):
    return KernelSet(
        weights=rng.integers(-128, 128, (cout, cin, 3, 3)).astype(np.int8),
        bias=rng.integers(-4000, 4000, cout).astype(np.int32),
        bn_multiplier=rng.integers(8192, 32767, cout).astype(np.int16),
        bn_shift=rng.integers(8, 14, cout).astype(np.uint8),
        scale_exp=-7, rotated=rotated)


def QTensorInt8(rng, h, w, c, scale=-7):
    return QTensor(rng.integers(-128, 128, (h, w, c)).astype(np.int8), scale)


def _conv_ref(x, ks, mode, act="none", pool="none", out_scale=-7):
    acc = conv2d_ref(x, ks, mode)
    out = bn_act_ref(acc, ks.bn_multiplier, ks.bn_shift, act=act,
                     out_scale_exp=out_scale)
    if pool == "max":
        out = maxpool_ref(out)
    return out


class TestShapes:
    def test_conv_same(self):
        assert compute_out_shape("conv3x3", (10, 12, 3),
                                 PaddingMode.all_edges(), 7) == (10, 12, 7)

    def test_conv_valid(self):
        assert compute_out_shape("conv3x3", (10, 12, 3),
                                 PaddingMode.none(), 7) == (8, 10, 7)

    def test_deconv_doubles(self):
        assert compute_out_shape("deconv2x", (5, 6, 4),
                                 PaddingMode.of("TL"), 9) == (10, 12, 9)

    def test_pool_halves(self):
        assert compute_out_shape("maxpool", (10, 12, 3),
                                 PaddingMode.none(), 3) == (5, 6, 3)

    def test_attached_pool(self):
        assert compute_out_shape("conv3x3", (10, 12, 3),
                                 PaddingMode.all_edges(), 7,
                                 pool="max") == (5, 6, 7)


class TestCycleModel:
    def test_conv_90x120_compute(self):
        cmd = layer_command("conv3x3", (90, 120, 8), 8,
                            PaddingMode.all_edges(), CFG)
        _, rep = run_layer(cmd, QTensor(np.zeros((90, 120, 8), np.int8), -7),
                           identity_kernel_set(8, 8), CFG)
        assert rep.compute_cycles == 10800
        assert rep.priming_cycles == 2 * 122 + 3

    def test_deconv_45x60_compute_parity(self):
        cmd = layer_command("deconv2x", (45, 60, 8), 8,
                            PaddingMode.of("TL"), CFG)
        _, rep = run_layer(cmd, QTensor(np.zeros((45, 60, 8), np.int8), -7),
                           identity_kernel_set(8, 8, rotated=True), CFG)
        assert rep.compute_cycles == 2700 * 4 == 10800
        assert rep.priming_cycles == 61 + 2

    def test_1x1_conv_full_padding(self):
        cmd = layer_command("conv3x3", (1, 1, 1), 1,
                            PaddingMode.all_edges(), CFG)
        out, rep = run_layer(cmd, QTensor(np.full((1, 1, 1), 3, np.int8), -7),
                             identity_kernel_set(1, 1), CFG)
        assert out.shape == (1, 1, 1)
        assert rep.compute_cycles == 1

    def test_depth_tiling_multiplies_passes(self):
        cmd = layer_command("conv3x3", (6, 6, 64), 8,
                            PaddingMode.all_edges(), CFG)
        assert cmd.tile_depth == 8
        rng = np.random.default_rng(0)
        _, rep = run_layer(cmd, QTensorInt8(rng, 6, 6, 64),
                           _rand_ks(rng, 64, 8), CFG)
        assert rep.compute_cycles == 8 * 1 * 36

    def test_transfer_independence_when_hidden(self):
        """Totals must not move with stream width while transfers hide."""
        rng = np.random.default_rng(1)
        x = QTensorInt8(rng, 16, 16, 8)
        ks = _rand_ks(rng, 8, 8)
        totals = []
        for bits in (64, 128):
            cfg = HwConfig(stream_bits=bits)
            cmd = layer_command("conv3x3", (16, 16, 8), 8,
                                PaddingMode.all_edges(), cfg)
            _, rep = run_layer(cmd, x, ks, cfg)
            assert rep.transfer_cycles <= 2 * rep.compute_cycles
            totals.append(rep.total_cycles - rep.weight_cycles)
        assert totals[0] == totals[1]

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x = QTensorInt8(rng, 9, 11, 4)
        ks = _rand_ks(rng, 4, 6)
        cmd = layer_command("conv3x3", (9, 11, 4), 6,
                            PaddingMode.of("BLR"), CFG)
        out1, rep1 = run_layer(cmd, x, ks, CFG)
        out2, rep2 = run_layer(cmd, x, ks, CFG)
        assert np.array_equal(out1.data, out2.data)
        assert rep1 == rep2


class TestBitExactness:
    @pytest.mark.parametrize("mode", all_padding_modes(),
                             ids=lambda m: m.short_name() or "none")
    def test_conv_all_modes(self, mode):
        rng = np.random.default_rng(hash(mode.short_name()) % 2 ** 31)
        h, w = 7, 9
        ph = h + mode.pad_top + mode.pad_bottom
        pw = w + mode.pad_left + mode.pad_right
        x = QTensorInt8(rng, h, w, 5)
        ks = _rand_ks(rng, 5, 3)
        cmd = layer_command("conv3x3", (h, w, 5), 3, mode, CFG)
        out, _ = run_layer(cmd, x, ks, CFG)
        assert out.shape == (ph - 2, pw - 2, 3)
        want = _conv_ref(x, ks, mode)
        assert np.array_equal(out.data, want.data)

    def test_deconv_vs_naive(self):
        rng = np.random.default_rng(3)
        x = QTensorInt8(rng, 6, 5, 4)
        ks = _rand_ks(rng, 4, 7, rotated=True)
        cmd = layer_command("deconv2x", (6, 5, 4), 7, PaddingMode.of("TL"), CFG)
        out, _ = run_layer(cmd, x, ks, CFG)
        acc = deconv_naive(x, ks, exact_double=True)
        want = bn_act_ref(acc, ks.bn_multiplier, ks.bn_shift, out_scale_exp=-7)
        assert np.array_equal(out.data, want.data)

    def test_engines_agree(self):
        rng = np.random.default_rng(4)
        for op, rotated, mode in (("conv3x3", False, PaddingMode.all_edges()),
                                  ("deconv2x", True, PaddingMode.of("TL"))):
            x = QTensorInt8(rng, 6, 7, 12)
            ks = _rand_ks(rng, 12, 5, rotated=rotated)
            cmd = layer_command(op, (6, 7, 12), 5, mode, CFG,
                                activation="relu", out_scale_exp=-6)
            fast, rep_f = run_layer(cmd, x, ks, CFG, engine="fast")
            cells, rep_c = run_layer(cmd, x, ks, CFG, engine="cells")
            assert np.array_equal(fast.data, cells.data)
            assert rep_f.total_cycles == rep_c.total_cycles

    @pytest.mark.parametrize("op", ["conv3x3", "deconv2x"])
    @pytest.mark.parametrize("mode", all_padding_modes(), ids=lambda m: m.short_name())
    def test_engines_agree_every_padding_mode(self, op, mode):
        """cin = cout = 9 at Tn = Tm = 8: one partial Tn tile and one partial Tm tile."""
        rng = np.random.default_rng(5)
        x = QTensorInt8(rng, 4, 5, 9)
        ks = _rand_ks(rng, 9, 9, rotated=op == "deconv2x")
        cmd = layer_command(op, (4, 5, 9), 9, mode, CFG, activation="leaky",
                            out_scale_exp=-6)
        fast, rep_f = run_layer(cmd, x, ks, CFG, engine="fast")
        cells, rep_c = run_layer(cmd, x, ks, CFG, engine="cells")
        assert np.array_equal(fast.data, cells.data)
        assert rep_f == rep_c

    @given(st.sampled_from(["conv3x3", "deconv2x"]), st.integers(1, 7),
           st.integers(1, 7), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from(all_padding_modes()), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([1, 2, 4, 8]), st.sampled_from(["none", "relu", "leaky"]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_engines_agree_property(self, op, h, w, cin, cout, mode, tn, tm,
                                    act, seed):
        k = 3 if op == "conv3x3" else 2
        assume(h + mode.pad_top + mode.pad_bottom >= k
               and w + mode.pad_left + mode.pad_right >= k)
        cfg = HwConfig(tn=tn, tm=tm)
        rng = np.random.default_rng(seed)
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout, rotated=op == "deconv2x")
        cmd = layer_command(op, (h, w, cin), cout, mode, cfg, activation=act,
                            out_scale_exp=-6)
        fast, rep_f = run_layer(cmd, x, ks, cfg, engine="fast")
        cells, rep_c = run_layer(cmd, x, ks, cfg, engine="cells")
        assert np.array_equal(fast.data, cells.data)
        assert rep_f == rep_c

    @given(st.integers(3, 10), st.integers(3, 10), st.integers(1, 12),
           st.integers(1, 12), st.sampled_from(all_padding_modes()),
           st.sampled_from(["none", "relu", "leaky"]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conv_property(self, h, w, cin, cout, mode, act, seed):
        rng = np.random.default_rng(seed)
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout)
        cmd = layer_command("conv3x3", (h, w, cin), cout, mode, CFG,
                            activation=act, out_scale_exp=-6)
        out, _ = run_layer(cmd, x, ks, CFG)
        want = _conv_ref(x, ks, mode, act=act, out_scale=-6)
        assert np.array_equal(out.data, want.data)


class TestTiledPaddingModes:
    """Splitting a map into tiles with per-position padding modes must
    reproduce the untiled SAME convolution when tile outputs concatenate.
    Interior tile edges carry one-pixel halos instead of zero padding."""

    def _run_tile(self, x, ks, rows, cols, mode):
        h = rows[1] - rows[0]
        w = cols[1] - cols[0]
        cmd = layer_command("conv3x3", (h, w, x.channels), ks.out_channels,
                            mode, CFG)
        out, _ = run_layer(cmd, QTensor(
            x.data[rows[0]:rows[1], cols[0]:cols[1]].copy(), x.scale_exp),
            ks, CFG)
        return out.data

    def _edges(self, lo_pad, hi_pad, names):
        out = []
        if lo_pad:
            out.append(names[0])
        if hi_pad:
            out.append(names[1])
        return out

    def test_3x3_grid_covers_nine_modes(self):
        rng = np.random.default_rng(5)
        x = QTensorInt8(rng, 12, 15, 3)
        ks = _rand_ks(rng, 3, 4)
        full_cmd = layer_command("conv3x3", (12, 15, 3), 4,
                                 PaddingMode.all_edges(), CFG)
        full, _ = run_layer(full_cmd, x, ks, CFG)

        row_cuts = [0, 4, 8, 12]
        col_cuts = [0, 5, 10, 15]
        got = np.zeros_like(full.data)
        for i in range(3):
            for j in range(3):
                r_lo, r_hi = row_cuts[i], row_cuts[i + 1]
                c_lo, c_hi = col_cuts[j], col_cuts[j + 1]
                edges = (self._edges(i == 0, i == 2, ("top", "bottom"))
                         + self._edges(j == 0, j == 2, ("left", "right")))
                mode = PaddingMode(frozenset(edges))
                # extend into neighbours where no zero padding applies
                rows = (r_lo - (0 if i == 0 else 1), r_hi + (0 if i == 2 else 1))
                cols = (c_lo - (0 if j == 0 else 1), c_hi + (0 if j == 2 else 1))
                tile = self._run_tile(x, ks, rows, cols, mode)
                got[r_lo:r_hi, c_lo:c_hi] = tile
        assert np.array_equal(got, full.data)

    def test_row_bands_cover_full_span_modes(self):
        rng = np.random.default_rng(6)
        x = QTensorInt8(rng, 12, 9, 2)
        ks = _rand_ks(rng, 2, 3)
        full_cmd = layer_command("conv3x3", (12, 9, 2), 3,
                                 PaddingMode.all_edges(), CFG)
        full, _ = run_layer(full_cmd, x, ks, CFG)

        bands = [(0, 4, "TLR"), (4, 8, "LR"), (8, 12, "BLR")]
        got = np.zeros_like(full.data)
        for r_lo, r_hi, name in bands:
            rows = (r_lo - (0 if r_lo == 0 else 1),
                    r_hi + (0 if r_hi == 12 else 1))
            tile = self._run_tile(x, ks, rows, (0, 9), PaddingMode.of(name))
            got[r_lo:r_hi] = tile
        assert np.array_equal(got, full.data)


class TestPoolAct:
    def test_bypass_identity(self):
        rng = np.random.default_rng(7)
        data = rng.integers(-128, 128, (4, 4, 2)).astype(np.int8)
        assert np.array_equal(pool_act(data), data)

    def test_relu_maxpool_example(self):
        data = np.array([[[-1], [2]], [[3], [-4]]], np.int8)
        out = pool_act(data, pool="max", act="relu")
        assert out[0, 0, 0] == 3

    @pytest.mark.parametrize("act", ["none", "relu", "leaky"])
    @pytest.mark.parametrize("pool", ["none", "max", "avg"])
    @pytest.mark.parametrize("leaky_shift", [0, 1, 3, 7])
    def test_matches_loop_reference(self, act, pool, leaky_shift):
        # every odd negative and every residue mod 2**shift occurs
        data = np.arange(-128, 128, dtype=np.int8)[::-1].reshape(8, 8, 4)
        want = ref.activation_loops(data, act, leaky_shift)
        if pool == "max":
            want = ref.maxpool_loops(want)
        elif pool == "avg":
            want = ref.avgpool_loops(want)
        got = pool_act(data, pool=pool, act=act, leaky_shift=leaky_shift)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)

    def test_odd_dims_with_pool_rejected(self):
        with pytest.raises(ShapeMismatch):
            pool_act(np.zeros((3, 4, 1), np.int8), pool="max")

    def test_attached_pool_adds_drain(self):
        cmd = layer_command("conv3x3", (8, 10, 4), 4,
                            PaddingMode.all_edges(), CFG, pool="max")
        rng = np.random.default_rng(8)
        out, rep = run_layer(cmd, QTensorInt8(rng, 8, 10, 4),
                             _rand_ks(rng, 4, 4), CFG)
        assert out.shape == (4, 5, 4)
        assert rep.drain_cycles == 10 + 2

    def test_avgpool_layer_matches_oracle(self):
        from ucda.oracle import avgpool_ref

        rng = np.random.default_rng(9)
        x = QTensorInt8(rng, 6, 8, 3)
        cmd = layer_command("avgpool", (6, 8, 3), 3, PaddingMode.none(), CFG)
        out, rep = run_layer(cmd, x, None, CFG)
        assert np.array_equal(out.data, avgpool_ref(x).data)
        assert out.scale_exp == x.scale_exp
        assert rep.multiplications == 0


class TestCapacity:
    def test_unbounded_by_default(self):
        cmd = layer_command("conv3x3", (360, 480, 64), 64,
                            PaddingMode.all_edges(), CFG)
        need = check_layer_capacity(cmd, CFG)
        assert need["if_bits"] == 362 * 482 * 8 * 8

    def test_finite_capacity_enforced(self):
        cfg = HwConfig(if_capacity_bits=1000)
        cmd = layer_command("conv3x3", (16, 16, 8), 8,
                            PaddingMode.all_edges(), cfg)
        with pytest.raises(CapacityError):
            check_layer_capacity(cmd, cfg)

    def test_weight_capacity(self):
        cfg = HwConfig(weight_capacity_bits=100)
        cmd = layer_command("conv3x3", (6, 6, 4), 4,
                            PaddingMode.all_edges(), cfg)
        with pytest.raises(CapacityError):
            check_layer_capacity(cfg=cfg, cmd=cmd)


class TestValidation:
    def test_shape_mismatch(self):
        cmd = layer_command("conv3x3", (6, 6, 4), 4,
                            PaddingMode.all_edges(), CFG)
        rng = np.random.default_rng(10)
        with pytest.raises(ShapeMismatch):
            run_layer(cmd, QTensorInt8(rng, 6, 7, 4), _rand_ks(rng, 4, 4), CFG)

    def test_deconv_requires_rotated(self):
        cmd = layer_command("deconv2x", (4, 4, 2), 2, PaddingMode.of("TL"), CFG)
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            run_layer(cmd, QTensorInt8(rng, 4, 4, 2),
                      _rand_ks(rng, 2, 2, rotated=False), CFG)

    def test_report_merge(self):
        a = CycleReport(priming_cycles=5, compute_cycles=10, total_cycles=15,
                        multiplications=90)
        b = CycleReport(priming_cycles=2, compute_cycles=20, total_cycles=22,
                        multiplications=180)
        a.merge(b)
        assert a.total_cycles == 37 and a.multiplications == 270


class TestAccumulatorProof:
    """The fast engine at the edges of its proof, b = 128 * max_co sum|w[co]|.

    All -128 inputs and weights give b = 147456 * cin: cin 113 keeps
    b <= 2**24 (float32 GEMM), 114 does not (float64 GEMM), and 14565
    exceeds ACC_MAX (tiled path, range-checked after every Tn tile). Each
    case runs run_layer on a 3x3 map and compares with the oracle chain,
    accumulators included.
    """

    OPS = {"conv3x3": PaddingMode.all_edges(), "deconv2x": PaddingMode.of("TL")}

    @staticmethod
    def _bound(w):
        return 128 * int(np.abs(w.astype(np.int64)).reshape(len(w), -1).sum(1).max())

    def _case(self, op, w, x_value=-128, bias=0):
        cout, cin = w.shape[:2]
        x = QTensor(np.full((3, 3, cin), x_value, dtype=np.int8), -7)
        ks = KernelSet(weights=w.astype(np.int8), bias=np.full(cout, bias, np.int32),
                       bn_multiplier=np.array([32767, -21845][:cout], np.int16),
                       bn_shift=np.zeros(cout, np.uint8), scale_exp=-7,
                       rotated=op == "deconv2x")
        return layer_command(op, x.shape, cout, self.OPS[op], CFG), x, ks

    def _oracle_acc(self, op, x, ks):
        if op == "conv3x3":
            return conv2d_ref(x, ks, self.OPS[op])
        return deconv_naive(x, ks, exact_double=True)

    def _assert_equals_oracle(self, op, w, x_value=-128):
        cmd, x, ks = self._case(op, w, x_value)
        want = self._oracle_acc(op, x, ks).astype(np.int64)
        padded = np.pad(x.data, ((cmd.padding.pad_top, cmd.padding.pad_bottom),
                                 (cmd.padding.pad_left, cmd.padding.pad_right), (0, 0)))
        got = place_slots(accumulate_map(cmd.pe_mode, padded, ks.weights, cmd.tile_depth))
        assert np.array_equal(got + ks.bias, want)
        # a shift per case keeps the largest accumulator inside q8
        shift = np.full(2, max(0, int(np.abs(want).max()).bit_length() - 7), np.uint8)
        ks = replace(ks, bn_shift=shift)
        out, _ = run_layer(cmd, x, ks, CFG)
        assert np.array_equal(out.data, bn_act_ref(want, ks.bn_multiplier, shift).data)
        assert np.abs(out.data).max() > 0

    @pytest.mark.parametrize("op", list(OPS))
    @pytest.mark.parametrize("cin, gemm", [(113, "float32"), (114, "float64")])
    def test_proven_bound_is_exact(self, op, cin, gemm):
        w = np.full((2, cin, 3, 3), -128)
        assert (self._bound(w) <= 1 << 24) == (gemm == "float32")
        self._assert_equals_oracle(op, w)

    @pytest.mark.parametrize("op", list(OPS))
    def test_float64_gemm_where_float32_would_round(self, op):
        # partial sums far past 2**24 with mixed products: float32 would round
        w = np.full((2, 2000, 3, 3), 127) - (np.arange(2000) % 3)[:, None, None]
        assert (1 << 24) < self._bound(w) <= ACC_MAX
        self._assert_equals_oracle(op, w, x_value=127)

    @pytest.mark.parametrize("op", list(OPS))
    def test_failed_proof_without_overflow(self, op):
        # alternating -128/127 along cin; at cin 14565 this pattern still
        # proves (b = 2,139,307,776), at 14621 it does not
        w = np.full((2, 14621, 3, 3), -128)
        w[:, 1::2] = 127
        assert self._bound(w) > ACC_MAX
        self._assert_equals_oracle(op, w)

    @pytest.mark.parametrize("op, cin", [("conv3x3", 14565), ("deconv2x", 32768)])
    def test_failed_proof_with_overflow(self, op, cin):
        # deconv slots sum at most 4 taps: 4 * 16384 * 32768 = 2**31
        cmd, x, ks = self._case(op, np.full((1, cin, 3, 3), -128))
        assert self._bound(ks.weights) > ACC_MAX
        with pytest.raises(AccumulatorOverflow):
            self._oracle_acc(op, x, ks)
        with pytest.raises(AccumulatorOverflow):
            run_layer(cmd, x, ks, CFG)

    def test_partial_sum_overflow_is_caught(self):
        # 1821 tiles of -128 overflow, the next tile of 127 brings the final
        # sum back into range: only the per-tile check can see it
        w = np.full((1, 14576, 3, 3), -128)
        w[:, 14568:] = 127
        cmd, x, ks = self._case("conv3x3", w)
        assert int(conv2d_ref(x, ks, self.OPS["conv3x3"]).max()) <= ACC_MAX
        with pytest.raises(AccumulatorOverflow):
            run_layer(cmd, x, ks, CFG)

    @pytest.mark.parametrize("op", list(OPS))
    def test_bias_overflow_is_caught_by_requant(self, op):
        cmd, x, ks = self._case(op, np.full((1, 1, 3, 3), -128), bias=ACC_MAX)
        assert self._bound(ks.weights) <= 1 << 24
        with pytest.raises(AccumulatorOverflow):
            run_layer(cmd, x, ks, CFG)

    @pytest.mark.parametrize("op", list(OPS))
    def test_one_row_bands_match(self, op, monkeypatch):
        rng = np.random.default_rng(12)
        x = QTensorInt8(rng, 7, 6, 5)
        ks = _rand_ks(rng, 5, 4, rotated=op == "deconv2x")
        cmd = layer_command(op, x.shape, 4, self.OPS[op], CFG, activation="relu")
        whole, _ = run_layer(cmd, x, ks, CFG)
        monkeypatch.setattr(pearray, "BAND_BYTES", 1)
        banded, _ = run_layer(cmd, x, ks, CFG)
        cells, _ = run_layer(cmd, x, ks, CFG, engine="cells")
        assert np.array_equal(banded.data, whole.data)
        assert np.array_equal(banded.data, cells.data)

    def test_one_row_bands_deconv_full(self, monkeypatch):
        rng = np.random.default_rng(13)
        x = QTensorInt8(rng, 5, 4, 6)
        ks = _rand_ks(rng, 6, 3, rotated=True)
        monkeypatch.setattr(pearray, "BAND_BYTES", 1)
        assert np.array_equal(deconv_full(x, ks), deconv_naive(x, ks))
