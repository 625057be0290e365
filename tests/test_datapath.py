"""Layer pipeline: bit-exactness against oracles and the cycle model."""
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ucda import datapath, pearray, qtensor
from ucda.datapath import (
    ACTIVATIONS,
    PE_MODES,
    POOLS,
    CapacityError,
    CycleReport,
    LayerCommand,
    ShapeMismatch,
    check_layer_capacity,
    UnsupportedOp,
    _compute_cells,
    accumulator_bands,
    compute_out_shape,
    layer_command,
    layer_report,
    pool_act,
    run_layer,
)
from ucda.linebuffer import LineBuffer, PaddingMode, all_padding_modes, window_grid
from ucda.oracle import (
    avgpool_ref,
    bn_act_ref,
    conv2d_ref,
    deconv_naive,
    maxpool_ref,
    zero_pad,
)
from ucda.patchdeconv import deconv_full
from ucda.pearray import HwConfig, PeMode, accumulate_bands
from ucda.qtensor import (
    ACC_MAX,
    ACC_MIN,
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

    @pytest.mark.parametrize("shape", [(-8, 8, 4), (0, 8, 4), (8, 8, 0)])
    def test_input_dims_must_be_positive(self, shape):
        with pytest.raises(ShapeMismatch, match="input dimensions"):
            compute_out_shape("conv3x3", shape, PaddingMode.all_edges(), 4)

    def test_unknown_op_is_named(self):
        with pytest.raises(UnsupportedOp, match="^unknown op 'foo'$"):
            compute_out_shape("foo", (4, 4, 1), PaddingMode.none(), 1)

    @pytest.mark.parametrize("mode", all_padding_modes(),
                             ids=lambda m: m.short_name() or "none")
    @pytest.mark.parametrize("op", ["conv3x3", "deconv2x"])
    def test_frame_without_a_window_has_one_message(self, mode, op):
        """The window grid, the line buffer and the command's shape reject a
        padded frame that holds no KxK window with one text."""
        k = PE_MODES[op].window
        for h in range(1, 4):
            for w in range(1, 4):
                ph, pw = mode.padded(h, w)
                if ph >= k and pw >= k:
                    assert LineBuffer(w, h, mode, k).grid == window_grid(ph, pw, k)
                    continue
                text = f"padded {ph}x{pw} too small for a {k}x{k} window"
                for error, build in (
                        (ValueError, lambda: window_grid(ph, pw, k)),
                        (ValueError, lambda: LineBuffer(w, h, mode, k)),
                        (ShapeMismatch, lambda: compute_out_shape(op, (h, w, 1), mode, 1))):
                    with pytest.raises(error) as e:
                        build()
                    assert str(e.value) == text


class TestLayerCommand:
    def test_out_shape_and_tile_depth_are_derived(self):
        cmd = LayerCommand("conv3x3", PaddingMode.all_edges(), (10, 12, 3), 7,
                           (8, 4), pool="max")
        assert cmd.out_shape == (5, 6, 7)
        assert cmd.tile_depth == 3
        assert replace(cmd, in_shape=(10, 12, 20)).tile_depth == 8

    def test_bad_geometry_raises_on_build(self):
        with pytest.raises(ShapeMismatch, match="too small"):
            LayerCommand("conv3x3", PaddingMode.none(), (2, 2, 1), 1, (8, 8))

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"activation": "gelu"}, ValueError, "^unknown activation 'gelu'$"),
        ({"pool": "min"}, ValueError, "^unknown pool 'min'$"),
        ({"op": "maxpool", "pool": "max"}, UnsupportedOp,
         "^pool attachments only follow compute ops$"),
        ({"unroll": (8, 0)}, ValueError, "unroll entries must be at least 1"),
    ], ids=["activation", "pool", "pool-after-move-op", "unroll"])
    def test_rejects(self, kwargs, error, match):
        args = {"op": "conv3x3", "padding": PaddingMode.all_edges(),
                "in_shape": (4, 4, 4), "out_channels": 4, "unroll": (8, 8)}
        with pytest.raises(error, match=match):
            LayerCommand(**{**args, **kwargs})

    @pytest.mark.parametrize("act", ["relu", "leaky"])
    @pytest.mark.parametrize("op", ["maxpool", "avgpool", "identity"])
    def test_activation_after_move_op_rejected(self, op, act):
        with pytest.raises(UnsupportedOp,
                           match="^activations only follow compute ops$"):
            LayerCommand(op, PaddingMode.none(), (4, 4, 4), 4, (8, 8),
                         activation=act)


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

    @pytest.mark.parametrize("arrays, conv_reads, deconv_reads", [
        (1, 21_427_200, 7_603_200),
        (2, 13_132_800, 6_220_800),
        (4, 8_985_600, 5_529_600),
    ])
    def test_arrays_share_the_input_reads(self, arrays, conv_reads, deconv_reads):
        """The arrays share one input stream: input-feature reads follow the
        ceil(passes_out / arrays) rounds, as compute cycles do."""
        cfg = HwConfig(arrays=arrays)
        for op, shape, mode, reads, compute in (
                ("conv3x3", (90, 120, 64), PaddingMode.all_edges(), conv_reads, 691_200),
                ("deconv2x", (45, 60, 64), PaddingMode.of("TL"), deconv_reads, 691_200)):
            rep = layer_report(layer_command(op, shape, 64, mode, cfg), cfg)
            assert rep.buffer_reads == reads
            assert rep.compute_cycles == compute // arrays

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
        acc = deconv_naive(x, ks)
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
           st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 4]),
           st.sampled_from(["none", "relu", "leaky"]), st.sampled_from(POOLS),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_engines_agree_property(self, op, h, w, cin, cout, mode, tn, tm,
                                    arrays, act, pool, seed):
        k = 3 if op == "conv3x3" else 2
        assume(h + mode.pad_top + mode.pad_bottom >= k
               and w + mode.pad_left + mode.pad_right >= k)
        oh, ow, _ = compute_out_shape(op, (h, w, cin), mode, cout)
        assume(pool == "none" or (oh % 2 == 0 and ow % 2 == 0))
        cfg = HwConfig(tn=tn, tm=tm, arrays=arrays)
        rng = np.random.default_rng(seed)
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout, rotated=op == "deconv2x")
        cmd = layer_command(op, (h, w, cin), cout, mode, cfg, activation=act,
                            pool=pool, out_scale_exp=-6)
        fast, rep_f = run_layer(cmd, x, ks, cfg, engine="fast")
        cells, rep_c = run_layer(cmd, x, ks, cfg, engine="cells")
        assert np.array_equal(fast.data, cells.data)
        assert rep_f == rep_c

    @given(st.sampled_from(["conv3x3", "deconv2x"]), st.integers(1, 6),
           st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from(all_padding_modes()), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([1, 2, 4, 8]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_before_narrowing(self, op, h, w, cin, cout, mode, tn, tm,
                                            seed):
        """The cells engine's placed accumulator map equals the fast engine's
        assembled accumulator_bands, before the bias and narrowing."""
        k = 3 if op == "conv3x3" else 2
        assume(h + mode.pad_top + mode.pad_bottom >= k
               and w + mode.pad_left + mode.pad_right >= k)
        cfg = HwConfig(tn=tn, tm=tm)
        rng = np.random.default_rng(seed)
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout, rotated=op == "deconv2x")
        cmd = layer_command(op, (h, w, cin), cout, mode, cfg)
        fast = np.concatenate([acc for _, acc in accumulator_bands(cmd, x, ks, cfg)])
        cells = np.concatenate([acc for _, acc in _compute_cells(cmd, x, ks, cfg)])
        assert cells.dtype == np.int64
        assert np.array_equal(cells, fast)

    @pytest.mark.parametrize("field", ["priming_cycles", "compute_cycles",
                                       "multiplications"])
    @pytest.mark.parametrize("op, mode", [("conv3x3", "TBLR"), ("deconv2x", "TL")])
    def test_cells_checks_the_closed_form(self, op, mode, field, monkeypatch):
        """A layer_report that charges one priming cycle, compute cycle or
        product more than the cells engine runs fails there, naming all three
        pairs of counts; the fast engine counts nothing. Four Tm tiles on three arrays: the busiest
        array runs two."""
        cfg = HwConfig(tn=4, tm=2, arrays=3)
        rng = np.random.default_rng(13)
        x = QTensorInt8(rng, 5, 6, 7)
        ks = _rand_ks(rng, 7, 7, rotated=op == "deconv2x")
        cmd = layer_command(op, (5, 6, 7), 7, PaddingMode.of(mode), cfg)
        rep = layer_report(cmd, cfg)
        priming, compute, products = (rep.priming_cycles, rep.compute_cycles,
                                      rep.multiplications)
        setattr(rep, field, getattr(rep, field) + 1)
        monkeypatch.setattr(datapath, "layer_report", lambda cmd, cfg: rep)
        run_layer(cmd, x, ks, cfg, engine="fast")
        with pytest.raises(AssertionError) as err:
            run_layer(cmd, x, ks, cfg, engine="cells")
        assert str(err.value) == (
            f"counted {priming} priming cycles, {compute} compute cycles and {products}"
            f" products, layer_report says {rep.priming_cycles}, {rep.compute_cycles}"
            f" and {rep.multiplications}")

    @pytest.mark.parametrize("op, shape, cout, mode", [
        ("deconv2x", (24, 32, 16), 32, "TL"), ("conv3x3", (48, 64, 3), 64, "TBLR")])
    def test_cells_holds_one_placed_map(self, op, shape, cout, mode):
        """The cells engine adds every array step into one placed band at a
        time: drained band by band, a frame four times as tall peaks within
        1.25x of the frame's own peak allocation."""
        peaks = []
        for h in (shape[0], 4 * shape[0]):
            rng = np.random.default_rng(12)
            x = QTensorInt8(rng, h, *shape[1:])
            ks = _rand_ks(rng, shape[2], cout, rotated=op == "deconv2x")
            cmd = layer_command(op, x.shape, cout, PaddingMode.of(mode), CFG)
            tracemalloc.start()
            try:
                for _, band in _compute_cells(cmd, x, ks, CFG):
                    del band
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

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
    def test_matches_loop_reference(self, act, pool, leaky_shift, monkeypatch):
        # the rule holds for any shift constant, not only the one in use;
        # every odd negative and every residue mod 2**shift occurs
        monkeypatch.setattr(qtensor, "LEAKY_SHIFT", leaky_shift)
        data = np.arange(-128, 128, dtype=np.int8)[::-1].reshape(8, 8, 4)
        want = ref.activation_loops(data, act, leaky_shift)
        if pool == "max":
            want = ref.maxpool_loops(want)
        elif pool == "avg":
            want = ref.avgpool_loops(want)
        got = pool_act(data, pool=pool, act=act)
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


class TestMaxPoolFirst:
    """The one tail both engines' bands go through max-pools accumulators
    before narrowing them; the oracle chain narrows, activates, then pools,
    and stays the independent check of that reordering."""

    @staticmethod
    def _oracle(op, x, ks, mode, act):
        if op == "conv3x3":
            acc = conv2d_ref(x, ks, mode)
        else:
            # deconv_naive pads top and left itself: pad bottom/right first,
            # then drop the two output rows/columns of a missing top/left edge
            lo_hi = {"bottom", "right"} & set(mode.edges)
            acc = deconv_naive(QTensor(zero_pad(x.data, lo_hi), x.scale_exp), ks)
            acc = acc[2 * (not mode.pad_top):, 2 * (not mode.pad_left):]
        return maxpool_ref(bn_act_ref(acc, ks.bn_multiplier, ks.bn_shift, act=act,
                                      out_scale_exp=-6))

    @given(st.sampled_from(["conv3x3", "deconv2x"]), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 12), st.integers(3, 10),
           st.sampled_from(all_padding_modes()), st.sampled_from(ACTIVATIONS),
           st.sampled_from([1, pearray.BAND_BYTES]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_and_cells(self, op, a, b, cin, cout, mode, act,
                                      band_bytes, seed):
        pads_v = mode.pad_top + mode.pad_bottom
        pads_h = mode.pad_left + mode.pad_right
        if op == "conv3x3":   # a 2a x 2b pre-pool map
            h, w = 2 * a + 2 - pads_v, 2 * b + 2 - pads_h
        else:                 # every deconv map is even; the window needs 2x2
            h, w = a, b
            assume(h + pads_v >= 2 and w + pads_h >= 2)
        rng = np.random.default_rng(seed)
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout, rotated=op == "deconv2x")
        # negative, zero and positive multipliers in every layer
        signs = rng.permutation(np.resize([-1, 0, 1], cout))
        ks = replace(ks, bn_multiplier=(signs * ks.bn_multiplier).astype(np.int16))
        cmd = layer_command(op, x.shape, cout, mode, CFG, activation=act,
                            pool="max", out_scale_exp=-6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pearray, "BAND_BYTES", band_bytes)
            fast, _ = run_layer(cmd, x, ks, CFG)
        cells, _ = run_layer(cmd, x, ks, CFG, engine="cells")
        assert np.array_equal(fast.data, self._oracle(op, x, ks, mode, act).data)
        assert np.array_equal(fast.data, cells.data)


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

    def test_capacity_beyond_int64_is_exact(self):
        """2**32 x 2**26 x 64 int32 outputs need 2**69 OF bits, not a wrapped 0."""
        cfg = HwConfig(of_capacity_bits=19_000_000)
        cmd = layer_command("conv3x3", (2 ** 32, 2 ** 26, 1), 64,
                            PaddingMode.all_edges(), cfg)
        with pytest.raises(CapacityError,
                           match="OF buffer needs 590295810358705651712 bits"):
            check_layer_capacity(cmd, cfg)
        cmd = layer_command("maxpool", (2 ** 32, 2 ** 32, 64), 64,
                            PaddingMode.none(), cfg)
        with pytest.raises(CapacityError, match=f"needs {2 ** 68 * 8} bits"):
            check_layer_capacity(cmd, cfg)


def test_layer_report_beyond_int64_is_exact():
    """Element counts past 2**63 stay exact in transfer, writes and additions."""
    big = (3_000_000_000, 3_000_000_000, 64)
    cmd = layer_command("conv3x3", big, 64, PaddingMode.all_edges(), CFG)
    rep = layer_report(cmd, CFG)
    assert rep.transfer_cycles == 144_000_000_000_000_000_000
    pooled = layer_report(replace(cmd, pool="max"), CFG)
    assert pooled.buffer_writes - rep.buffer_writes == 1_500_000_000 ** 2 * 64
    cmd = layer_command("avgpool", (2 ** 32, 2 ** 32, 64), 64, PaddingMode.none(), CFG)
    assert layer_report(cmd, CFG).additions == 3 * 2 ** 68


def _report_grid_digest() -> str:
    """sha256 over the layer_report and check_layer_capacity figures of 5 ops
    x 13 modes x 3 shapes x 3 pools x 3 configs; a case that raises hashes
    its exception class. Only ints and names are hashed, never a repr."""
    cfgs = (CFG, HwConfig(tn=4, tm=2, arrays=3, stream_bits=24),
            HwConfig(tn=16, tm=4, if_capacity_bits=1500, of_capacity_bits=20000,
                     weight_capacity_bits=6000))
    h = hashlib.sha256()
    for op in ("conv3x3", "deconv2x", "maxpool", "avgpool", "identity"):
        for mode in all_padding_modes():
            for shape in ((2, 3, 1), (4, 6, 5), (8, 10, 20)):
                for pool in ("none", "max", "avg"):
                    for i, cfg in enumerate(cfgs):
                        cout = 7 if op in ("conv3x3", "deconv2x") else shape[2]
                        fields = [op, mode.short_name(), *shape, pool, i]
                        try:
                            cmd = layer_command(op, shape, cout, mode, cfg, pool=pool)
                            need = check_layer_capacity(cmd, cfg)
                            rep = layer_report(cmd, cfg)
                            fields += [*need.values(), *vars(rep).values()]
                        except (ShapeMismatch, UnsupportedOp, CapacityError) as e:
                            fields.append(type(e).__name__)
                        h.update(" ".join(map(str, fields)).encode() + b"\n")
    return h.hexdigest()


def test_layer_report_grid_is_pinned():
    """The cycle account's figures over a grid of commands, pinned."""
    assert _report_grid_digest() == (
        "9cd62e31144d798c02c15c857c6c6048ee18493271988c1c7f4a3aa0e518a6db")


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
        return deconv_naive(x, ks)

    def _assert_equals_oracle(self, op, w, x_value=-128):
        cmd, x, ks = self._case(op, w, x_value)
        want = self._oracle_acc(op, x, ks).astype(np.int64)
        got = np.concatenate([acc for _, acc in accumulator_bands(cmd, x, ks, CFG)])
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

    @pytest.mark.parametrize("engine", ["fast", "cells"])
    def test_depth_pass_overflow_is_caught(self, engine):
        """Tn = 8192 on 24576 channels of -128: weights 127 on the first two
        depth passes reach -2,397,044,736 after pass 2, and -128 on the third
        brings the final sum back to -1,189,085,184, inside int32. Both
        engines raise on pass 2."""
        cfg = HwConfig(tn=8192, tm=1)
        w = np.full((1, 24576, 3, 3), 127, np.int8)
        w[:, 16384:] = -128
        x = QTensor(np.full((3, 3, 24576), -128, np.int8), -7)
        ks = KernelSet(weights=w, bias=np.zeros(1, np.int32),
                       bn_multiplier=np.ones(1, np.int16),
                       bn_shift=np.zeros(1, np.uint8), scale_exp=-7)
        cmd = layer_command("conv3x3", x.shape, 1, PaddingMode.none(), cfg)
        assert conv2d_ref(x, ks, PaddingMode.none()).tolist() == [[[-1189085184]]]
        with pytest.raises(AccumulatorOverflow,
                           match=r"min=-2397044736 max=-2397044736$"):
            run_layer(cmd, x, ks, cfg, engine=engine)

    @given(st.sampled_from(list(OPS)), st.sampled_from([2, 4]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_failed_proof_on_strided_channel_tiles_equals_cells(self, op, tn, data):
        """The tiled path, forced on small maps by a weight_bound past
        ACC_MAX (its real trigger needs cin > 14,563), at tile_depth < cin
        with cin no multiple of it: every channel tile is a strided slice of
        the padded map, and the fast engine's bands equal the cells
        engine's."""
        cin = tn * data.draw(st.integers(1, 2)) + data.draw(st.integers(1, tn - 1))
        cout = data.draw(st.integers(1, 5))
        h, w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        band_bytes = data.draw(st.sampled_from([1, pearray.BAND_BYTES]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        x = QTensorInt8(rng, h, w, cin)
        ks = _rand_ks(rng, cin, cout, rotated=op == "deconv2x")
        cfg = HwConfig(tn=tn, tm=4)
        cmd = layer_command(op, x.shape, cout, self.OPS[op], cfg)
        assert cmd.tile_depth == tn < cin and cin % tn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pearray, "weight_bound", lambda wk: np.full(len(wk), ACC_MAX + 1))
            mp.setattr(pearray, "BAND_BYTES", band_bytes)
            fast = np.concatenate([acc for _, acc in accumulator_bands(cmd, x, ks, cfg)])
        cells = np.concatenate([acc for _, acc in _compute_cells(cmd, x, ks, cfg)])
        assert fast.dtype == np.float64
        assert np.array_equal(fast, cells)

    @pytest.mark.parametrize("op", list(OPS))
    def test_bias_overflow_is_caught(self, op):
        cmd, x, ks = self._case(op, np.full((1, 1, 3, 3), -128), bias=ACC_MAX)
        assert self._bound(ks.weights) <= 1 << 24
        with pytest.raises(AccumulatorOverflow):
            run_layer(cmd, x, ks, CFG)

    @given(st.sampled_from(list(OPS)), st.sampled_from(POOLS),
           st.sampled_from(ACTIVATIONS), st.sampled_from([1, pearray.BAND_BYTES]),
           st.sampled_from([0, 1, 127]), st.integers(1, 1 << 17), st.data())
    @settings(max_examples=150, deadline=None)
    def test_biases_at_the_int32_edges(self, op, pool, act, band_bytes, w_max,
                                       small, data):
        """Per-channel biases at and near both ends of int32, weights from
        zero (the proof covers any bias) to full int8: the fast engine, the
        cells engine and the oracle chain agree, or all three overflow."""
        cin, cout = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        h, w = data.draw(st.sampled_from([2, 4])), data.draw(st.sampled_from([2, 4]))
        edges = [ACC_MIN, ACC_MIN + small, 0, ACC_MAX - small, ACC_MAX]
        bias = data.draw(st.lists(st.sampled_from(edges), min_size=cout,
                                  max_size=cout))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        x = QTensorInt8(rng, h, w, cin)
        ks = KernelSet(
            weights=rng.integers(-w_max, w_max + 1, (cout, cin, 3, 3)).astype(np.int8),
            bias=np.array(bias, np.int32),
            bn_multiplier=rng.integers(-32768, 32768, cout).astype(np.int16),
            bn_shift=rng.integers(0, 32, cout).astype(np.uint8),
            scale_exp=-7, rotated=op == "deconv2x")
        cmd = layer_command(op, x.shape, cout, self.OPS[op], CFG, activation=act,
                            pool=pool)

        def outcome(run):
            try:
                return run().data
            except AccumulatorOverflow:
                return None

        def oracle():
            out = bn_act_ref(self._oracle_acc(op, x, ks), ks.bn_multiplier,
                             ks.bn_shift, act=act)
            return {"none": lambda q: q, "max": maxpool_ref, "avg": avgpool_ref}[pool](out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pearray, "BAND_BYTES", band_bytes)
            fast = outcome(lambda: run_layer(cmd, x, ks, CFG)[0])
        cells = outcome(lambda: run_layer(cmd, x, ks, CFG, engine="cells")[0])
        want = outcome(oracle)
        event("overflow" if want is None else "in range")
        if want is None:
            assert fast is None and cells is None
        else:
            assert np.array_equal(fast, want) and np.array_equal(cells, want)

    def test_bound_is_computed_once_per_layer(self, monkeypatch):
        calls, bound = [], pearray.weight_bound

        def counted(weights):
            calls.append(weights)
            return bound(weights)

        monkeypatch.setattr(pearray, "weight_bound", counted)
        # one window row per band: conv runs 3 bands of 2 rows, deconv 6
        monkeypatch.setattr(pearray, "BAND_BYTES", 1)
        rng = np.random.default_rng(14)
        x = QTensorInt8(rng, 6, 6, 3)
        for op in self.OPS:
            ks = _rand_ks(rng, 3, 2, rotated=op == "deconv2x")
            calls.clear()
            run_layer(layer_command(op, x.shape, 2, self.OPS[op], CFG), x, ks, CFG)
            assert len(calls) == 1, op
        calls.clear()
        deconv_full(x, ks)
        assert len(calls) == 1

    @pytest.mark.parametrize("multiplier, bias", [(16384, ACC_MIN + 2),
                                                  (-16384, ACC_MAX - 5)],
                             ids=["max-pooled", "min-pooled"])
    def test_pre_pool_overflow_outside_the_pooled_value(self, multiplier, bias):
        """acc is the input itself; only the element the pool drops (-5 under
        the max, 7 under the min) leaves int32 once biased."""
        x = QTensor(np.array([[-5, 3], [4, 7]], np.int8).reshape(2, 2, 1), -7)
        w = np.zeros((1, 1, 3, 3), np.int8)
        w[0, 0, 1, 1] = 1
        ks = KernelSet(weights=w, bias=np.array([bias], np.int32),
                       bn_multiplier=np.array([multiplier], np.int16),
                       bn_shift=np.zeros(1, np.uint8), scale_exp=-7)
        cmd = layer_command("conv3x3", x.shape, 1, self.OPS["conv3x3"], CFG,
                            pool="max")
        biased = np.array([-5, 3, 4, 7]) + bias
        message = (f"^accumulator out of 32-bit range: min={biased.min()} "
                   f"max={biased.max()}$")
        for engine in ("fast", "cells"):
            with pytest.raises(AccumulatorOverflow, match=message):
                run_layer(cmd, x, ks, CFG, engine=engine)

    @pytest.mark.parametrize("h", [7, 8])
    @pytest.mark.parametrize("budget_rows", [1, 3, 4])
    @pytest.mark.parametrize("mode", list(PeMode))
    def test_bands_have_even_rows(self, mode, budget_rows, h, monkeypatch):
        """A budget of budget_rows window rows per band; only a last band of
        odd height may be odd, so no 2x2 pool block straddles two bands."""
        padded = np.zeros((h + 2, 6, 2), np.int8)
        weights = np.zeros((3, 2, 3, 3), np.int8)
        ww = 6 - mode.window + 1
        taps = max(len(route) for route in mode.routing)
        monkeypatch.setattr(pearray, "BAND_BYTES",
                            budget_rows * 8 * ww * (taps * 2 + mode.beats * 3))
        sizes = [len(acc) for _, acc in accumulate_bands(mode, padded, weights,
                                                         np.zeros(3, np.int32), 8)]
        assert sum(sizes) == mode.patch * (h + 3 - mode.window)
        assert all(n % 2 == 0 for n in sizes[:-1])
        assert sizes[-1] % 2 == 0 or sum(sizes) % 2 == 1

    @pytest.mark.parametrize("op", list(OPS))
    def test_minimum_bands_match(self, op, monkeypatch):
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
