"""Network descriptions, program compilation, weight images, execution."""
import struct

import numpy as np
import pytest

from ucda.controller import (
    BnParams,
    ExecutionError,
    LayerSpec,
    NetDescription,
    NetParseError,
    Program,
    compile_network,
    execute,
    net_from_json,
    net_to_json,
    pack_weights,
    parse_weight_image,
    program_from_text,
    program_to_text,
    reference_composition,
    segnet_basic_preset,
    weight_image,
)
from ucda.datapath import CapacityError, run_layer
from ucda.patchdeconv import rotate180
from ucda.pearray import HwConfig
from ucda.qtensor import KernelSet, QTensor, identity_kernel_set, quantize_array


def _net(layers, shape=(8, 8, 2), scale=-7):
    return NetDescription(shape, scale, layers)


def _rand_params(net, seed):
    rng = np.random.default_rng(seed)
    weights, bns, biases = [], [], []
    for spec, (ins, outs, _, _) in zip(net.layers, net.chain()):
        if spec.kind not in ("conv3x3", "deconv2x"):
            continue
        cin, cout = ins[2], outs[2]
        weights.append(rng.normal(0.0, 0.2, (cout, cin, 3, 3)))
        bns.append(BnParams(
            gamma=rng.uniform(0.5, 1.5, cout), beta=rng.uniform(-0.5, 0.5, cout),
            mean=rng.uniform(-0.2, 0.2, cout), var=rng.uniform(0.25, 1.0, cout)))
        biases.append(rng.uniform(-0.1, 0.1, cout))
    return weights, bns, biases


class TestLayerSpec:
    def test_unknown_kind(self):
        with pytest.raises(NetParseError):
            LayerSpec("conv5x5", 4)

    def test_pool_only_on_compute(self):
        with pytest.raises(NetParseError):
            LayerSpec("maxpool", 4, pool="max")
        LayerSpec("deconv2x", 4, pool="avg")  # fine

    def test_bad_activation(self):
        with pytest.raises(NetParseError):
            LayerSpec("conv3x3", 4, activation="gelu")


class TestNetDescription:
    def test_chain_scales(self):
        net = _net([LayerSpec("conv3x3", 4, scale_exp=-5),
                    LayerSpec("conv3x3", 4)])
        links = net.chain()
        assert links[0][2:] == (-7, -5)
        assert links[1][2:] == (-5, -5)

    def test_stage_count_counts_pool_attachments(self):
        net = _net([LayerSpec("conv3x3", 4, pool="max"),
                    LayerSpec("conv3x3", 4)])
        assert net.stage_count() == 3

    def test_geometry_error_names_layer(self):
        # odd height meets the attached pool at the second stage
        with pytest.raises(NetParseError, match="layer 1"):
            NetDescription((7, 8, 2), -7,
                           [LayerSpec("conv3x3", 4),
                            LayerSpec("conv3x3", 4, pool="max")])

    def test_output_shape(self):
        net = _net([LayerSpec("conv3x3", 4, pool="max"),
                    LayerSpec("deconv2x", 6)])
        assert net.output_shape() == (8, 8, 6)


class TestNetJson:
    def test_round_trip(self):
        net = _net([LayerSpec("conv3x3", 4, activation="relu", pool="max"),
                    LayerSpec("deconv2x", 2, scale_exp=-6)])
        assert net_from_json(net_to_json(net)) == net

    def test_defaults_fill_in(self):
        doc = """{"version": 1,
                  "input": {"h": 4, "w": 4, "c": 1, "scale_exp": -7},
                  "layers": [{"kind": "conv3x3", "out_channels": 2}]}"""
        net = net_from_json(doc)
        assert net.layers[0].activation == "none"
        assert net.layers[0].pool == "none"
        assert net.layers[0].scale_exp is None

    @pytest.mark.parametrize("mutate, msg", [
        ('"version": 2', "version"),
        ('"version": 1, "extra": 0', "unknown fields"),
        ('"version": 1', "missing field"),
    ])
    def test_top_level_schema(self, mutate, msg):
        body = ('{%s, "input": {"h": 4, "w": 4, "c": 1, "scale_exp": -7},'
                ' "layers": []}')
        text = body % mutate if "missing" not in msg else (
            '{"version": 1, "layers": []}')
        with pytest.raises(NetParseError, match=msg):
            net_from_json(text)

    def test_unknown_input_field(self):
        text = ('{"version": 1, "input": {"h": 4, "w": 4, "c": 1,'
                ' "scale_exp": -7, "depth": 3}, "layers": []}')
        with pytest.raises(NetParseError, match="input: unknown fields"):
            net_from_json(text)

    def test_unknown_layer_field(self):
        text = ('{"version": 1, "input": {"h": 4, "w": 4, "c": 1,'
                ' "scale_exp": -7}, "layers": [{"kind": "conv3x3",'
                ' "out_channels": 2, "stride": 2}]}')
        with pytest.raises(NetParseError, match="layer 0: unknown fields"):
            net_from_json(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(NetParseError, match=r"line 1 column"):
            net_from_json("{,}")

    def test_non_integer_input_field(self):
        text = ('{"version": 1, "input": {"h": 4.5, "w": 4, "c": 1,'
                ' "scale_exp": -7}, "layers": []}')
        with pytest.raises(NetParseError, match="input.h"):
            net_from_json(text)

    def test_boolean_input_field(self):
        text = ('{"version": 1, "input": {"h": true, "w": 4, "c": 1,'
                ' "scale_exp": -7}, "layers": []}')
        with pytest.raises(NetParseError, match="input.h"):
            net_from_json(text)


class TestPreset:
    def test_shape_and_stages(self):
        net = segnet_basic_preset()
        assert net.input_shape == (360, 480, 3)
        assert net.stage_count() == 12
        assert len(net.layers) == 9
        assert net.output_shape() == (360, 480, 12)

    def test_bottleneck_spatial(self):
        heights = [link[1][0] for link in segnet_basic_preset().chain()]
        assert min(heights) == 45
        assert heights[-1] == 360

    def test_compiles(self):
        p = compile_network(segnet_basic_preset(), HwConfig())
        assert len(p.commands) == 9
        assert p.stages == 12


class TestCompile:
    def test_bank_alternation_and_slots(self):
        net = _net([LayerSpec("conv3x3", 4), LayerSpec("maxpool", 4),
                    LayerSpec("deconv2x", 2)])
        p = compile_network(net, HwConfig())
        banks = [(c.if_bank, c.of_bank) for c in p.commands]
        assert banks == [(0, 1), (1, 0), (0, 1)]
        assert [c.weight_slot for c in p.commands] == [0, -1, 1]

    def test_depth_tiling(self):
        net = NetDescription((6, 6, 64), -7, [LayerSpec("conv3x3", 8)])
        p = compile_network(net, HwConfig())
        assert p.commands[0].tile_depth == 8

    def test_budget_is_max_over_layers(self):
        net = _net([LayerSpec("conv3x3", 8), LayerSpec("conv3x3", 2)])
        p = compile_network(net, HwConfig())
        assert p.of_bits_required == 8 * 8 * 8 * 32

    def test_capacity_error_names_layer(self):
        net = _net([LayerSpec("conv3x3", 4)], shape=(32, 32, 8))
        with pytest.raises(CapacityError, match=r"layer 0 \(conv3x3\)"):
            compile_network(net, HwConfig(if_capacity_bits=64))


class TestProgramText:
    GOLDEN = (
        "# ucda program v1\n"
        "stages: 1\n"
        "commands: 1\n"
        "budget_if_bits: 576\n"
        "budget_of_bits: 1536\n"
        "budget_weight_bits: 600\n"
        "cmd 00: op=conv3x3 pad=TBLR in=4x4x2 out=4x4x3 tile_depth=2"
        " unroll=8x8 wslot=0 if_bank=0 of_bank=1 requant=1 act=relu"
        " pool=none scale_exp=-7 leaky_shift=3\n")

    def test_golden_dump(self):
        net = NetDescription((4, 4, 2), -7,
                             [LayerSpec("conv3x3", 3, activation="relu")])
        assert program_to_text(compile_network(net, HwConfig())) == self.GOLDEN

    def test_golden_parse(self):
        p = program_from_text(self.GOLDEN)
        assert p.stages == 1
        assert p.if_bits_required == 576
        cmd = p.commands[0]
        assert cmd.op == "conv3x3" and cmd.out_shape == (4, 4, 3)
        assert cmd.post.activation == "relu"

    def test_round_trip_preset(self):
        p = compile_network(segnet_basic_preset(), HwConfig())
        assert program_from_text(program_to_text(p)) == p

    def test_round_trip_ignores_comments_and_blanks(self):
        text = "# leading note\n\n" + self.GOLDEN
        assert program_from_text(text) == program_from_text(self.GOLDEN)

    @pytest.mark.parametrize("text, match", [
        (GOLDEN.split("cmd")[0] + "cmd 00: op=conv3x3\n",
         r"line 7: missing field 'pad'"),
        (GOLDEN.split("budget_if_bits")[0],
         r"missing header field 'budget_if_bits'"),
        (GOLDEN.replace("in=4x4x2", "in=4x4"),
         r"line 7: field in='4x4' is not NxNxN"),
    ], ids=["command-fields-missing", "header-cut-short", "shape-too-short"])
    def test_malformed_dump_names_line_and_field(self, text, match):
        with pytest.raises(ValueError, match=match):
            program_from_text(text)

    @staticmethod
    def _segnet_dump_without(index):
        text = program_to_text(compile_network(segnet_basic_preset(), HwConfig()))
        lines = text.splitlines(keepends=True)
        return "".join(l for l in lines if not l.startswith(f"cmd {index:02d}:"))

    def test_lost_last_command_is_a_count_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"header says commands: 9, found 8 command lines"):
            program_from_text(self._segnet_dump_without(8))

    def test_gap_in_command_indices(self):
        with pytest.raises(ValueError,
                           match=r"line 10: command index 4 where 3 was expected"):
            program_from_text(self._segnet_dump_without(3))

    def test_missing_command_count(self):
        text = self.GOLDEN.replace("commands: 1\n", "")
        with pytest.raises(ValueError, match=r"missing header field 'commands'"):
            program_from_text(text)


class TestWeightImage:
    def golden_blob(self):
        # built field by field, independent of the writer
        blob = b"UCDW"
        blob += struct.pack("<II", 1, 1)                # version, entries
        blob += struct.pack("<IIIi", 0, 1, 1, 0)        # conv code, cin, cout, scale
        blob += bytes(range(1, 10))                     # the nine taps
        blob += struct.pack("<i", 64)                   # bias 0.5 / 2**-7
        blob += struct.pack("<h", 16384)                # multiplier
        blob += struct.pack("<B", 1)                    # shift
        return blob

    def test_golden_bytes(self):
        net = NetDescription((2, 2, 1), -7,
                             [LayerSpec("conv3x3", 1, scale_exp=-5)])
        w = np.arange(1, 10, dtype=np.int8).reshape(1, 1, 3, 3)
        blob, _ = pack_weights(net, [w], biases=[np.array([0.5])])
        assert blob == self.golden_blob()

    def test_golden_parses(self):
        kinds, sets = parse_weight_image(self.golden_blob())
        assert kinds == ["conv3x3"]
        ks = sets[0]
        assert np.array_equal(ks.weights.ravel(), np.arange(1, 10))
        assert ks.bias[0] == 64 and ks.bn_multiplier[0] == 16384
        assert ks.bn_shift[0] == 1 and ks.scale_exp == 0
        assert not ks.rotated

    def test_round_trip(self):
        net = _net([LayerSpec("conv3x3", 4, pool="max"),
                    LayerSpec("deconv2x", 2, scale_exp=-6)])
        blob, sets = pack_weights(net, *_rand_params(net, 20))
        kinds, parsed = parse_weight_image(blob)
        assert kinds == ["conv3x3", "deconv2x"]
        for a, b in zip(sets, parsed):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert np.array_equal(a.bn_multiplier, b.bn_multiplier)
            assert np.array_equal(a.bn_shift, b.bn_shift)
            assert a.scale_exp == b.scale_exp and a.rotated == b.rotated

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_weight_image(b"XXXX" + self.golden_blob()[4:])

    def test_bad_version(self):
        blob = self.golden_blob()
        with pytest.raises(ValueError, match="version"):
            parse_weight_image(blob[:4] + struct.pack("<II", 9, 1) + blob[12:])

    def test_truncated_image_names_the_offset(self):
        blob = self.golden_blob()
        # the magic, the image header, the entry header, then each array
        for cut, at in ((2, 0), (4, 4), (11, 4), (12, 12), (27, 12),
                        (28, 28), (36, 28), (37, 37), (40, 37), (41, 41),
                        (42, 41), (43, 43)):
            with pytest.raises(ValueError, match=f"byte {at}|magic"):
                parse_weight_image(blob[:cut])

    def test_every_prefix_is_a_value_error(self):
        net = _net([LayerSpec("conv3x3", 4, pool="max"),
                    LayerSpec("deconv2x", 2, scale_exp=-6)])
        blob, _ = pack_weights(net, *_rand_params(net, 22))
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                parse_weight_image(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_weight_image(self.golden_blob() + b"\x00")

    def test_pool_kind_rejected(self):
        with pytest.raises(ValueError, match="no weights"):
            weight_image(["maxpool"], [identity_kernel_set(1, 1)])


class TestPackWeights:
    def test_int8_stored_verbatim(self):
        net = _net([LayerSpec("conv3x3", 2, scale_exp=-5)], shape=(4, 4, 3))
        w = np.random.default_rng(21).integers(-128, 128, (2, 3, 3, 3))
        _, sets = pack_weights(net, [w.astype(np.int8)])
        assert np.array_equal(sets[0].weights, w)
        assert sets[0].scale_exp == 0

    def test_float_scale_selection(self):
        net = _net([LayerSpec("conv3x3", 1, scale_exp=-5)], shape=(4, 4, 1))
        w = np.full((1, 1, 3, 3), 0.5)
        _, sets = pack_weights(net, [w])
        # ceil(log2(0.5 / 127)) = -7
        assert sets[0].scale_exp == -7
        assert np.array_equal(sets[0].weights, quantize_array(w, -7))

    def test_deconv_kernels_rotate_at_pack(self):
        net = _net([LayerSpec("deconv2x", 1, scale_exp=-5)], shape=(4, 4, 1))
        w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3) / 64.0
        _, sets = pack_weights(net, [w])
        assert sets[0].rotated
        assert np.array_equal(sets[0].weights,
                              rotate180(quantize_array(w, sets[0].scale_exp)))

    def test_requant_overflow_names_channel(self):
        # unit multiplier at matching scales cannot fit in q1.15
        net = _net([LayerSpec("conv3x3", 1)], shape=(4, 4, 1))
        w = np.ones((1, 1, 3, 3), dtype=np.int8)
        with pytest.raises(ValueError, match="layer 0 channel 0"):
            pack_weights(net, [w])

    def test_oversized_weights_rejected(self):
        net = _net([LayerSpec("conv3x3", 1, scale_exp=-5)], shape=(4, 4, 1))
        with pytest.raises(ValueError, match="beyond the q8 range"):
            pack_weights(net, [np.full((1, 1, 3, 3), 200.0)])

    def test_wrong_array_count(self):
        net = _net([LayerSpec("conv3x3", 2)])
        with pytest.raises(ValueError, match="1 parameterized"):
            pack_weights(net, [])

    def test_wrong_shape_names_layer(self):
        net = _net([LayerSpec("conv3x3", 2, scale_exp=-5)])
        with pytest.raises(ValueError, match="layer 0"):
            pack_weights(net, [np.zeros((5, 2, 3, 3))])


class TestExecute:
    def _compiled(self, seed=22):
        net = _net([LayerSpec("conv3x3", 4, activation="relu", pool="max"),
                    LayerSpec("deconv2x", 3, activation="leaky",
                              scale_exp=-6)])
        p = compile_network(net, HwConfig())
        _, sets = pack_weights(net, *_rand_params(net, seed))
        rng = np.random.default_rng(seed + 1)
        x = QTensor(rng.integers(-128, 128, (8, 8, 2)).astype(np.int8), -7)
        return net, p, sets, x

    def test_empty_program(self):
        p = Program(commands=(), stages=0, if_bits_required=0,
                    of_bits_required=0, weight_bits_required=0)
        x = QTensor(np.ones((3, 3, 1), np.int8), -7)
        out, rep = execute(p, [], x)
        assert out is x
        assert rep.total_cycles == 0

    def test_matches_manual_run_layer_chain(self):
        _, p, sets, x = self._compiled()
        out, agg = execute(p, sets, x)
        y = x
        total = 0
        for cmd in p.commands:
            ks = sets[cmd.weight_slot] if cmd.weight_slot >= 0 else None
            y, rep = run_layer(cmd, y, ks, HwConfig())
            total += rep.total_cycles
        assert np.array_equal(out.data, y.data)
        assert out.scale_exp == y.scale_exp == -6
        assert agg.total_cycles == total

    def test_trace_timestamps_contiguous(self):
        _, p, sets, x = self._compiled()
        trace = []
        _, agg = execute(p, sets, x, trace=trace)
        assert trace[0].start_cycle == 0
        for prev, cur in zip(trace, trace[1:]):
            assert cur.start_cycle == prev.end_cycle
        for rec in trace:
            assert rec.end_cycle - rec.start_cycle == rec.report.total_cycles
        assert trace[-1].end_cycle == agg.total_cycles

    def test_fault_injection_flips_one_bit(self):
        _, p, sets, x = self._compiled()
        clean, _ = execute(p, sets, x)
        faulty, _ = execute(p, sets, x, fault_layer=1)
        diff = clean.data.astype(np.int16) ^ faulty.data.astype(np.int16)
        assert diff[0, 0, 0] == 1
        assert np.count_nonzero(diff) == 1

    def test_wrong_kernel_set_count(self):
        _, p, sets, x = self._compiled()
        with pytest.raises(ExecutionError, match="kernel sets"):
            execute(p, sets[:1], x)

    def test_bank_mismatch_rejected(self):
        _, p, sets, x = self._compiled()
        bad = Program(commands=(p.commands[1], p.commands[0]),
                      stages=p.stages, if_bits_required=0,
                      of_bits_required=0, weight_bits_required=0)
        with pytest.raises(ExecutionError, match="alternate"):
            execute(bad, sets, x)

    def test_error_names_command(self):
        net = _net([LayerSpec("conv3x3", 4)])
        p = compile_network(net, HwConfig())
        bad_ks = identity_kernel_set(3, 4)  # wrong channel count
        x = QTensor(np.zeros((8, 8, 2), np.int8), -7)
        with pytest.raises(ExecutionError, match=r"command 0 \(conv3x3\)"):
            execute(p, [bad_ks], x)

    def test_engines_agree_through_program(self):
        _, p, sets, x = self._compiled(seed=30)
        fast, _ = execute(p, sets, x, engine="fast")
        cells, _ = execute(p, sets, x, engine="cells")
        assert np.array_equal(fast.data, cells.data)


class TestReferenceComposition:
    def test_matches_execute_per_layer(self):
        net = _net([LayerSpec("conv3x3", 4, activation="relu", pool="avg"),
                    LayerSpec("deconv2x", 3, scale_exp=-6),
                    LayerSpec("identity", 3)])
        p = compile_network(net, HwConfig())
        _, sets = pack_weights(net, *_rand_params(net, 31))
        rng = np.random.default_rng(32)
        x = QTensor(rng.integers(-128, 128, (8, 8, 2)).astype(np.int8), -7)
        trace = []
        execute(p, sets, x, trace=trace)
        refs = reference_composition(net, sets, x)
        assert len(refs) == len(trace) == 3
        for rec, ref in zip(trace, refs):
            assert np.array_equal(rec.output.data, ref.data)
            assert rec.output.scale_exp == ref.scale_exp
