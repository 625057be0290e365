"""Network descriptions, program compilation, weight images, execution."""
import hashlib
import math
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _rand_params, nets
from ucda import oracle
from ucda.cli import _random_params
from ucda.controller import (
    _LAYER_FIELD_TYPES,
    ExecutionError,
    LayerSpec,
    NetDescription,
    NetParseError,
    Program,
    compile_network,
    execute,
    load_net,
    net_from_json,
    net_to_json,
    pack_weights,
    parse_weight_image,
    program_to_text,
    reference_composition,
    rotate180,
    segnet_basic_preset,
    weight_image,
)
from ucda.datapath import (
    CapacityError,
    ShapeMismatch,
    check_layer_capacity,
    layer_command,
    layer_report,
    run_layer,
)
from ucda.linebuffer import PaddingMode
from ucda.pearray import HwConfig, RequantOverflow
from ucda.qtensor import KernelSet, QTensor, identity_kernel_set, quantize_array


def _net(layers, shape=(8, 8, 2), scale=-7):
    return NetDescription(shape, scale, layers)


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

    @pytest.mark.parametrize("act", ["relu", "leaky"])
    @pytest.mark.parametrize("kind", ["maxpool", "avgpool", "identity"])
    def test_activation_only_on_compute(self, kind, act):
        with pytest.raises(NetParseError,
                           match="^activations only follow conv/deconv stages$"):
            LayerSpec(kind, 4, activation=act)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool", "identity"])
    def test_scale_only_on_compute(self, kind):
        with pytest.raises(NetParseError,
                           match="^scale_exp only follows conv/deconv stages$"):
            LayerSpec(kind, 2, scale_exp=-3)
        LayerSpec(kind, 2, scale_exp=None)  # fine: keeps its input's scale


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
        assert net.chain()[-1][1] == (8, 8, 6)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """One file that each fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "net.json"


class TestNetJson:
    def test_round_trip(self):
        net = _net([LayerSpec("conv3x3", 4, activation="relu", pool="max"),
                    LayerSpec("deconv2x", 2, scale_exp=-6)])
        assert net_from_json(net_to_json(net)) == net

    def test_golden_text(self):
        net = _net([LayerSpec("conv3x3", 4, activation="relu", pool="max"),
                    LayerSpec("deconv2x", 2, scale_exp=-6)])
        assert net_to_json(net) == """\
{
  "version": 1,
  "input": {
    "h": 8,
    "w": 8,
    "c": 2,
    "scale_exp": -7
  },
  "layers": [
    {
      "kind": "conv3x3",
      "out_channels": 4,
      "activation": "relu",
      "pool": "max",
      "scale_exp": null
    },
    {
      "kind": "deconv2x",
      "out_channels": 2,
      "activation": "none",
      "pool": "none",
      "scale_exp": -6
    }
  ]
}
"""

    def test_type_table_covers_every_layer_field(self):
        assert list(_LAYER_FIELD_TYPES) == [f.name for f in fields(LayerSpec)]

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

    @pytest.mark.parametrize("text, key", [
        ('{"version": 1, "version": 1, "input": {"h": 4, "w": 4, "c": 1,'
         ' "scale_exp": -7}, "layers": []}', "version"),
        ('{"version": 1, "input": {"h": 4, "w": 4, "c": 1, "scale_exp": -7,'
         ' "h": 8}, "layers": []}', "h"),
        ('{"version": 1, "input": {"h": 4, "w": 4, "c": 1, "scale_exp": -7},'
         ' "layers": [{"kind": "conv3x3", "out_channels": 4,'
         ' "out_channels": 8}]}', "out_channels"),
    ], ids=["top level", "input", "layer"])
    def test_duplicate_field_rejected(self, text, key):
        """The last duplicate never silently wins."""
        with pytest.raises(NetParseError, match=f"^duplicate field '{key}'$"):
            net_from_json(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(NetParseError, match=r"line 1 column"):
            net_from_json("{,}")

    def test_non_integer_input_field(self):
        text = ('{"version": 1, "input": {"h": 4.5, "w": 4, "c": 1,'
                ' "scale_exp": -7}, "layers": []}')
        with pytest.raises(NetParseError, match="input.h"):
            net_from_json(text)

    @given(nets())
    @settings(max_examples=20, deadline=None)
    def test_every_strict_prefix_is_a_parse_error(self, net):
        text = net_to_json(net).rstrip()   # trailing whitespace is optional
        assert net_from_json(text) == net
        for cut in range(len(text)):
            with pytest.raises(NetParseError):
                net_from_json(text[:cut])

    @given(nets(), st.lists(st.tuples(st.integers(0, 2 ** 16),
                                      st.integers(0, 255)),
                            min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_corrupt_bytes_raise_only_parse_errors(self, fuzz_file, net, edits):
        blob = bytearray(net_to_json(net).encode())
        for at, value in edits:
            blob[at % len(blob)] = value
        fuzz_file.write_bytes(blob)
        try:
            load_net(fuzz_file)
        except (NetParseError, UnicodeDecodeError):
            pass

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
        assert net.chain()[-1][1] == (360, 480, 12)

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
        rows = [dict(tok.split("=") for tok in line.split(": ")[1].split())
                for line in program_to_text(p).splitlines() if line.startswith("cmd")]
        banks = [(r["if_bank"], r["of_bank"]) for r in rows]
        assert banks == [("0", "1"), ("1", "0"), ("0", "1")]
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

    @pytest.mark.parametrize("cfg, digest, length", [
        (HwConfig(),
         "753ed60ebb415bbfbe4f0e11a3ecbef0453f4c6bf69dcd2630182ccab4424740", 1582),
        (HwConfig(tn=4, tm=16, arrays=2),
         "ad993721824d33ee10fbfd5db54e0f64150c0fb189e5910398ea8809dfc6255e", 1591),
    ], ids=["default", "tn4-tm16-arrays2"])
    def test_preset_dump_bytes_are_pinned(self, cfg, digest, length):
        text = program_to_text(compile_network(segnet_basic_preset(), cfg))
        assert len(text) == length
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def weight_images(draw):
    """(kinds, kernel sets) of up to three entries, every field drawn
    over its stored range."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    kinds = draw(st.lists(st.sampled_from(["conv3x3", "deconv2x"]),
                          max_size=3))
    sets = []
    for kind in kinds:
        cin, cout = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        sets.append(KernelSet(
            weights=rng.integers(-128, 128, (cout, cin, 3, 3), dtype=np.int8),
            bias=rng.integers(-2 ** 31, 2 ** 31, cout, dtype=np.int32),
            bn_multiplier=rng.integers(-2 ** 15, 2 ** 15, cout, dtype=np.int16),
            bn_shift=rng.integers(0, 32, cout, dtype=np.uint8),
            scale_exp=draw(st.integers(-2 ** 31, 2 ** 31 - 1)),
            rotated=kind == "deconv2x"))
    return kinds, sets


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

    @given(weight_images())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_returns_every_field(self, image):
        kinds, sets = image
        got_kinds, got = parse_weight_image(weight_image(kinds, sets))
        assert got_kinds == kinds
        for a, b in zip(sets, got, strict=True):
            for f in ("weights", "bias", "bn_multiplier", "bn_shift"):
                x, y = getattr(a, f), getattr(b, f)
                assert x.dtype == y.dtype and np.array_equal(x, y), f
                assert y.flags.writeable, f
            assert (a.scale_exp, a.rotated) == (b.scale_exp, b.rotated)

    @given(weight_images())
    @settings(max_examples=25, deadline=None)
    def test_every_strict_prefix_names_a_byte_offset(self, image):
        blob = weight_image(*image)
        for cut in range(len(blob)):
            with pytest.raises(ValueError, match=r"truncated at byte \d+"):
                parse_weight_image(blob[:cut])

    @given(weight_images(), st.lists(st.tuples(st.integers(0, 2 ** 16),
                                        st.integers(0, 255)),
                              min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_corrupt_bytes_raise_only_value_errors(self, image, edits):
        blob = bytearray(weight_image(*image))
        for at, value in edits:
            blob[at % len(blob)] = value
        try:
            parse_weight_image(bytes(blob))
        except ValueError:
            pass

    @given(st.lists(st.tuples(st.sampled_from(["conv3x3", "deconv2x"]),
                              st.integers(1, 40), st.integers(1, 40)), max_size=4),
           st.sampled_from([8, 24, 64, 256]))
    @settings(max_examples=50, deadline=None)
    def test_image_holds_the_bits_the_cycle_account_streams(self, layers, stream_bits):
        """Each entry is a 16-byte header and the weight bits the cycle
        account sizes and streams for its layer."""
        cfg = HwConfig(stream_bits=stream_bits)
        sets = [identity_kernel_set(cin, cout, rotated=kind == "deconv2x")
                for kind, cin, cout in layers]
        size = 12
        for kind, cin, cout in layers:
            cmd = layer_command(kind, (4, 4, cin), cout, PaddingMode.all_edges(), cfg)
            bits = check_layer_capacity(cmd, cfg)["weight_bits"]
            assert bits % 8 == 0
            assert layer_report(cmd, cfg).weight_cycles == math.ceil(bits / stream_bits)
            size += 16 + bits // 8
        assert len(weight_image([kind for kind, _, _ in layers], sets)) == size

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
        with pytest.raises(RequantOverflow, match="layer 0 channel 0"):
            pack_weights(net, [w])

    def test_random_segnet_image_is_pinned(self):
        # the image `ucda run --random-weights` packs at UCDA_SEED=0
        blob, _ = _random_params(segnet_basic_preset(), 0)
        assert len(blob) == 270_512
        assert hashlib.sha256(blob).hexdigest() == (
            "dc4464a2a95091f489adb16030676c57c536610e4596ef7c9a3ca289abf978df")

    def test_int8_image_without_bn_or_bias_is_pinned(self):
        net = _net([LayerSpec("conv3x3", 4, "relu", "max", -5),
                    LayerSpec("deconv2x", 3, "relu", "none", -3),
                    LayerSpec("conv3x3", 2, "none", "none", 0)])
        rng = np.random.default_rng(5)
        weights = [rng.integers(-128, 128, shape).astype(np.int8)
                   for shape in ((4, 2, 3, 3), (3, 4, 3, 3), (2, 3, 3, 3))]
        blob, sets = pack_weights(net, weights)
        assert len(blob) == 357
        assert hashlib.sha256(blob).hexdigest() == (
            "7333b622e1e0443eeb18b4c32038ba4f967dbb6b32bbfc3a8c952d0ec1f07edf")
        # identity batch-norm: a pure 2**(in - out) rescale and no bias
        assert [(ks.bn_multiplier.tolist(), ks.bn_shift.tolist(), ks.bias.tolist())
                for ks in sets] == [([16384] * 4, [1] * 4, [0] * 4),
                                    ([16384] * 3, [1] * 3, [0] * 3),
                                    ([16384] * 2, [2] * 2, [0] * 2)]

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

    @pytest.mark.parametrize("cfg", [HwConfig(tn=4, tm=8), HwConfig(tn=8, tm=4)],
                             ids=["tn", "tm"])
    def test_program_runs_only_at_its_unroll(self, cfg):
        _, p, sets, x = self._compiled()   # compiled at tn = tm = 8
        want = f"command compiled for unroll (8, 8), config is {(cfg.tn, cfg.tm)}"
        with pytest.raises(ShapeMismatch) as err:
            run_layer(p.commands[0], x, sets[0], cfg)
        assert str(err.value) == want
        with pytest.raises(ExecutionError) as err:
            execute(p, sets, x, cfg)
        assert str(err.value) == f"command 0 (conv3x3): {want}"

    @given(nets(), st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_engines_and_oracle_agree_on_any_net(self, net, tn, tm, arrays, seed):
        """Every stage's output is equal on fast, on cells and in the
        oracle chain, and each command's cycle report on both engines.
        Gammas of either sign reach the max-pool tail's min path."""
        cfg = HwConfig(tn=tn, tm=tm, arrays=arrays)
        rng = np.random.default_rng(seed)
        weights, bns, biases = _rand_params(net, seed)
        bns = [replace(bn, gamma=bn.gamma * rng.choice([-1, 1], bn.gamma.size))
               for bn in bns]
        try:
            _, sets = pack_weights(net, weights, bns, biases)
        except RequantOverflow:
            assume(False)
        x = QTensor(rng.integers(-128, 128, net.input_shape, dtype=np.int8),
                    net.input_scale_exp)
        p = compile_network(net, cfg)
        traces = {"fast": [], "cells": []}
        for engine, trace in traces.items():
            execute(p, sets, x, cfg, engine=engine, trace=trace)
        refs = reference_composition(net, sets, x)
        assert len(traces["fast"]) == len(traces["cells"]) == len(refs)
        for f, c, ref in zip(*traces.values(), refs):
            assert np.array_equal(f.output.data, ref.data), f"layer {f.index}: fast"
            assert np.array_equal(c.output.data, ref.data), f"layer {f.index}: cells"
            assert f.output.scale_exp == c.output.scale_exp == ref.scale_exp
            assert f.report == c.report, f"layer {f.index} cycle report differs"


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

    def test_chain_holds_bands_not_maps(self, monkeypatch):
        """A conv + max-pool + deconv chain in 2-row bands allocates its int8
        outputs, a padded copy of the input, two bands' working sets and one
        band of the zero-inserted map: less than the conv's int32 pre-pool
        map alone."""
        h, w, cin, mid, cout = 192, 64, 8, 32, 8
        net = _net([LayerSpec("conv3x3", mid, activation="relu", pool="max"),
                    LayerSpec("deconv2x", cout)], shape=(h, w, cin))
        _, sets = pack_weights(net, *_rand_params(net, 33))
        x = QTensor(np.random.default_rng(34).integers(
            -128, 128, (h, w, cin)).astype(np.int8), -7)
        monkeypatch.setattr(oracle, "BAND_BYTES", 1)     # bands of two rows
        outputs = h // 2 * (w // 2) * mid + h * w * cout
        # a band's working set as BAND_BYTES counts it, at 8 bytes a value,
        # the larger of the two layers': the deconv's stacked block of 3*mid
        # and its three planes of cout sums, w + 2 columns a row of each
        band = 2 * (w + 2) * 3 * (mid + cout) * 8
        assert band > 2 * w * (9 * cin + mid) * 8     # the conv's nine-tap one
        inserted = 4 * (w + 2) * mid
        bound = outputs + x.data.nbytes + 2 * band + inserted
        pre_pool = h * w * mid * 4
        assert bound < pre_pool
        tracemalloc.start()
        try:
            refs = reference_composition(net, sets, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r.data.nbytes for r in refs) == outputs
        assert peak < bound


K123 = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], np.int8)


class TestRotate180:
    def test_point_mass_center_unchanged(self):
        k = np.zeros((3, 3), np.int8)
        k[1, 1] = 5
        assert np.array_equal(rotate180(k), k)

    def test_corner_moves(self):
        k = np.zeros((3, 3), np.int8)
        k[0, 0] = 1
        r = rotate180(k)
        assert r[2, 2] == 1 and r[0, 0] == 0

    def test_definition(self):
        r = rotate180(K123)
        for u in range(3):
            for v in range(3):
                assert r[u, v] == K123[2 - u, 2 - v]

    @given(st.integers(0, 2 ** 31 - 1))
    def test_involution(self, seed):
        k = np.random.default_rng(seed).integers(-128, 128, (2, 3, 3, 3))
        assert np.array_equal(rotate180(rotate180(k)), k)
