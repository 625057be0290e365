"""Front-end behavior: exit codes, output contracts, artifact files."""
import hashlib
import json
import os
import struct

import numpy as np
import pytest

from ucda import cli, oracle, patchdeconv
from ucda.controller import (
    LayerSpec,
    NetDescription,
    default_padding,
    net_to_json,
    weight_image,
)
from ucda.datapath import layer_command, run_layer
from ucda.fileio import read_tensor, tensor_bytes, write_tensor
from ucda.pearray import HwConfig
from ucda.qtensor import KernelSet, QTensor, identity_kernel_set


@pytest.fixture(autouse=True)
def _fixed_seed(monkeypatch):
    monkeypatch.delenv("UCDA_SEED", raising=False)


@pytest.fixture
def small_net(tmp_path):
    net = NetDescription((8, 8, 2), -7,
                         [LayerSpec("conv3x3", 4, activation="relu",
                                    pool="max"),
                          LayerSpec("deconv2x", 3, scale_exp=-6)])
    path = tmp_path / "net.json"
    path.write_text(net_to_json(net))
    return path


def _run(args):
    return cli.main([str(a) for a in args])


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch):
    assert _run(["bench", "--layer", "op=deconv2x,in=4x4x1"]) == 0
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_bench", lambda args: 7)
    assert _run(["bench"]) == 7


class TestBench:
    def test_default_prints_peak(self, capsys):
        assert _run(["bench"]) == 0
        assert capsys.readouterr().out == "peak 253.44 GOPS, DSP-equiv 576\n"

    def test_hw_override(self, capsys):
        assert _run(["bench", "--hw", "arrays=2"]) == 0
        assert capsys.readouterr().out == "peak 506.88 GOPS, DSP-equiv 1152\n"

    def test_clock_alias(self, capsys):
        assert _run(["bench", "--hw", "clock=110000000"]) == 0
        assert "peak 126.72 GOPS" in capsys.readouterr().out

    def test_latency_scenario(self, capsys):
        assert _run(["bench", "--scenario", "paper-latency"]) == 0
        out = capsys.readouterr().out
        assert "conv = deconv compute cycles: 10800 = 10800" in out
        assert "priming delta: 184 cycles (0.836 us)" in out
        assert "deconv total savings: 2.72%" in out

    def test_scenario_and_layer_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as e:
            _run(["bench", "--scenario", "paper-latency",
                  "--layer", "op=conv3x3,in=8x8x4"])
        assert e.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --layer: not allowed with argument --scenario\n")

    def test_unknown_scenario(self, capsys):
        assert _run(["bench", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_layer(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=8x8x4"]) == 0
        out = capsys.readouterr().out
        assert "conv3x3 8x8x4 -> 8x8x4 pad=TBLR" in out
        assert "total" in out

    def test_arrays_split_the_output_passes(self, capsys):
        layer = "op=conv3x3,in=90x120x64,out=64"
        assert _run(["bench", "--layer", layer]) == 0
        assert "compute 691200 " in capsys.readouterr().out
        assert _run(["bench", "--layer", layer, "--hw", "arrays=2"]) == 0
        assert "compute 345600 " in capsys.readouterr().out
        # the cells engine counts the same compute from the array steps it runs
        for arrays, compute in ((1, 691200), (2, 345600)):
            cfg = HwConfig(arrays=arrays)
            cmd = layer_command("conv3x3", (90, 120, 64), 64,
                                default_padding("conv3x3"), cfg)
            _, rep = run_layer(cmd, QTensor(np.zeros((90, 120, 64), np.int8), -7),
                               identity_kernel_set(64, 64), cfg, engine="cells")
            assert rep.compute_cycles == compute

    def test_layer_over_capacity_is_infeasible(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=8x8x4",
                     "--hw", "if_capacity_bits=8"]) == 2
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_scenario_over_capacity_is_infeasible(self, capsys):
        assert _run(["bench", "--scenario", "paper-latency",
                     "--hw", "if_capacity_bits=8"]) == 2
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_layer_capacity_beyond_int64_is_infeasible(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=4294967296x67108864x1,out=64",
                     "--hw", "of_capacity_bits=19000000"]) == 2
        assert capsys.readouterr().err == (
            "infeasible: layer: OF buffer needs 590295810358705651712 bits,"
            " capacity 19000000\n")

    def test_layer_transfer_beyond_int64_is_exact(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=3000000000x3000000000x64"]) == 0
        assert " transfer 144000000000000000000 " in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["op=conv3x3,in=8x8x4,op=deconv2x",
                                      "op=conv3x3,in=8x8x4,out=4,out=8"])
    def test_repeated_layer_field_is_a_parse_error(self, capsys, spec):
        assert _run(["bench", "--layer", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --layer field ") and "given twice" in err
        assert "Traceback" not in err

    def test_bad_layer_spec(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3"]) == 1
        assert "op=...,in=HxWxC" in capsys.readouterr().err

    def test_unknown_layer_op_is_named(self, capsys):
        assert _run(["bench", "--layer", "op=foo,in=4x4x1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown op 'foo'\n"
        assert captured.out == ""

    def test_activation_on_layer_pool_is_named(self, capsys):
        assert _run(["bench", "--layer", "op=maxpool,in=8x8x4,act=leaky"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: activations only follow compute ops\n"
        assert captured.out == ""

    @pytest.mark.parametrize("pairs, key", [(["tn=4", "tn=8"], "tn"),
                                            (["clock=100", "clock_hz=200"], "clock_hz")],
                             ids=["tn", "clock-alias"])
    def test_repeated_hw_key_is_a_parse_error(self, capsys, pairs, key):
        args = ["bench"]
        for pair in pairs:
            args += ["--hw", pair]
        assert _run(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: --hw field {key!r} given twice\n"

    def test_repeated_pad_letter_is_a_parse_error(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=4x4x4,pad=TT"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeated edge letter in 'TT'" in err
        assert "Traceback" not in err

    def test_bad_hw_key(self, capsys):
        assert _run(["bench", "--hw", "lanes=4"]) == 1
        assert "bad --hw override" in capsys.readouterr().err

    def test_non_integer_hw_value(self, capsys):
        assert _run(["bench", "--hw", "tn=eight"]) == 1
        assert "needs an integer" in capsys.readouterr().err

    def test_non_integer_layer_out(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=8x8x4,out=x"]) == 1
        assert (capsys.readouterr().err
                == "error: --layer out needs an integer, got 'x'\n")

    @pytest.mark.parametrize("op, k", [("conv3x3", 3), ("deconv2x", 2)])
    def test_layer_without_a_window_is_a_parse_error(self, capsys, op, k):
        assert _run(["bench", "--layer", f"op={op},in=1x1x1,pad=-"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: padded 1x1 too small for a {k}x{k} window\n"
        assert captured.out == ""

    @pytest.mark.parametrize("out", ["0", "-3"])
    def test_layer_needs_an_output_channel(self, capsys, out):
        assert _run(["bench", "--layer",
                     f"op=conv3x3,in=8x8x4,out={out}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: out_channels must be at least 1, got {out}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("dims", ["-8x8x4", "0x8x4", "8x8x0"])
    def test_layer_input_dims_must_be_positive(self, capsys, dims):
        assert _run(["bench", "--layer", f"op=conv3x3,in={dims}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --layer in dimensions must be at least 1, got '{dims}'\n")
        assert captured.out == ""


class TestCompile:
    def test_preset_to_stdout(self, capsys):
        assert _run(["compile", "--preset", "segnet-basic"]) == 0
        out = capsys.readouterr().out
        assert "feasible: 9 commands, 12 stages" in out
        assert "cmd 00:" in out and "cmd 08:" in out
        assert "if buffer:" in out

    def test_out_file_equals_stdout_dump(self, tmp_path, capsys):
        assert _run(["compile", "--preset", "segnet-basic"]) == 0
        printed = capsys.readouterr().out.split("feasible:")[0]
        dump = tmp_path / "program.txt"
        assert _run(["compile", "--preset", "segnet-basic", "--out", dump]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {dump}\nfeasible:")
        blob = dump.read_bytes()
        assert blob == printed.encode()
        assert len(blob) == 1582
        assert hashlib.sha256(blob).hexdigest() == (
            "753ed60ebb415bbfbe4f0e11a3ecbef0453f4c6bf69dcd2630182ccab4424740")

    def test_capacity_exceeded(self, small_net, capsys):
        code = _run(["compile", "--net", small_net,
                     "--hw", "if_capacity_bits=64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible: layer 0 (conv3x3)")

    def test_capacity_beyond_int64_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(net_to_json(NetDescription(
            (4294967296, 67108864, 1), -7, [LayerSpec("conv3x3", 64)])))
        assert _run(["compile", "--net", path, "--hw", "of_capacity_bits=19000000"]) == 2
        assert capsys.readouterr().err.startswith(
            "infeasible: layer 0 (conv3x3): OF buffer needs 590295810358705651712 bits")

    def test_duplicate_net_field_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"version": 1, "input": {"h": 8, "w": 8, "c": 2, "scale_exp": -7},'
                        ' "layers": [{"kind": "conv3x3", "out_channels": 4,'
                        ' "out_channels": 8}]}')
        assert _run(["compile", "--net", path]) == 1
        err = capsys.readouterr().err
        assert err == "error: duplicate field 'out_channels'\n"

    def test_missing_net_file(self, tmp_path, capsys):
        assert _run(["compile", "--net", tmp_path / "absent.json"]) == 1

    def test_malformed_net_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "input": }\n')
        assert _run(["compile", "--net", path]) == 1
        assert "error: line 2 column" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert _run(["compile", "--preset", "vgg"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_net_or_preset_required(self, capsys):
        assert _run(["compile"]) == 1
        assert "--net FILE or --preset NAME" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as e:
            _run(["frobnicate"])
        assert e.value.code == 1


class TestExitCodes:
    """One path per rung of cli.main's exception ladder not pinned elsewhere."""

    def _net(self, tmp_path, layer):
        path = tmp_path / "net.json"
        path.write_text(net_to_json(NetDescription((8, 8, 2), -7, [layer])))
        return path

    def test_unfoldable_multiplier_is_a_parse_error(self, tmp_path, capsys):
        # -16 is in range, but on this net the multiplier does not fold
        net = self._net(tmp_path, LayerSpec("conv3x3", 4, scale_exp=-16))
        assert _run(["run", "--net", net, "--random-weights", "--random-input",
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"]) == 1
        assert capsys.readouterr().err.startswith("error: layer 0 channel 0: ")

    @pytest.mark.parametrize("where, value", [
        ("layer", -2000), ("layer", -400), ("layer", -17), ("layer", 1),
        ("layer", 2000), ("input", 5), ("input", -17)])
    def test_out_of_range_scale_is_a_parse_error(self, tmp_path, capsys,
                                                 where, value):
        doc = {"version": 1, "input": {"h": 8, "w": 8, "c": 2, "scale_exp": -7},
               "layers": [{"kind": "conv3x3", "out_channels": 4}]}
        (doc["layers"][0] if where == "layer" else doc["input"])["scale_exp"] = value
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert _run(["run", "--net", net, "--random-weights", "--random-input",
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"]) == 1
        field = "layer 0: scale_exp" if where == "layer" else "input.scale_exp"
        assert capsys.readouterr().err == (
            f"error: {field} {value} outside [-16, 0]\n")
        assert not (tmp_path / "o.tensor").exists()

    @pytest.mark.parametrize("act", ["relu", "leaky"])
    @pytest.mark.parametrize("kind", ["maxpool", "avgpool", "identity"])
    def test_activation_on_move_layer_is_a_parse_error(self, tmp_path, capsys,
                                                       kind, act):
        doc = {"version": 1, "input": {"h": 8, "w": 8, "c": 2, "scale_exp": -7},
               "layers": [{"kind": kind, "out_channels": 2, "activation": act}]}
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert _run(["run", "--net", net, "--random-weights", "--random-input",
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"]) == 1
        assert capsys.readouterr().err == (
            "error: layer 0: activations only follow conv/deconv stages\n")
        assert not (tmp_path / "o.tensor").exists()

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool", "identity"])
    def test_scale_on_move_layer_is_a_parse_error(self, tmp_path, capsys, kind):
        """A move stage keeps its input's scale; a scale_exp on it would
        label the output at a scale the datapath never applied."""
        doc = {"version": 1, "input": {"h": 8, "w": 8, "c": 2, "scale_exp": -7},
               "layers": [{"kind": kind, "out_channels": 2, "scale_exp": -3},
                          {"kind": "conv3x3", "out_channels": 2}]}
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert _run(["compare", "--net", net, "--random-weights",
                     "--random-input"]) == 1
        assert capsys.readouterr().err == (
            "error: layer 0: scale_exp only follows conv/deconv stages\n")

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.05 TiB"), "Unable to allocate 8.05 TiB"),
        (MemoryError(), "out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_is_a_runtime_error(self, small_net, tmp_path, capsys,
                                              monkeypatch, error, message):
        def exhausted(net, seed):
            raise error

        monkeypatch.setattr(cli, "_random_params", exhausted)
        assert _run(["run", "--net", small_net, "--random-weights",
                     "--random-input", "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.tensor").exists()

    def test_accumulator_overflow_is_a_runtime_error(self, tmp_path, capsys):
        net = self._net(tmp_path, LayerSpec("conv3x3", 4))
        ks = KernelSet(weights=np.full((4, 2, 3, 3), -128, np.int8),
                       bias=np.full(4, 2**31 - 1, np.int32),
                       bn_multiplier=np.ones(4, np.int16),
                       bn_shift=np.zeros(4, np.uint8), scale_exp=0,
                       rotated=False)
        wpath = tmp_path / "weights.bin"
        wpath.write_bytes(weight_image(["conv3x3"], [ks]))
        x = tmp_path / "x.tensor"
        write_tensor(x, QTensor(np.full((8, 8, 2), -128, np.int8), -7))
        assert _run(["run", "--net", net, "--weights", wpath, "--input", x,
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: accumulator out of 32-bit range")

    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000,
                                      '{"a":' * 200_000 + "1" + "}" * 200_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_net_is_a_parse_error(self, tmp_path, capsys, text):
        # json's decoder gives up with a RecursionError long before this depth
        net = tmp_path / "deep.json"
        net.write_text(text)
        assert _run(["compile", "--net", net]) == 1
        assert capsys.readouterr().err == (
            "error: arrays or objects nested too deeply\n")

    def test_unwritable_output_is_a_runtime_error(self, small_net, tmp_path,
                                                  capsys):
        assert _run(["run", "--net", small_net, "--random-weights",
                     "--random-input", "--out-tensor", tmp_path,
                     "--out-perf", tmp_path / "p.json"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def _argv(tmp_path, argv):
        """argv with {t} made tmp_path, which holds the small net's net.json,
        in.pgm, in.tensor and a directory for each DIR argument."""
        (tmp_path / "in.pgm").write_bytes(b"P5\n1 1\n255\n\x90")
        write_tensor(tmp_path / "in.tensor", QTensor(np.zeros((2, 2, 1), np.int8), -7))
        argv = [a.format(t=tmp_path) for a in argv]
        for a in argv:
            if a.startswith(f"{tmp_path}/DIR"):
                os.mkdir(a)
        return argv

    @pytest.mark.parametrize("argv", [
        ["compile", "--net", "{t}/DIR"],
        ["run", "--net", "{t}/net.json", "--weights", "{t}/DIR", "--random-input",
         "--out-tensor", "{t}/o.tensor", "--out-perf", "{t}/p.json"],
        ["run", "--net", "{t}/net.json", "--random-weights", "--input", "{t}/DIR",
         "--out-tensor", "{t}/o.tensor", "--out-perf", "{t}/p.json"],
        ["convert", "{t}/DIR.pgm", "{t}/o.tensor"],
        ["convert", "{t}/DIR.tensor", "{t}/o.pgm"],
    ], ids=["net", "weights", "input", "convert-image", "convert-tensor"])
    def test_unreadable_input_is_a_parse_error(self, small_net, tmp_path,
                                               capsys, argv):
        argv = self._argv(tmp_path, argv)
        before = sorted(tmp_path.iterdir())
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and "Is a directory" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["run", "--net", "{t}/net.json", "--random-weights", "--random-input",
         "--out-tensor", "{t}/missing/x.tensor", "--out-perf", "{t}/p.json"],
        ["run", "--net", "{t}/net.json", "--random-weights", "--random-input",
         "--out-tensor", "{t}/x.tensor", "--out-perf", "{t}/missing/p.json"],
        ["compile", "--net", "{t}/net.json", "--out", "{t}/missing/p.txt"],
        ["convert", "{t}/in.pgm", "{t}/missing/x.tensor"],
        ["convert", "{t}/in.tensor", "{t}/missing/x.pgm"],
    ], ids=["run", "run-perf", "compile", "convert-image", "convert-tensor"])
    def test_missing_output_directory_is_a_runtime_error(self, small_net, tmp_path,
                                                         capsys, argv):
        argv = self._argv(tmp_path, argv)
        before = sorted(tmp_path.iterdir())
        assert _run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and "No such file or directory" in err
        assert sorted(tmp_path.iterdir()) == before


class TestRun:
    def _go(self, small_net, tmp_path, extra=()):
        out_t = tmp_path / "out.tensor"
        out_p = tmp_path / "perf.json"
        code = _run(["run", "--net", small_net, "--random-weights",
                     "--random-input", "--out-tensor", out_t,
                     "--out-perf", out_p, *extra])
        return code, out_t, out_p

    def test_artifacts_and_summary(self, small_net, tmp_path, capsys):
        code, out_t, out_p = self._go(small_net, tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "sha256 " in out and "cycles " in out
        t = read_tensor(out_t)
        assert t.shape == (8, 8, 3) and t.scale_exp == -6
        doc = json.loads(out_p.read_text())
        assert doc["dsp_equiv"] == 576
        assert len(doc["layers"]) == 2
        assert doc["total_cycles"] == sum(
            row["total_cycles"] for row in doc["layers"])

    def test_summary_then_layer_table(self, small_net, tmp_path, capsys):
        code, out_t, out_p = self._go(small_net, tmp_path)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads(out_p.read_text())
        total = doc["total_cycles"]
        digest = hashlib.sha256(tensor_bytes(read_tensor(out_t))).hexdigest()
        assert lines[:5] == [
            f"wrote {out_t} (8x8x3, scale 2^-6)",
            f"wrote {out_p}",
            f"sha256 {digest}",
            f"cycles {total}  runtime {1e3 * total / doc['clock_hz']:.3f} ms"
            f"  effective {doc['effective_gops']:.2f} GOPS",
            "",
        ]
        header = next(i for i, l in enumerate(lines)
                      if l.split()[:2] == ["#", "op"])
        rows = [l.split() for l in lines[header + 1:]]
        assert [r[:2] for r in rows] == [["0", "conv3x3"], ["1", "deconv2x"]]
        assert sum(int(r[-1]) for r in rows) == total

    def test_deterministic_across_runs(self, small_net, tmp_path, capsys):
        self._go(small_net, tmp_path)
        first = capsys.readouterr().out
        self._go(small_net, tmp_path)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_digest(self, small_net, tmp_path, capsys,
                                 monkeypatch):
        self._go(small_net, tmp_path)
        base = capsys.readouterr().out
        monkeypatch.setenv("UCDA_SEED", "7")
        self._go(small_net, tmp_path)
        assert capsys.readouterr().out != base

    @pytest.mark.parametrize("seed", ["x", "-1"])
    def test_bad_seed_names_the_variable(self, small_net, tmp_path, capsys,
                                         monkeypatch, seed):
        monkeypatch.setenv("UCDA_SEED", seed)
        code, out_t, _ = self._go(small_net, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UCDA_SEED" in err
        assert not out_t.exists()

    def test_engine_flag_rejected_values(self, small_net, tmp_path):
        # run has no --engine flag; argparse treats it as a usage error
        with pytest.raises(SystemExit):
            _run(["run", "--net", small_net, "--engine", "warp"])

    def test_missing_input_source(self, small_net, capsys):
        assert _run(["run", "--net", small_net, "--random-weights"]) == 1
        assert "need --input FILE or --random-input" in capsys.readouterr().err

    def test_input_shape_checked(self, small_net, tmp_path, capsys):
        bad = tmp_path / "bad.tensor"
        write_tensor(bad, QTensor(np.zeros((4, 4, 2), np.int8), -7))
        code = _run(["run", "--net", small_net, "--random-weights",
                     "--input", bad,
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"])
        assert code == 1
        assert "net wants (8, 8, 2)" in capsys.readouterr().err

    def test_input_scale_checked(self, small_net, tmp_path, capsys):
        bad = tmp_path / "bad.tensor"
        write_tensor(bad, QTensor(np.zeros((8, 8, 2), np.int8), -3))
        code = _run(["run", "--net", small_net, "--random-weights",
                     "--input", bad,
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"])
        assert code == 1
        assert "scale" in capsys.readouterr().err


class TestCompare:
    def test_bit_exact_and_matches_run_digest(self, small_net, tmp_path,
                                              capsys):
        _run(["run", "--net", small_net, "--random-weights", "--random-input",
              "--out-tensor", tmp_path / "o.tensor",
              "--out-perf", tmp_path / "p.json"])
        run_out = capsys.readouterr().out
        run_digest = next(l for l in run_out.splitlines()
                          if l.startswith("sha256 "))

        assert _run(["compare", "--net", small_net, "--random-weights",
                     "--random-input"]) == 0
        cmp_out = capsys.readouterr().out
        assert "all layers bit-exact" in cmp_out
        assert "layer  0 conv3x3" in cmp_out
        assert "max|diff| = 0" in cmp_out
        assert run_digest in cmp_out

    def test_reports_patch_ratio(self, small_net, capsys):
        _run(["compare", "--net", small_net, "--random-weights",
              "--random-input"])
        assert ("deconv multiplications dense/patch: 4.00"
                in capsys.readouterr().out)

    def test_ratio_comes_from_the_run_already_made(self, tmp_path, capsys,
                                                  monkeypatch):
        """The dense count is the reference chain's, one dense
        deconvolution per deconv layer; the patch count is the trace's
        deconv2x reports."""
        net = tmp_path / "net.json"
        net.write_text(net_to_json(NetDescription((4, 4, 2), -7, [
            LayerSpec("deconv2x", 3), LayerSpec("conv3x3", 2),
            LayerSpec("deconv2x", 2)])))
        calls = []

        def counting(module, name, counts=lambda *args: True):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                if counts(*args):
                    calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(oracle, "reference_layer",
                 lambda x, ks, kind, *rest: kind == "deconv2x")
        counting(patchdeconv, "deconv_full")
        assert _run(["compare", "--net", net, "--random-weights",
                     "--random-input"]) == 0
        assert calls == ["reference_layer", "reference_layer"]
        assert ("deconv multiplications dense/patch: 4.00\n"
                in capsys.readouterr().out)

    def test_fault_detected(self, small_net, capsys):
        code = _run(["compare", "--net", small_net, "--random-weights",
                     "--random-input", "--fault", "flip-bit:1"])
        assert code == 4
        out = capsys.readouterr().out
        assert "MISMATCH at layer 1 (deconv2x) coordinate (0, 0, 0)" in out

    def test_unknown_fault_mode(self, small_net, capsys):
        code = _run(["compare", "--net", small_net, "--random-weights",
                     "--random-input", "--fault", "stuck-at-0"])
        assert code == 1
        assert "unknown fault mode" in capsys.readouterr().err

    def test_non_integer_fault_layer(self, small_net, capsys):
        code = _run(["compare", "--net", small_net, "--random-weights",
                     "--random-input", "--fault", "flip-bit:x"])
        assert code == 1
        assert (capsys.readouterr().err
                == "error: --fault layer needs an integer, got 'x'\n")

    @pytest.mark.parametrize("layer", ["2", "99", "-1"])
    def test_fault_outside_program_is_a_parse_error(self, small_net, capsys,
                                                    layer):
        """small_net compiles to two commands; a flip elsewhere injects nothing."""
        code = _run(["compare", "--net", small_net, "--random-weights",
                     "--random-input", "--fault", f"flip-bit:{layer}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "0..1" in captured.err
        assert "bit-exact" not in captured.out


class TestNetJsonTypes:
    @pytest.mark.parametrize("field, value", [
        ("out_channels", "4"), ("out_channels", None), ("out_channels", [4]),
        ("out_channels", 4.5), ("out_channels", True), ("scale_exp", "x"),
        ("scale_exp", 1.5), ("activation", 5), ("pool", None),
        ("kind", ["deconv2x"]),
    ])
    def test_wrongly_typed_layer_field(self, small_net, tmp_path, capsys,
                                       field, value):
        doc = json.loads(small_net.read_text())
        doc["layers"][1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for args in (["compile", "--net", bad],
                     ["run", "--net", bad, "--random-weights", "--random-input",
                      "--out-tensor", tmp_path / "o.tensor",
                      "--out-perf", tmp_path / "p.json"]):
            assert _run(args) == 1, args[0]
            err = capsys.readouterr().err
            assert err.startswith("error: layer 1:"), (args[0], err)
            assert field in err
            assert "Traceback" not in err


class TestWeightFiles:
    def test_image_round_trips_through_run(self, small_net, tmp_path, capsys):
        from ucda.controller import net_from_json, pack_weights

        net = net_from_json(small_net.read_text())
        rng = np.random.default_rng(50)
        weights = [rng.normal(0, 0.2, (4, 2, 3, 3)),
                   rng.normal(0, 0.2, (3, 4, 3, 3))]
        blob, _ = pack_weights(net, weights)
        wpath = tmp_path / "weights.bin"
        wpath.write_bytes(blob)
        code = _run(["run", "--net", small_net, "--weights", wpath,
                     "--random-input",
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"])
        assert code == 0

    def test_mismatched_image_rejected(self, small_net, tmp_path, capsys):
        from ucda.controller import pack_weights

        other = NetDescription((8, 8, 2), -7,
                               [LayerSpec("conv3x3", 5, scale_exp=-6)])
        blob, _ = pack_weights(
            other, [np.random.default_rng(51).normal(0, 0.2, (5, 2, 3, 3))])
        wpath = tmp_path / "weights.bin"
        wpath.write_bytes(blob)
        code = _run(["run", "--net", small_net, "--weights", wpath,
                     "--random-input",
                     "--out-tensor", tmp_path / "o.tensor",
                     "--out-perf", tmp_path / "p.json"])
        assert code == 1
        assert "does not match" in capsys.readouterr().err


    def test_truncated_image_is_a_parse_error(self, small_net, tmp_path,
                                              capsys):
        from ucda.controller import net_from_json, pack_weights

        net = net_from_json(small_net.read_text())
        rng = np.random.default_rng(52)
        blob, _ = pack_weights(net, [rng.normal(0, 0.2, (4, 2, 3, 3)),
                                     rng.normal(0, 0.2, (3, 4, 3, 3))])
        # entry 0: header 12..28, weights ..100, biases ..116, multipliers
        # ..124, shifts ..128; entry 1: header ..144, weights ..252, ...
        cuts = (0, 2, 4, 8, 12, 20, 28, 64, 100, 108, 116, 120, 124, 126,
                128, 136, 144, 200, 252, 260, 264, 267, 270, 272)
        wpath = tmp_path / "weights.bin"
        for cut in cuts:
            wpath.write_bytes(blob[:cut])
            for command in ("run", "compare"):
                args = [command, "--net", small_net, "--weights", wpath,
                        "--random-input"]
                if command == "run":
                    args += ["--out-tensor", tmp_path / "o.tensor",
                             "--out-perf", tmp_path / "p.json"]
                assert _run(args) == 1, (command, cut)
                err = capsys.readouterr().err
                assert err.startswith("error:"), (command, cut, err)
                assert "Traceback" not in err


class TestConvert:
    def test_pgm_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(52)
        t = QTensor(rng.integers(-128, 128, (5, 6, 1)).astype(np.int8), -7)
        from ucda.fileio import tensor_to_ppm

        pgm = tmp_path / "in.pgm"
        tensor_to_ppm(pgm, t)
        raw = tmp_path / "mid.tensor"
        back = tmp_path / "out.pgm"
        assert _run(["convert", pgm, raw]) == 0
        assert _run(["convert", raw, back]) == 0
        assert back.read_bytes() == pgm.read_bytes()
        got = read_tensor(raw)
        assert np.array_equal(got.data, t.data)

    def test_scale_exp_flag(self, tmp_path):
        pgm = tmp_path / "in.pgm"
        pgm.write_bytes(b"P5\n1 1\n255\n\x90")
        raw = tmp_path / "out.tensor"
        assert _run(["convert", pgm, raw, "--scale-exp", "-3"]) == 0
        assert read_tensor(raw).scale_exp == -3

    @pytest.mark.parametrize("scale", [5, 1, -17])
    def test_scale_exp_outside_range_is_a_parse_error(self, tmp_path, capsys, scale):
        ppm = tmp_path / "in.ppm"
        ppm.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        raw = tmp_path / "out.tensor"
        assert _run(["convert", ppm, raw, "--scale-exp", scale]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: scale_exp {scale} outside [-16, 0]\n"
        assert not raw.exists()

    def test_scale_exp_on_export_is_a_parse_error(self, tmp_path, capsys):
        raw = tmp_path / "in.tensor"
        write_tensor(raw, QTensor(np.zeros((2, 2, 1), np.int8), -7))
        pgm = tmp_path / "out.pgm"
        assert _run(["convert", raw, pgm, "--scale-exp", "-12"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --scale-exp applies only to PPM/PGM input\n"
        assert not pgm.exists()

    def test_tensor_with_scale_outside_range_is_a_parse_error(self, tmp_path, capsys):
        raw = tmp_path / "in.tensor"
        raw.write_bytes(struct.pack("<IIIi", 1, 1, 1, 5) + b"\x00")
        assert _run(["convert", raw, tmp_path / "out.pgm"]) == 1
        assert capsys.readouterr().err == "error: scale_exp 5 outside [-16, 0]\n"

    @pytest.mark.parametrize("blob, message", [
        (b"P6\n4 ", "header ends at byte 5, before its height field"),
        (b"P6\n4 x4\n255\n", "height field at byte 5 is not a number"),
        (b"P6\n4 4\n255\n" + bytes(10),
         "payload holds 10 bytes from byte 11, header says 48"),
    ], ids=["header-cut-short", "non-numeric-field", "payload-short"])
    def test_malformed_ppm_is_a_parse_error(self, tmp_path, capsys, blob, message):
        ppm = tmp_path / "t.ppm"
        ppm.write_bytes(blob)
        assert _run(["convert", ppm, tmp_path / "o.tensor"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_needs_an_image_side(self, tmp_path, capsys):
        a = tmp_path / "a.tensor"
        write_tensor(a, QTensor(np.zeros((2, 2, 1), np.int8), -7))
        assert _run(["convert", a, tmp_path / "b.tensor"]) == 1
        assert ".ppm/.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("dst", ["b.pgm", "b.ppm"])
    def test_image_to_image_is_a_parse_error(self, tmp_path, capsys, dst):
        pgm = tmp_path / "a.pgm"
        pgm.write_bytes(b"P5\n1 1\n255\n\x90")
        out = tmp_path / dst
        assert _run(["convert", pgm, out]) == 1
        err = capsys.readouterr().err
        assert err == ("error: exactly one side of the conversion must be "
                       ".ppm/.pgm\n")
        assert not out.exists()
