"""Front-end behavior: exit codes, output contracts, artifact files."""
import json

import numpy as np
import pytest

from ucda import cli
from ucda.controller import (
    LayerSpec,
    NetDescription,
    net_to_json,
    program_from_text,
)
from ucda.fileio import read_tensor, write_tensor
from ucda.qtensor import QTensor


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

    def test_unknown_scenario(self, capsys):
        assert _run(["bench", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_layer(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=8x8x4"]) == 0
        out = capsys.readouterr().out
        assert "conv3x3 8x8x4 -> 8x8x4 pad=TBLR" in out
        assert "total" in out

    def test_layer_over_capacity_is_infeasible(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3,in=8x8x4",
                     "--hw", "if_capacity_bits=8"]) == 2
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_scenario_over_capacity_is_infeasible(self, capsys):
        assert _run(["bench", "--scenario", "paper-latency",
                     "--hw", "if_capacity_bits=8"]) == 2
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_bad_layer_spec(self, capsys):
        assert _run(["bench", "--layer", "op=conv3x3"]) == 1
        assert "op=...,in=HxWxC" in capsys.readouterr().err

    def test_bad_hw_key(self, capsys):
        assert _run(["bench", "--hw", "lanes=4"]) == 1
        assert "bad --hw override" in capsys.readouterr().err

    def test_non_integer_hw_value(self, capsys):
        assert _run(["bench", "--hw", "tn=eight"]) == 1
        assert "needs an integer" in capsys.readouterr().err


class TestCompile:
    def test_preset_to_stdout(self, capsys):
        assert _run(["compile", "--preset", "segnet-basic"]) == 0
        out = capsys.readouterr().out
        assert "feasible: 9 commands, 12 stages" in out
        assert "cmd 00:" in out and "cmd 08:" in out
        assert "if buffer:" in out

    def test_out_file_parses(self, tmp_path, small_net, capsys):
        dump = tmp_path / "program.txt"
        assert _run(["compile", "--net", small_net, "--out", dump]) == 0
        assert f"wrote {dump}" in capsys.readouterr().out
        p = program_from_text(dump.read_text())
        assert len(p.commands) == 2

    def test_capacity_exceeded(self, small_net, capsys):
        code = _run(["compile", "--net", small_net,
                     "--hw", "if_capacity_bits=64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible: layer 0 (conv3x3)")

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
