"""Raw tensor files and PPM/PGM conversion."""
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda import cli
from ucda.fileio import (
    ppm_to_tensor,
    read_tensor,
    tensor_bytes,
    tensor_to_ppm,
    write_tensor,
)
from ucda.qtensor import QTensor


def _tensor(seed=0, shape=(3, 4, 2), scale=-7):
    rng = np.random.default_rng(seed)
    return QTensor(rng.integers(-128, 128, shape).astype(np.int8), scale)


@st.composite
def tensors(draw, channels=st.integers(1, 4)):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(channels))
    return _tensor(draw(st.integers(0, 2 ** 31 - 1)), shape,
                   draw(st.integers(-16, 0)))


EDITS = st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                 min_size=1, max_size=3)


def _corrupt(blob: bytes, edits) -> bytes:
    blob = bytearray(blob)
    for at, value in edits:
        blob[at % len(blob)] = value
    return bytes(blob)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """One file that each fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "file"


class TestRawTensor:
    def test_golden_bytes(self):
        t = QTensor(np.array([[[1, -2]], [[3, 4]]], np.int8), -5)
        want = struct.pack("<IIIi", 2, 1, 2, -5) + bytes([1, 254, 3, 4])
        assert tensor_bytes(t) == want

    def test_round_trip(self, tmp_path):
        t = _tensor()
        path = tmp_path / "x.bin"
        write_tensor(path, t)
        back = read_tensor(path)
        assert np.array_equal(back.data, t.data)
        assert back.scale_exp == t.scale_exp

    def test_file_matches_bytes(self, tmp_path):
        t = _tensor(1)
        path = tmp_path / "x.bin"
        write_tensor(path, t)
        assert path.read_bytes() == tensor_bytes(t)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(path)

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(struct.pack("<IIIi", 2, 2, 1, -7) + b"\x00" * 3)
        with pytest.raises(ValueError, match="payload holds 3"):
            read_tensor(path)

    def test_scale_outside_range_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(struct.pack("<IIIi", 1, 1, 1, 5) + b"\x00")
        with pytest.raises(ValueError, match=r"scale_exp 5 outside \[-16, 0\]"):
            read_tensor(path)

    @pytest.mark.parametrize("dims", [(0, 2, 1), (2, 0, 1), (2, 2, 0), (0, 0, 0)])
    def test_zero_dimension_rejected(self, tmp_path, capsys, dims):
        path = tmp_path / "x.tensor"
        path.write_bytes(struct.pack("<IIIi", *dims, -7))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header has a zero dimension")):
            read_tensor(path)
        out = tmp_path / "x.pgm"
        assert cli.main(["convert", str(path), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: header has a zero dimension")
        assert not out.exists()

    @given(tensors())
    @settings(max_examples=20, deadline=None)
    def test_every_strict_prefix_is_a_value_error(self, fuzz_file, t):
        blob = tensor_bytes(t)
        for cut in range(len(blob)):
            fuzz_file.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated|payload holds"):
                read_tensor(fuzz_file)

    @given(tensors(), EDITS)
    @settings(max_examples=60, deadline=None)
    def test_corrupt_bytes_raise_only_value_errors(self, fuzz_file, t, edits):
        fuzz_file.write_bytes(_corrupt(tensor_bytes(t), edits))
        try:
            read_tensor(fuzz_file)
        except ValueError:
            pass


class TestPpm:
    def test_gray_round_trip(self, tmp_path):
        t = _tensor(2, shape=(5, 7, 1))
        path = tmp_path / "x.pgm"
        tensor_to_ppm(path, t)
        back = ppm_to_tensor(path, scale_exp=t.scale_exp)
        assert np.array_equal(back.data, t.data)

    def test_color_round_trip(self, tmp_path):
        t = _tensor(3, shape=(4, 6, 3))
        path = tmp_path / "x.ppm"
        tensor_to_ppm(path, t)
        back = ppm_to_tensor(path)
        assert np.array_equal(back.data, t.data)

    def test_pixel_offset(self, tmp_path):
        # pixel 0 maps to the most negative code, 255 to the most positive
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        t = ppm_to_tensor(path)
        assert t.data.ravel().tolist() == [-128, 127]

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x80")
        assert ppm_to_tensor(path).data[0, 0, 0] == 0

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n1 1\n255\n128\n")
        with pytest.raises(ValueError, match="binary"):
            ppm_to_tensor(path)

    def test_two_channels_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1 or 3 channels"):
            tensor_to_ppm(tmp_path / "x.ppm", _tensor(4, shape=(2, 2, 2)))

    def test_nonstandard_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            ppm_to_tensor(path)

    @pytest.mark.parametrize("magic", [b"P5", b"P6"])
    @pytest.mark.parametrize("dims, message", [
        (b"0 3", "width field at byte 3 is 0"),
        (b"3 0", "height field at byte 5 is 0"),
        (b"00 3", "width field at byte 3 is 0"),
    ], ids=["width", "height", "width-00"])
    @pytest.mark.parametrize("tail", [b"\n", b"", b"\n" + bytes(9)],
                             ids=["no-payload", "no-byte-after-maxval", "payload"])
    def test_zero_size_rejected(self, tmp_path, capsys, magic, dims, message, tail):
        path = tmp_path / "x.pgm"
        path.write_bytes(magic + b"\n" + dims + b"\n255" + tail)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            ppm_to_tensor(path)
        out = tmp_path / "x.tensor"
        assert cli.main(["convert", str(path), str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"
        assert not out.exists()

    @given(tensors(st.sampled_from([1, 3])))
    @settings(max_examples=20, deadline=None)
    def test_every_strict_prefix_is_a_value_error(self, fuzz_file, t):
        tensor_to_ppm(fuzz_file, t)
        blob = fuzz_file.read_bytes()
        for cut in range(len(blob)):
            fuzz_file.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                ppm_to_tensor(fuzz_file)

    @given(tensors(st.sampled_from([1, 3])), EDITS)
    @settings(max_examples=60, deadline=None)
    def test_corrupt_bytes_raise_only_value_errors(self, fuzz_file, t, edits):
        tensor_to_ppm(fuzz_file, t)
        fuzz_file.write_bytes(_corrupt(fuzz_file.read_bytes(), edits))
        try:
            ppm_to_tensor(fuzz_file)
        except ValueError:
            pass
