"""FIFO line buffer vs the pad-then-slice window oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda.linebuffer import (
    LineBuffer,
    PaddingMode,
    all_padding_modes,
    window_stream,
)
from ucda.qtensor import QTensor

from reference_impls import windows_by_slicing


def _pads(mode: PaddingMode):
    return (mode.pad_top, mode.pad_bottom, mode.pad_left, mode.pad_right)


def test_exactly_13_modes():
    modes = all_padding_modes()
    assert len(modes) == 13
    names = {m.short_name() for m in modes}
    assert "TB" not in names and "TBL" not in names and "TBR" not in names
    assert {"-", "TL", "TBLR", "LR", "TLR", "BLR"} <= names


def test_mode_of_rejects_unsupported():
    with pytest.raises(ValueError):
        PaddingMode.of("TB")
    assert PaddingMode.of("-") == PaddingMode.none()
    assert PaddingMode.of("TBLR") == PaddingMode.all_edges()


def test_configure_geometry_examples():
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    assert (lb.padded_height, lb.padded_width) == (6, 6)
    lb = LineBuffer(4, 4, PaddingMode.none(), window=3)
    assert (lb.padded_height, lb.padded_width) == (4, 4)
    assert lb.expected_windows() == 4  # 2x2 valid positions
    lb = LineBuffer(60, 45, PaddingMode.of("TL"), window=2)  # width, height
    assert (lb.padded_height, lb.padded_width) == (46, 61)


def test_first_window_and_count_full_padding():
    """4x4 raster 1..16, zero ring: the first emitted window and the total."""
    data = np.arange(1, 17, dtype=np.int8).reshape(4, 4, 1)
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    windows = []
    for pix in data.reshape(-1, 1):
        windows.extend(lb.push(pix))
    assert len(windows) == 16
    first = windows[0][:, :, 0]
    assert np.array_equal(first, [[0, 0, 0], [0, 1, 2], [0, 5, 6]])


def test_priming_slot_count():
    # first window appears after (K-1) * paddedWidth + K padded-raster slots
    data = np.arange(1, 17, dtype=np.int8).reshape(4, 4, 1)
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    assert lb.priming_slots == 2 * 6 + 3
    emitted_at = None
    for pix in data.reshape(-1, 1):
        if lb.push(pix) and emitted_at is None:
            emitted_at = lb.first_window_slot
    assert emitted_at == lb.priming_slots == 15


def test_tiny_deconv_prepad_window():
    t = QTensor(np.array([[[3], [4]], [[5], [6]]], np.int8), 0)
    ws = window_stream(t, PaddingMode.of("TL"), 2)
    assert len(ws) == 4
    assert np.array_equal(ws[0][:, :, 0], [[0, 0], [0, 3]])
    assert np.array_equal(ws[3][:, :, 0], [[3, 4], [5, 6]])


def test_no_padding_window2_count():
    t = QTensor(np.zeros((5, 7, 2), np.int8), 0)
    assert len(window_stream(t, PaddingMode.none(), 2)) == 4 * 6


def test_push_after_complete_rejected():
    lb = LineBuffer(2, 2, PaddingMode.none(), window=2)
    pix = np.zeros(1, np.int8)
    for _ in range(4):
        lb.push(pix)
    assert lb.frame_complete
    with pytest.raises(RuntimeError):
        lb.push(pix)


def test_emission_cadence_steady_state():
    """After priming, every pushed pixel yields exactly one window (full pad)."""
    lb = LineBuffer(8, 8, PaddingMode.all_edges(), window=3)
    pix = np.zeros(3, np.int8)
    seen_first = False
    for i in range(64):
        out = lb.push(pix)
        if seen_first and i % 8 not in (0, 7):
            # interior of a row: no boundary flushes in flight
            assert len(out) >= 1
        if out:
            seen_first = True


@pytest.mark.parametrize("mode", all_padding_modes(),
                         ids=lambda m: m.short_name() or "none")
@pytest.mark.parametrize("window", [2, 3])
def test_window_stream_matches_slicing_oracle(mode, window):
    rng = np.random.default_rng(42)
    t = QTensor(rng.integers(-128, 128, (8, 8, 3)).astype(np.int8), 0)
    got = window_stream(t, mode, window)
    want = windows_by_slicing(t.data, _pads(mode), window)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3),
       st.sampled_from(all_padding_modes()), st.sampled_from([2, 3]),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_window_stream_property(h, w, c, mode, window, seed):
    ph = h + mode.pad_top + mode.pad_bottom
    pw = w + mode.pad_left + mode.pad_right
    if ph < window or pw < window:
        return
    rng = np.random.default_rng(seed)
    t = QTensor(rng.integers(-128, 128, (h, w, c)).astype(np.int8), 0)
    got = window_stream(t, mode, window)
    want = windows_by_slicing(t.data, _pads(mode), window)
    assert len(got) == len(want)
    for g, ww in zip(got, want):
        assert np.array_equal(g, ww)
