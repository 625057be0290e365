"""Row-stepped K-row line buffer vs the pad-then-slice window oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda.linebuffer import (
    LineBuffer,
    PaddingMode,
    all_padding_modes,
    priming_slots,
    window_grid,
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
    for spec in ("TT", "TLT", "LRR"):
        with pytest.raises(ValueError, match=f"repeated edge letter in '{spec}'"):
            PaddingMode.of(spec)
    assert PaddingMode.of("-") == PaddingMode.none()
    assert PaddingMode.of("TBLR") == PaddingMode.all_edges()


def test_configure_geometry_examples():
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    assert (lb.padded_height, lb.padded_width) == (6, 6)
    lb = LineBuffer(4, 4, PaddingMode.none(), window=3)
    assert (lb.padded_height, lb.padded_width) == (4, 4)
    assert math.prod(window_grid(lb.padded_height, lb.padded_width, 3)) == 4  # 2x2 valid positions
    lb = LineBuffer(60, 45, PaddingMode.of("TL"), window=2)  # width, height
    assert (lb.padded_height, lb.padded_width) == (46, 61)


def test_first_window_and_count_full_padding():
    """4x4 raster 1..16, zero ring: the first emitted window and the total."""
    data = np.arange(1, 17, dtype=np.int8).reshape(4, 4, 1)
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    windows = []
    for row in data:
        windows.extend(lb.push(row))
    assert len(windows) == 16
    first = windows[0][:, :, 0]
    assert np.array_equal(first, [[0, 0, 0], [0, 1, 2], [0, 5, 6]])


def test_priming_slot_count():
    # first window appears after (K-1) * paddedWidth + K padded-raster slots:
    # the push of padded row K-1, the second real row under a top padding row
    data = np.arange(1, 17, dtype=np.int8).reshape(4, 4, 1)
    lb = LineBuffer(4, 4, PaddingMode.all_edges(), window=3)
    assert priming_slots(lb.padded_width, 3) == 2 * 6 + 3 == 15
    assert [len(lb.push(row)) > 0 for row in data] == [False, True, True, True]


def test_tiny_deconv_prepad_window():
    t = QTensor(np.array([[[3], [4]], [[5], [6]]], np.int8), 0)
    ws = np.concatenate([row for _, row in window_stream(t, PaddingMode.of("TL"), 2)])
    assert len(ws) == 4
    assert np.array_equal(ws[0][:, :, 0], [[0, 0], [0, 3]])
    assert np.array_equal(ws[3][:, :, 0], [[3, 4], [5, 6]])


def test_no_padding_window2_count():
    t = QTensor(np.zeros((5, 7, 2), np.int8), 0)
    assert sum(len(row) for _, row in window_stream(t, PaddingMode.none(), 2)) == 4 * 6


def test_push_after_complete_rejected():
    lb = LineBuffer(2, 2, PaddingMode.none(), window=2)
    row = np.zeros((2, 1), np.int8)
    for _ in range(2):
        lb.push(row)
    assert lb.frame_complete
    with pytest.raises(RuntimeError):
        lb.push(row)


def test_emission_cadence_steady_state():
    """After priming, every pushed row yields one row of windows (full pad);
    the last push adds the bottom padding row's."""
    lb = LineBuffer(8, 8, PaddingMode.all_edges(), window=3)
    counts = [len(lb.push(row)) for row in np.zeros((8, 8, 3), np.int8)]
    n = lb.padded_width - 3 + 1
    assert counts == [0] + [n] * 6 + [2 * n]


@pytest.mark.parametrize("mode", all_padding_modes(),
                         ids=lambda m: m.short_name() or "none")
@pytest.mark.parametrize("window", [2, 3])
def test_emission_cadence_every_mode(mode, window):
    """Real row y (padded) yields padded_width - K + 1 windows once y >= K-1,
    and the last push also yields the bottom padding row's; on every frame
    that holds a window, one-row frames included."""
    for h, w in ((4, 5), (1, 1), (1, 4), (2, 3), (3, 3), (4, 6)):
        ph, pw = mode.padded(h, w)
        if ph < window or pw < window:
            continue
        lb = LineBuffer(w, h, mode, window)
        n = pw - window + 1
        want = [n * (mode.pad_top + i >= window - 1) for i in range(h)]
        want[-1] += n * mode.pad_bottom
        rows = np.zeros((h, w, 2), np.int8)
        assert [lb.push(row).shape for row in rows] == [(c, window, window, 2) for c in want]
        assert lb.frame_complete


def test_row_of_wrong_width_rejected():
    lb = LineBuffer(4, 3, PaddingMode.all_edges(), window=3)
    with pytest.raises(ValueError, match="a row is"):
        lb.push(np.zeros((5, 2), np.int8))
    with pytest.raises(ValueError, match="a row is"):
        lb.push(np.zeros(4, np.int8))
    assert len(lb.push(np.zeros((4, 2), np.int8))) == 0   # still at the first row


def test_row_of_other_channel_count_rejected():
    """The first row fixes C; a later row of fewer channels is not broadcast."""
    lb = LineBuffer(3, 3, PaddingMode.none(), window=3)
    lb.push(np.zeros((3, 4), np.int8))
    with pytest.raises(ValueError, match=r"a row is \(3, 4\), got \(3, 1\)"):
        lb.push(np.full((3, 1), 7, np.int8))
    lb.push(np.ones((3, 4), np.int8))
    (win,) = lb.push(np.ones((3, 4), np.int8))
    assert win[:, 0].tolist() == [[0] * 4, [1] * 4, [1] * 4]


@pytest.mark.parametrize("mode", all_padding_modes(),
                         ids=lambda m: m.short_name() or "none")
@pytest.mark.parametrize("window", [2, 3])
def test_first_window_slot_is_priming(mode, window):
    """Counted in padded slots, the first window comes after priming_slots,
    on every mode, one-row frames included: it ends K slots into the padded
    row read off the push that returns it."""
    for h, w in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 6)):
        ph, pw = mode.padded(h, w)
        if ph < window or pw < window:
            continue
        lb = LineBuffer(w, h, mode, window)
        for i, row in enumerate(np.ones((h, w, 1), np.int8)):
            win = lb.push(row)
            if len(win):
                break
        # every window ending on a real row holds a real (nonzero) slot in its
        # last row; one ending on the bottom padding row does not
        y = mode.pad_top + i + (not win[0, -1].any())
        assert y * pw + window == priming_slots(pw, window)


@pytest.mark.parametrize("mode", all_padding_modes(),
                         ids=lambda m: m.short_name() or "none")
@pytest.mark.parametrize("window", [2, 3])
def test_window_stream_counts_priming(mode, window):
    """window_stream's first yield, the slots streamed when the first window
    completed, is priming_slots on every frame of 1-4 rows and columns that
    holds a window."""
    for h in range(1, 5):
        for w in range(1, 5):
            ph, pw = mode.padded(h, w)
            if ph < window or pw < window:
                continue
            slots, _ = next(window_stream(np.ones((h, w, 1), np.int8), mode, window))
            assert slots == priming_slots(pw, window), (h, w)


@pytest.mark.parametrize("mode", all_padding_modes(),
                         ids=lambda m: m.short_name() or "none")
@pytest.mark.parametrize("window", [2, 3])
def test_window_stream_matches_slicing_oracle(mode, window):
    rng = np.random.default_rng(42)
    t = QTensor(rng.integers(-128, 128, (8, 8, 3)).astype(np.int8), 0)
    got = np.concatenate([row for _, row in window_stream(t, mode, window)])
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
    got = np.concatenate([row for _, row in window_stream(t, mode, window)])
    want = windows_by_slicing(t.data, _pads(mode), window)
    assert len(got) == len(want)
    for g, ww in zip(got, want):
        assert np.array_equal(g, ww)
