"""Stream-to-window conversion: a K-row line buffer.

A raster-order stream enters one row at a time into a ring of the last K
padded rows, so every padded row past the first K-1 completes one KxK
window per slot past its first K-1 columns. Zeros fill the edges named by
the pre-loaded padding mode, so the core never sees a special case at
borders.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qtensor import QTensor

EDGE_TOP = "top"
EDGE_BOTTOM = "bottom"
EDGE_LEFT = "left"
EDGE_RIGHT = "right"
_EDGE_ORDER = (EDGE_TOP, EDGE_BOTTOM, EDGE_LEFT, EDGE_RIGHT)
_EDGE_CHARS = {"T": EDGE_TOP, "B": EDGE_BOTTOM, "L": EDGE_LEFT, "R": EDGE_RIGHT}

# The tile positions produced by row-major 2-D tiling: interior, four edges,
# four corners, and the full-width / full-frame strips. Full-height strips
# (top+bottom without left or right) never occur, which leaves 13 modes.
SUPPORTED_MODES = frozenset(
    frozenset(_EDGE_CHARS[c] for c in s)
    for s in (
        "", "T", "B", "L", "R",
        "TL", "TR", "BL", "BR",
        "LR", "TLR", "BLR", "TBLR",
    )
)


@dataclass(frozen=True)
class PaddingMode:
    """An edge subset telling the padding controller where to inject zeros."""

    edges: frozenset

    def __post_init__(self):
        edges = frozenset(self.edges)
        object.__setattr__(self, "edges", edges)
        bad = edges - set(_EDGE_ORDER)
        if bad:
            raise ValueError(f"unknown edges {sorted(bad)}")
        if edges not in SUPPORTED_MODES:
            raise ValueError(
                f"unsupported padding mode {self.short_name()!r}: "
                "top+bottom without a horizontal edge pair never occurs"
            )

    @classmethod
    def of(cls, spec: str) -> "PaddingMode":
        """Build from a compact string like 'TL', 'TBLR' or '-' (none)."""
        spec = spec.strip()
        if spec in ("", "-"):
            return cls(frozenset())
        try:
            edges = frozenset(_EDGE_CHARS[c] for c in spec)
        except KeyError as e:
            raise ValueError(f"unknown edge letter in {spec!r}") from e
        if len(edges) < len(spec):
            raise ValueError(f"repeated edge letter in {spec!r}")
        return cls(edges)

    @classmethod
    def none(cls) -> "PaddingMode":
        return cls(frozenset())

    @classmethod
    def all_edges(cls) -> "PaddingMode":
        return cls(frozenset(_EDGE_ORDER))

    def short_name(self) -> str:
        s = "".join(c for c in "TBLR" if _EDGE_CHARS[c] in self.edges)
        return s or "-"

    def __iter__(self) -> Iterator[str]:
        return iter(e for e in _EDGE_ORDER if e in self.edges)

    @property
    def pad_top(self) -> int:
        return int(EDGE_TOP in self.edges)

    @property
    def pad_bottom(self) -> int:
        return int(EDGE_BOTTOM in self.edges)

    @property
    def pad_left(self) -> int:
        return int(EDGE_LEFT in self.edges)

    @property
    def pad_right(self) -> int:
        return int(EDGE_RIGHT in self.edges)

    def padded(self, height: int, width: int):
        """(height, width) of a frame once this mode's zero edges are added."""
        return height + self.pad_top + self.pad_bottom, width + self.pad_left + self.pad_right


def window_grid(height: int, width: int, window: int):
    """(rows, columns) of KxK windows over a height x width padded frame;
    ValueError if the frame holds none."""
    if height < window or width < window:
        raise ValueError(f"padded {height}x{width} too small for a {window}x{window} window")
    return height - window + 1, width - window + 1


def priming_slots(width: int, window: int) -> int:
    """Slots of a width-wide padded stream before its first KxK window: K-1 rows + K."""
    return (window - 1) * width + window


def all_padding_modes() -> List[PaddingMode]:
    """The 13 supported modes in a stable order (by short name)."""
    modes = [PaddingMode(m) for m in SUPPORTED_MODES]
    modes.sort(key=lambda m: (len(m.edges), m.short_name()))
    return modes


class LineBuffer:
    """Stateful window generator for one frame.

    Construct with the unpadded frame geometry, a padding mode and the
    window size (grid is the frame's window_grid, which rejects a frame
    that holds no window), then push real rows in raster order. Each push
    returns the windows that became complete: past priming, one row of
    windows per padded row, and the final push adds the bottom padding row's.

    Storage is one zeroed (K, padded_width, C) ring: padded row y is written
    to ring row y % K, real columns only, so pad columns stay zero and the
    zeroed ring already holds a top padding row. The windows ending on row y
    are ring rows (y + 1 + i) % K, i = 0..K-1, read out as one copy and
    slid along the row, so a window the caller holds never changes.
    """

    def __init__(self, width: int, height: int, mode: PaddingMode,
                 window: int):
        if window not in (2, 3):
            raise ValueError(f"window must be 2 or 3, got {window}")
        if width < 1 or height < 1:
            raise ValueError("frame must be at least 1x1")
        self.width = width
        self.height = height
        self.mode = mode
        self.window = window
        self.padded_height, self.padded_width = mode.padded(height, width)
        self.grid = window_grid(self.padded_height, self.padded_width, window)
        self._ring = None        # allocated by the first push, which fixes C
        self._row = mode.pad_top  # padded row the next push writes
        self.frame_complete = False

    def _windows(self, y: int) -> np.ndarray:
        """The (n, K, K, C) windows ending on padded row y; none before K-1."""
        k = self.window
        rows = self._ring[[(y + 1 + i) % k for i in range(k)]]
        win = sliding_window_view(rows, k, axis=1).transpose(1, 0, 3, 2)
        return win[:0] if y < k - 1 else win

    def push(self, row) -> np.ndarray:
        """Feed the next real row, (width, C); returns its windows, (n, K, K, C)."""
        if self.frame_complete:
            raise RuntimeError("push after the frame completed")
        row = np.asarray(row)
        channels = "C" if self._ring is None else self._ring.shape[2]
        if row.ndim != 2 or len(row) != self.width or channels not in ("C", row.shape[1]):
            raise ValueError(f"a row is ({self.width}, {channels}), got {row.shape}")
        if self._ring is None:
            self._ring = np.zeros((self.window, self.padded_width, row.shape[1]),
                                  dtype=row.dtype)
        y, k, left = self._row, self.window, self.mode.pad_left
        self._ring[y % k, left:left + self.width] = row
        out = [self._windows(y)]
        self._row = y = y + 1
        if y == self.mode.pad_top + self.height:
            if self.mode.pad_bottom:
                self._ring[y % k] = 0
                out.append(self._windows(y))
            self.frame_complete = True
        return np.concatenate(out)


def window_stream(input: QTensor, mode: PaddingMode, window: int):
    """The one loop that streams a frame through a LineBuffer, one row per
    push (the last also streams the bottom padding row). Yields per row of
    windows, in raster order, the padded slots streamed when its first window
    completed and its windows, (n, K, K, C)."""
    data = input.data if isinstance(input, QTensor) else np.asarray(input)
    if data.ndim != 3:
        raise ValueError("expected (h, w, c) input")
    lb = LineBuffer(data.shape[1], data.shape[0], mode, window)
    pw, cols = lb.padded_width, lb.grid[1]
    streamed = mode.pad_top * pw
    for row in data:
        wins = lb.push(row)
        streamed += pw * (1 + (lb.frame_complete and mode.pad_bottom))
        n = len(wins) // cols   # rows of windows, ending on the last n padded rows
        for i in range(n):
            yield streamed - (n - i) * pw + window, wins[i * cols:(i + 1) * cols]
