"""Stream-to-window conversion: a K-row line buffer.

A raster-order pixel stream enters one element per slot into a ring of the
last K padded rows, so every slot past the first K-1 rows and K-1 columns
completes one KxK window. A small padding controller walks the padded
raster and injects zero elements for the edges named by the pre-loaded
padding mode, so the core never sees a special case at borders.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

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
            return cls(frozenset(_EDGE_CHARS[c] for c in spec))
        except KeyError as e:
            raise ValueError(f"unknown edge letter in {spec!r}") from e

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

    def __contains__(self, edge: str) -> bool:
        return edge in self.edges

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


def all_padding_modes() -> List[PaddingMode]:
    """The 13 supported modes in a stable order (by short name)."""
    modes = [PaddingMode(m) for m in SUPPORTED_MODES]
    modes.sort(key=lambda m: (len(m.edges), m.short_name()))
    return modes


class LineBuffer:
    """Stateful window generator for one frame.

    Construct with the unpadded frame geometry, a padding mode and the
    window size, then push real pixels in raster order. Each push returns
    the windows that became complete; in steady state that is one window
    per padded slot, and the final push flushes any trailing padding.

    Storage is one zeroed (K, padded_width, C) ring: padded slot (y, x) is
    written to ring row y % K, so the window ending at (y, x) is ring rows
    (y + 1 + i) % K, i = 0..K-1, at columns x-K+1..x. Each window is read
    out as a copy, so a window the caller holds never changes.
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
        self.padded_width = width + mode.pad_left + mode.pad_right
        self.padded_height = height + mode.pad_top + mode.pad_bottom
        if self.padded_width < window or self.padded_height < window:
            raise ValueError(
                f"padded frame {self.padded_height}x{self.padded_width} "
                f"smaller than window {window}"
            )
        self._ring = None        # allocated by the first push, which fixes C
        self._slots = 0          # padded raster slots consumed
        self._pushed = 0         # real pixels accepted
        self.first_window_slot = None
        self.frame_complete = False

    @property
    def priming_slots(self) -> int:
        """Slots before the first window: (K-1) rows plus K elements."""
        return (self.window - 1) * self.padded_width + self.window

    def expected_windows(self) -> int:
        return ((self.padded_height - self.window + 1)
                * (self.padded_width - self.window + 1))

    def _is_real_slot(self, y: int, x: int) -> bool:
        m = self.mode
        return (m.pad_top <= y < m.pad_top + self.height
                and m.pad_left <= x < m.pad_left + self.width)

    def _advance(self, payload, out: list) -> None:
        k = self.window
        y, x = divmod(self._slots, self.padded_width)
        self._ring[y % k, x] = payload
        self._slots += 1
        if y >= k - 1 and x >= k - 1:
            if self.first_window_slot is None:
                self.first_window_slot = self._slots
            rows = [(y + 1 + i) % k for i in range(k)]
            out.append(self._ring[rows, x - k + 1:x + 1])

    def push(self, pixel) -> list:
        """Feed the next real pixel (a channel vector); returns new windows."""
        if self.frame_complete:
            raise RuntimeError("push after the frame completed")
        pix = np.atleast_1d(pixel)
        if self._ring is None:
            self._ring = np.zeros((self.window, self.padded_width) + pix.shape,
                                  dtype=pix.dtype)
        out: list = []
        while not self._is_real_slot(*divmod(self._slots, self.padded_width)):
            self._advance(0, out)
        self._advance(pix, out)
        self._pushed += 1
        if self._pushed == self.width * self.height:
            total = self.padded_width * self.padded_height
            while self._slots < total:
                self._advance(0, out)
            self.frame_complete = True
        return out


def window_stream(input: QTensor, mode: PaddingMode,
                  window: int) -> List[np.ndarray]:
    """Run a whole frame through the line buffer; windows in raster order.

    The one loop that streams a frame through a LineBuffer. It asserts the
    frame's invariants: the frame completes, yields expected_windows()
    windows, and yields the first of them after priming_slots slots.
    """
    data = input.data if isinstance(input, QTensor) else np.asarray(input)
    if data.ndim != 3:
        raise ValueError("expected (h, w, c) input")
    h, w, c = data.shape
    lb = LineBuffer(w, h, mode, window)
    out: List[np.ndarray] = []
    for pixel in data.reshape(h * w, c):
        out.extend(lb.push(pixel))
    assert lb.frame_complete
    assert len(out) == lb.expected_windows()
    assert lb.first_window_slot == lb.priming_slots
    return out
