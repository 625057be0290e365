"""Patch-decomposed deconvolution: equivalence and operation counts."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucda import datapath
from ucda.datapath import ShapeMismatch
from ucda.oracle import OpCounters, deconv_naive
from ucda.patchdeconv import deconv_full
from ucda.pearray import HwConfig, PeArray, PeMode
from ucda.qtensor import KernelSet, QTensor

import reference_impls as ref


def _ks(weights, bias=None):
    weights = np.asarray(weights, dtype=np.int8)
    cout = weights.shape[0]
    if bias is None:
        bias = np.zeros(cout, np.int32)
    return KernelSet(
        weights=weights, bias=np.asarray(bias, np.int32),
        bn_multiplier=np.full(cout, 16384, np.int16),
        bn_shift=np.zeros(cout, np.uint8), scale_exp=0, rotated=True)


K123 = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], np.int8)


def _patch(window, kernel) -> np.ndarray:
    """One 2x2 window through a one-PE array step: its 2x2 output patch."""
    pe = PeArray(HwConfig(tn=1, tm=1))
    win = np.asarray(window, dtype=np.int64).reshape(1, 1, 2, 2)
    return pe.array_cycle(PeMode.DECONV, win, np.asarray(kernel)[None, None]).reshape(2, 2)


class TestDeconvPatch:
    def test_bottom_right_only(self):
        p = _patch([[0, 0], [0, 1]], K123)
        # only the bottom-right input pixel: taps K33, K32, K23, K22
        assert tuple(p.ravel().tolist()) == (9, 8, 6, 5)

    def test_zero_window(self):
        p = _patch([[0, 0], [0, 0]], K123)
        assert p.tolist() == [[0, 0], [0, 0]]

    def test_worked_example(self):
        p = _patch([[1, 2], [3, 4]], K123)
        assert tuple(p.ravel().tolist()) == (64, 36, 36, 20)

    def test_worked_example_matches_naive_block(self):
        x = QTensor(np.array([[[1], [2]], [[3], [4]]], np.int8), 0)
        ks = _ks(K123.reshape(1, 1, 3, 3))
        naive = deconv_naive(x, ks)
        # the (1,1) window of the top/left-padded input produces the
        # output block at rows 2..3, cols 2..3
        assert naive[2, 2, 0] == 64
        assert naive[2, 3, 0] == 36
        assert naive[3, 2, 0] == 36
        assert naive[3, 3, 0] == 20

    @given(st.integers(-128, 127), st.integers(-128, 127),
           st.integers(-128, 127), st.integers(-128, 127),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_linearity_in_window(self, a, b, c, d, seed):
        k = np.random.default_rng(seed).integers(-16, 16, (3, 3)).astype(np.int8)
        p1 = _patch([[a, b], [c, d]], k)
        p2 = _patch([[2 * a, 2 * b], [2 * c, 2 * d]], k)
        assert np.array_equal(p2, 2 * p1)


class TestDeconvFull:
    def test_2x2_matches_naive(self):
        rng = np.random.default_rng(0)
        x = QTensor(rng.integers(-128, 128, (2, 2, 1)).astype(np.int8), 0)
        ks = _ks(rng.integers(-128, 128, (1, 1, 3, 3)).astype(np.int8), [5])
        got = deconv_full(x, ks)
        want = deconv_naive(x, ks)
        assert got.shape == (4, 4, 1)
        assert np.array_equal(got, want)

    def test_zero_input_gives_bias_everywhere(self):
        ks = _ks(np.zeros((3, 2, 3, 3)), [11, -4, 900])
        out = deconv_full(QTensor(np.zeros((3, 4, 2), np.int8), 0), ks)
        assert np.array_equal(out, np.broadcast_to([11, -4, 900], (6, 8, 3)))

    def test_counter_is_quarter_of_naive(self):
        rng = np.random.default_rng(1)
        x = QTensor(rng.integers(-128, 128, (5, 7, 3)).astype(np.int8), 0)
        ks = _ks(rng.integers(-128, 128, (4, 3, 3, 3)).astype(np.int8))
        cp, cn = OpCounters(), OpCounters()
        deconv_full(x, ks, counters=cp)
        deconv_naive(x, ks, counters=cn)
        assert cp.multiplications == 9 * 5 * 7 * 3 * 4
        assert cn.multiplications == 4 * cp.multiplications

    def test_against_loop_reference(self):
        rng = np.random.default_rng(2)
        x = QTensor(rng.integers(-128, 128, (3, 3, 2)).astype(np.int8), 0)
        w = rng.integers(-128, 128, (2, 2, 3, 3)).astype(np.int8)
        b = rng.integers(-20, 20, 2)
        got = deconv_full(x, _ks(w, b))
        want = np.array(ref.deconv_loops(x.data, w, b))
        assert np.array_equal(got, want)

    def test_rejects_unrotated_weights(self):
        ks = KernelSet(
            weights=np.zeros((1, 1, 3, 3), np.int8), bias=np.zeros(1, np.int32),
            bn_multiplier=np.full(1, 16384, np.int16),
            bn_shift=np.zeros(1, np.uint8), scale_exp=0, rotated=False)
        with pytest.raises(ShapeMismatch, match="pre-rotated"):
            deconv_full(QTensor(np.zeros((2, 2, 1), np.int8), 0), ks)

    def test_rejects_input_channel_mismatch(self):
        ks = _ks(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ShapeMismatch, match="command needs 1x3"):
            deconv_full(QTensor(np.zeros((2, 2, 3), np.int8), 0), ks)

    def test_runs_the_fast_engines_accumulator_stage(self, monkeypatch):
        calls, accumulate_bands = [], datapath.accumulate_bands

        def counted(*args):
            calls.append(args[0])
            return accumulate_bands(*args)

        monkeypatch.setattr(datapath, "accumulate_bands", counted)
        rng = np.random.default_rng(3)
        x = QTensor(rng.integers(-128, 128, (3, 4, 2)).astype(np.int8), 0)
        ks = _ks(rng.integers(-128, 128, (3, 2, 3, 3)).astype(np.int8))
        assert np.array_equal(deconv_full(x, ks), deconv_naive(x, ks))
        assert calls == [PeMode.DECONV]

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, h, w, cin, cout, seed):
        rng = np.random.default_rng(seed)
        x = QTensor(rng.integers(-128, 128, (h, w, cin)).astype(np.int8), 0)
        ks = _ks(rng.integers(-128, 128, (cout, cin, 3, 3)).astype(np.int8),
                 rng.integers(-1000, 1000, cout))
        assert np.array_equal(deconv_full(x, ks), deconv_naive(x, ks))

