"""Hand-rolled reference implementations used as independent oracles.

Everything in here is deliberately literal — explicit loops over Python
ints, explicit zero insertion, real-valued arithmetic — and avoids the
package's compute modules entirely so a shared bug cannot cancel out.
"""
import math

import numpy as np


def rhafz(x: float) -> int:
    """Round half away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def clamp8(v: int) -> int:
    return max(-128, min(127, v))


def pad_grid(data, top, bottom, left, right):
    """Zero-pad an (h, w, c) array by whole rows/columns, python-int grid."""
    h, w, c = data.shape
    ph, pw = h + top + bottom, w + left + right
    grid = [[[0] * c for _ in range(pw)] for _ in range(ph)]
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                grid[y + top][x + left][ch] = int(data[y, x, ch])
    return grid, ph, pw


def conv3x3_loops(data, weights, bias, pads):
    """Quadruple-loop 3x3 convolution; pads = (top, bottom, left, right).

    Returns a plain nested list of accumulator ints, shape
    (ph-2, pw-2, cout).
    """
    grid, ph, pw = pad_grid(np.asarray(data), *pads)
    weights = np.asarray(weights)
    cout, cin = weights.shape[0], weights.shape[1]
    out = []
    for y in range(ph - 2):
        row = []
        for x in range(pw - 2):
            pix = []
            for co in range(cout):
                acc = int(bias[co])
                for ci in range(cin):
                    for u in range(3):
                        for v in range(3):
                            acc += grid[y + u][x + v][ci] * int(weights[co, ci, u, v])
                pix.append(acc)
            row.append(pix)
        out.append(row)
    return out


def deconv_loops(data, rotated_weights, bias, exact_double=True):
    """Transposed conv via explicit zero insertion + conv3x3_loops."""
    data = np.asarray(data)
    h, w, c = data.shape
    exp = np.zeros((2 * h + 1, 2 * w + 1, c), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            exp[2 * y + 1, 2 * x + 1] = data[y, x]
    pads = (1, 0, 1, 0) if exact_double else (0, 0, 0, 0)
    return conv3x3_loops(exp, rotated_weights, bias, pads)


def patch_equations(window, kernel):
    """One 2x2 window against one pre-rotated 3x3 kernel, the four patch
    equations written out: (top-left, top-right, bottom-left, bottom-right).
    """
    (tl, tr), (bl, br) = [[int(v) for v in row] for row in np.asarray(window)]
    k = [[int(v) for v in row] for row in np.asarray(kernel)]
    return (tl * k[0][0] + tr * k[0][2] + bl * k[2][0] + br * k[2][2],
            tr * k[0][1] + br * k[2][1],
            bl * k[1][0] + br * k[1][2],
            br * k[1][1])


def windows_by_slicing(data, pads, k, stride=1):
    """Pad then slice every KxK region in raster order (the window oracle)."""
    data = np.asarray(data)
    t, b, l, r = pads
    padded = np.pad(data, ((t, b), (l, r), (0, 0)))
    ph, pw, _ = padded.shape
    out = []
    for y in range(0, ph - k + 1, stride):
        for x in range(0, pw - k + 1, stride):
            out.append(padded[y:y + k, x:x + k, :].copy())
    return out


def activation_loops(data, act, leaky_shift=3):
    """Elementwise activation over Python ints.

    'leaky' divides negatives by 2**leaky_shift rounding toward -inf (away
    from zero), the arithmetic-shift rule.
    """
    data = np.asarray(data)
    out = np.zeros(data.shape, dtype=np.int64)
    for idx in np.ndindex(*data.shape):
        v = int(data[idx])
        if act == "relu":
            v = max(v, 0)
        elif act == "leaky" and v < 0:
            v = v // (2 ** leaky_shift)
        out[idx] = v
    return out


def maxpool_loops(data):
    data = np.asarray(data)
    h, w, c = data.shape
    out = np.zeros((h // 2, w // 2, c), dtype=np.int64)
    for y in range(0, h, 2):
        for x in range(0, w, 2):
            for ch in range(c):
                out[y // 2, x // 2, ch] = max(
                    int(data[y, x, ch]), int(data[y, x + 1, ch]),
                    int(data[y + 1, x, ch]), int(data[y + 1, x + 1, ch]))
    return out


def avgpool_loops(data):
    data = np.asarray(data)
    h, w, c = data.shape
    out = np.zeros((h // 2, w // 2, c), dtype=np.int64)
    for y in range(0, h, 2):
        for x in range(0, w, 2):
            for ch in range(c):
                s = (int(data[y, x, ch]) + int(data[y, x + 1, ch])
                     + int(data[y + 1, x, ch]) + int(data[y + 1, x + 1, ch]))
                q, rem = divmod(abs(s), 4)
                out[y // 2, x // 2, ch] = q if s >= 0 else -q
    return out


def bn_real(acc, gamma, beta, mean, var, eps, in_scale_exp, w_scale_exp,
            out_scale_exp, act="none", leaky_shift=3):
    """Real-arithmetic conv->BN->activation->quantize path for one value.

    acc is the integer convolution accumulator at scale
    2^(in_scale_exp + w_scale_exp).
    """
    x = acc * 2.0 ** (in_scale_exp + w_scale_exp)
    y = gamma / math.sqrt(var + eps) * (x - mean) + beta
    if act == "relu":
        y = max(y, 0.0)
    elif act == "leaky" and y < 0:
        y = y * 2.0 ** -leaky_shift
    return clamp8(rhafz(y / 2.0 ** out_scale_exp))
