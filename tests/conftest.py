"""Shared test scaffolding: the tests directory on sys.path (for
reference_impls), random nets and random real-valued layer parameters."""
import os
import sys

import numpy as np
from hypothesis import strategies as st

from ucda.controller import BnParams, LayerSpec, NetDescription, default_padding
from ucda.datapath import COMPUTE_OPS, POOL_OPS, compute_out_shape

sys.path.insert(0, os.path.dirname(__file__))


def _rand_params(net, seed):
    """pack_weights' real-valued weights, batch-norm statistics (gammas in
    [0.5, 1.5]) and biases for every conv/deconv stage of net."""
    rng = np.random.default_rng(seed)
    weights, bns, biases = [], [], []
    for spec, (ins, outs, _, _) in zip(net.layers, net.chain()):
        if spec.kind not in ("conv3x3", "deconv2x"):
            continue
        cin, cout = ins[2], outs[2]
        weights.append(rng.normal(0.0, 0.2, (cout, cin, 3, 3)))
        bns.append(BnParams(
            gamma=rng.uniform(0.5, 1.5, cout), beta=rng.uniform(-0.5, 0.5, cout),
            mean=rng.uniform(-0.2, 0.2, cout), var=rng.uniform(0.25, 1.0, cout)))
        biases.append(rng.uniform(-0.1, 0.1, cout))
    return weights, bns, biases


# one stage's draws, made for every stage whatever its kind, so that each
# example is the same sequence of choices and none is thrown away
_STAGE = st.tuples(
    st.sampled_from(["conv3x3", "deconv2x", "maxpool", "avgpool", "identity"]),
    st.integers(1, 16), st.sampled_from(["none", "relu", "leaky"]),
    st.sampled_from(["none", "max", "avg"]), st.one_of(st.none(), st.integers(-16, 0)))


@st.composite
def nets(draw):
    """Nets of up to three stages over a small input, valid by construction:
    each stage's output shape is tracked, and a pool stage or an attached
    pool on odd dims becomes an identity stage or no pool. Every stage
    kind, activation and attachment is reachable."""
    shape = (draw(st.sampled_from([2, 4, 8])), draw(st.sampled_from([2, 4, 8])),
             draw(st.integers(1, 4)))
    input_shape, layers = shape, []
    for _ in range(draw(st.integers(0, 3))):
        kind, cout, act, pool, scale = draw(_STAGE)
        if kind in POOL_OPS and (shape[0] % 2 or shape[1] % 2):
            kind = "identity"
        mode = default_padding(kind)
        if kind in COMPUTE_OPS:
            h, w, _ = compute_out_shape(kind, shape, mode, cout)
            spec = LayerSpec(kind, cout, act, "none" if h % 2 or w % 2 else pool, scale)
        else:
            spec = LayerSpec(kind, shape[2])
        shape = compute_out_shape(kind, shape, mode, spec.out_channels, spec.pool)
        layers.append(spec)
    return NetDescription(input_shape, draw(st.integers(-16, 0)), layers)
