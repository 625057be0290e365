"""Shared test scaffolding: the tests directory on sys.path (for
reference_impls), random nets and random real-valued layer parameters."""
import os
import sys

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from ucda.controller import BnParams, LayerSpec, NetDescription, NetParseError

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


@st.composite
def nets(draw):
    """Valid nets of up to three stages over a small input, every stage
    kind and attachment drawn."""
    layers = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["conv3x3", "deconv2x", "maxpool",
                                     "avgpool", "identity"]))
        if kind in ("conv3x3", "deconv2x"):
            layers.append(LayerSpec(
                kind, draw(st.integers(1, 16)),
                draw(st.sampled_from(["none", "relu", "leaky"])),
                draw(st.sampled_from(["none", "max", "avg"])),
                draw(st.one_of(st.none(), st.integers(-16, 0)))))
        else:
            layers.append(LayerSpec(kind, draw(st.integers(1, 16))))
    shape = tuple(draw(st.sampled_from([2, 4, 8])) for _ in range(2))
    try:
        return NetDescription((*shape, draw(st.integers(1, 4))),
                              draw(st.integers(-16, 0)), layers)
    except NetParseError:
        assume(False)
