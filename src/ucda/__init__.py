"""Software model of a unified convolution/deconvolution accelerator.

Bit-exact int8 datapath (quantize, 3x3 convolution, patch-decomposed 2x
deconvolution, pooling, folded batch-norm requantization) together with a
cycle-level timing model of the PE array, line buffers and controller.

The package re-exports nothing: import from its modules
(``ucda.controller``, ``ucda.perf``, ...) or use the ``ucda`` command.
"""

__version__ = "0.1.0"
