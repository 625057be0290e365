"""Software model of a unified convolution/deconvolution accelerator.

Bit-exact int8 datapath (quantize, 3x3 convolution, patch-decomposed 2x
deconvolution, pooling, folded batch-norm requantization) together with a
cycle-level timing model of the PE array, line buffers and controller.
"""

from .qtensor import (
    ACC_MAX,
    ACC_MIN,
    AccumulatorOverflow,
    KernelSet,
    Q8_MAX,
    Q8_MIN,
    QTensor,
    Requant,
    dequantize,
    identity_kernel_set,
    quantize,
    quantize_array,
    requantize,
    requantize_array,
    round_half_away,
)
from .linebuffer import LineBuffer, PaddingMode, all_padding_modes, window_stream
from .oracle import (
    OpCounters,
    avgpool_ref,
    bn_act_ref,
    conv2d_ref,
    deconv_naive,
    maxpool_ref,
)
from .patchdeconv import (
    Patch2x2,
    Window2x2,
    deconv_full,
    deconv_patch,
    pad_for_patches,
    rotate180,
)
from .pearray import HwConfig, PeArray, PeMode, RequantOverflow, fuse_bn
from .datapath import (
    CapacityError,
    CycleReport,
    LayerCommand,
    PostOps,
    ShapeMismatch,
    check_layer_capacity,
    compute_out_shape,
    layer_command,
    layer_report,
    run_layer,
)
from .controller import (
    BnParams,
    ExecutedCommand,
    ExecutionError,
    LayerSpec,
    NetDescription,
    NetParseError,
    Program,
    compile_network,
    execute,
    load_net,
    net_from_json,
    net_to_json,
    pack_weights,
    parse_weight_image,
    program_from_text,
    program_to_text,
    reference_composition,
    save_net,
    segnet_basic_preset,
    weight_image,
)
from .perf import (
    LatencyScenario,
    PerfReport,
    conv_cycles_analytic,
    deconv_cycles_analytic,
    dsp_equiv,
    effective_gops,
    latency_scenario,
    peak_gops,
    perf_report,
    utilization,
)
from .fileio import (
    ppm_to_tensor,
    read_tensor,
    tensor_bytes,
    tensor_to_ppm,
    write_tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
