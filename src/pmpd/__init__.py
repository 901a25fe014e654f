"""Progressive mixed-precision decoding for a toy decoder-only transformer.

Store weights once as nested bit planes, prefill and decode at independently
chosen precisions, lower the decode precision over the generated sequence
via static or learned schedulers, and model the resulting speedups with a
roofline hardware model.
"""

from .errors import ConfigError, ContractViolation, FormatError, InputError, PmpdError
from .quant import (BitPlaneStore, PrecisionSet, QuantizedTensor, dequantize,
                    parse_model, quantize_tensor, serialize_model, unpack_prefix)
from .metrics import RougeScore, fidelity, lcs_len, rouge_l
from .schedule import (CalibrationReport, FixedScheduler, PrecisionSchedule,
                       QualityTarget, StaticScheduler, SwitchGrid,
                       allocate_phase_precisions, avg_bitwidth, count_schedules,
                       enumerate_switch_maps, solve_static)
from .tinylm import (BYTE_EOS_ID, FULL_PRECISION, ByteTokenizer, GenerationTrace,
                     KVCache, ModelConfig, ModelVariants, SamplerConfig,
                     VocabTokenizer, decode_step, forward_full, generate, prefill,
                     sample)
from .learnsched import (LabeledExample, LearnedScheduler, SchedulerNet, TrainConfig,
                         generate_labels, pool_kv, predict_schedule, train)
from .perf import (FOOTPRINT_PRESETS, NPU_4K, NPU_16K, HardwareConfig,
                   ModelFootprint, PerfReport, decode_token_latency, pipeline_perf,
                   prefill_latency, weighted_gpu_latency)

__version__ = "0.1.0"
