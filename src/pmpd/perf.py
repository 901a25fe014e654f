"""Analytical hardware performance model.

Roofline accounting for an LLM accelerator: per decode step the weights
(at the active bitwidth, plus f32 group scales) and the KV history cross the
memory bus while the MAC array does 2 ops per parameter; latency is the max
of the two when compute/memory overlap, their sum otherwise. Prefill runs
the same compute for every prompt token against a single weight pass, which
is why raising only the prefill precision barely moves end-to-end latency.
The fp16 baseline is modeled as 16-bit weights with no scale overhead, and
each KV row moved as the footprint's ``kv_bytes_per_token`` (0: no KV traffic).

A second, measurement-driven mode weights externally profiled per-precision
GPU kernel latencies by the number of decode steps spent at each precision.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping

from .errors import ConfigError, InputError
from .quant import FULL_PRECISION
from .schedule import PrecisionSchedule, avg_bitwidth
from .util import json_bool, json_float, json_int, json_int_key, parsing

SCALE_BYTES_PER_GROUP = 8  # f32 min + f32 step


@dataclass(frozen=True)
class HardwareConfig:
    """MAC array size, clock and off-chip bandwidth of the modeled device."""

    mac_units: int
    clock_hz: float
    mem_bw_bytes_per_s: float
    overlap: bool = True  # compute/memory overlap => roofline max, else sum

    def __post_init__(self):
        if not all(0 < x < math.inf
                   for x in (self.mac_units, self.clock_hz, self.mem_bw_bytes_per_s)):
            raise ConfigError("hardware parameters must all be positive and finite")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "HardwareConfig":
        with parsing("hardware JSON"):
            return cls(json_int(obj["mac_units"]), json_float(obj["clock_hz"]),
                       json_float(obj["mem_bw_bytes_per_s"]),
                       json_bool(obj.get("overlap", True), "hardware 'overlap'"))


# the two accelerator configurations used throughout: 4K MACs for
# mobile-scale models, 16K for ~7B models, both 1 GHz and 32 GB/s
NPU_4K = HardwareConfig(4096, 1e9, 32e9)
NPU_16K = HardwareConfig(16384, 1e9, 32e9)
HARDWARE_PRESETS = {"npu-4k": NPU_4K, "npu-16k": NPU_16K}


@dataclass(frozen=True)
class ModelFootprint:
    """Parameter and KV-traffic volumes of a deployed model."""

    attn_params: int
    mlp_params: int
    embed_params: int
    n_layers: int
    kv_bytes_per_token: int  # K+V rows across all layers, 16-bit elements
    group_size: int = 64

    def __post_init__(self):
        if min(self.attn_params, self.mlp_params, self.embed_params, self.kv_bytes_per_token) < 0:
            raise ConfigError("parameter counts and KV bytes must be non-negative")
        if self.total_params <= 0 or self.group_size < 1:
            raise ConfigError("footprint must have parameters and group_size >= 1")

    @property
    def total_params(self) -> int:
        return self.attn_params + self.mlp_params + self.embed_params

    @classmethod
    def llama_like(cls, n_layers: int, d_model: int, d_ff: int, vocab_size: int,
                   group_size: int = 64) -> "ModelFootprint":
        """Footprint of a gated-MLP decoder: 4 d^2 attention and 3 d*d_ff MLP
        parameters per layer, untied embedding and head."""
        return cls(attn_params=4 * d_model * d_model * n_layers,
                   mlp_params=3 * d_model * d_ff * n_layers,
                   embed_params=2 * vocab_size * d_model,
                   n_layers=n_layers,
                   kv_bytes_per_token=2 * d_model * 2 * n_layers,
                   group_size=group_size)

    @classmethod
    def from_model_config(cls, cfg, group_size: int = 64) -> "ModelFootprint":
        return cls.llama_like(cfg.n_layers, cfg.d_model, cfg.d_ff, cfg.vocab_size,
                              group_size)

    def weight_bytes(self, p: int) -> float:
        """Bytes of one full weight pass at precision ``p``; fp16 carries no
        scale metadata."""
        if p == FULL_PRECISION:
            return self.total_params * 2.0
        return self.total_params * p / 8.0 + SCALE_BYTES_PER_GROUP * self.total_params / self.group_size

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelFootprint":
        with parsing("footprint JSON"):
            return cls(*(json_int(obj[key]) for key in (
                "attn_params", "mlp_params", "embed_params", "n_layers", "kv_bytes_per_token")),
                       json_int(obj.get("group_size", 64)))


FOOTPRINT_PRESETS = {
    "vicuna-7b": ModelFootprint.llama_like(32, 4096, 11008, 32000),
    "mobilellama-1.4b": ModelFootprint.llama_like(24, 2048, 5632, 32000),
    "zephyr-3b": ModelFootprint.llama_like(32, 2560, 6912, 50304),
}


def _weight_pass_latency(fp: ModelFootprint, p: int, hw: HardwareConfig, tokens: int,
                         kv_rows: int) -> float:
    """The one roofline: seconds for one pass over the weights at precision
    ``p`` that computes ``tokens`` tokens and moves ``kv_rows`` KV rows, the
    max of compute and memory time when they overlap, their sum otherwise."""
    if p < 1:
        raise ConfigError(f"precision must be >= 1, got {p}")
    memory = fp.weight_bytes(p) + fp.kv_bytes_per_token * kv_rows
    compute = 2.0 * fp.total_params * tokens / (hw.mac_units * hw.clock_hz)
    memory_s = memory / hw.mem_bw_bytes_per_s
    return max(compute, memory_s) if hw.overlap else compute + memory_s


def decode_token_latency(fp: ModelFootprint, p: int, hw: HardwareConfig,
                         kv_tokens: int = 0) -> float:
    """Seconds for one decode step at precision ``p`` with ``kv_tokens`` of
    cached history to read (plus one KV row written)."""
    return _weight_pass_latency(fp, p, hw, 1, kv_tokens + 1)


def prefill_latency(fp: ModelFootprint, p: int, hw: HardwareConfig,
                    prompt_len: int) -> float:
    """Seconds to prefill ``prompt_len`` tokens: compute for every token
    against a single weight pass (plus the prompt's KV writes)."""
    if prompt_len < 1:
        raise InputError(f"prompt_len must be >= 1, got {prompt_len}")
    return _weight_pass_latency(fp, p, hw, prompt_len, prompt_len)


@dataclass
class PerfReport:
    """Modeled latencies and speedups of one schedule on one device."""

    prefill_s: float
    decode_s: float
    total_s: float
    tokens_per_s: float
    speedup_vs_fp16: float
    avg_bitwidth: float
    prefill_uplift_pct: float
    per_precision_decode_s: dict[int, float]
    fp16_total_s: float
    uniform_high_total_s: float
    uniform_high_speedup: float
    prompt_len: int
    gen_len: int
    schedule: dict

    def to_json(self) -> dict:
        return {**self.__dict__, "per_precision_decode_s": {
            str(k): v for k, v in self.per_precision_decode_s.items()}}


def _check_gen_len(schedule: PrecisionSchedule, gen_len: int) -> None:
    """Refuse a ``gen_len`` below 1 or past the schedule's horizon."""
    if gen_len < 1:
        raise InputError(f"gen_len must be >= 1, got {gen_len}")
    if gen_len > schedule.horizon:
        raise InputError(f"gen_len {gen_len} exceeds the schedule horizon {schedule.horizon}")


def pipeline_perf(fp: ModelFootprint, schedule: PrecisionSchedule, hw: HardwareConfig,
                  prompt_len: int, gen_len: int) -> PerfReport:
    """End-to-end model of prefill plus scheduled decoding, with the fp16 and
    uniform-high baselines evaluated on the same device for comparison."""
    _check_gen_len(schedule, gen_len)

    def phases(s: PrecisionSchedule) -> tuple[float, float, float]:
        """Prefill, decode and total seconds of ``s``: the prompt in one weight
        pass at ``p_prefill``, then decode step ``i`` at token ``i``'s
        precision, reading ``prompt_len + i`` KV rows and writing one."""
        pre = prefill_latency(fp, s.p_prefill, hw, prompt_len)
        dec = sum(decode_token_latency(fp, p, hw, prompt_len + i)
                  for i, p in enumerate(s.token_precisions(gen_len)))
        return pre, dec, pre + dec

    pre, dec, total = phases(schedule)
    high_pre, _, high_total = phases(PrecisionSchedule.constant(schedule.precisions.p_max,
                                                                schedule.horizon))
    *_, fp16_total = phases(PrecisionSchedule.constant(FULL_PRECISION, schedule.horizon))

    return PerfReport(
        prefill_s=pre, decode_s=dec, total_s=total,
        tokens_per_s=gen_len / dec,
        speedup_vs_fp16=fp16_total / total,
        avg_bitwidth=avg_bitwidth(schedule, gen_len),
        prefill_uplift_pct=(pre - high_pre) / total * 100.0,
        per_precision_decode_s={p: decode_token_latency(fp, p, hw, prompt_len)
                                for p in sorted(set(schedule.token_precisions(gen_len)))},
        fp16_total_s=fp16_total,
        uniform_high_total_s=high_total,
        uniform_high_speedup=fp16_total / high_total,
        prompt_len=prompt_len, gen_len=gen_len,
        schedule=schedule.to_json(),
    )


def weighted_gpu_latency(latency_us: Mapping[int, float], schedule: PrecisionSchedule,
                         gen_len: int) -> tuple[float, float]:
    """Decode-step-weighted mean of measured per-precision kernel latencies,
    and its speedup over the fp16 kernel."""
    _check_gen_len(schedule, gen_len)
    with parsing("latency table (integer precisions to microseconds)"):
        table = {json_int_key(k): json_float(v) for k, v in latency_us.items()}
    if not all(math.isfinite(v) and v > 0 for v in table.values()):
        raise InputError(f"latency table values must be positive and finite: {table}")
    counts = Counter(schedule.token_precisions(gen_len))  # first-seen order
    for p in (FULL_PRECISION, *counts):
        if p not in table:
            raise InputError(f"latency table lacks precision {p}")
    if len(counts) == 1:
        weighted = table[next(iter(counts))]
    else:
        weighted = sum(n * table[p] for p, n in counts.items()) / gen_len
    return weighted, table[FULL_PRECISION] / weighted
