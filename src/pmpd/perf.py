"""Analytical hardware performance model.

Roofline accounting for an LLM accelerator: per decode step the weights
(at the active bitwidth, plus f32 group scales) and the KV history cross the
memory bus while the MAC array does 2 ops per parameter; latency is the max
of the two when compute/memory overlap, their sum otherwise. Prefill runs
the same compute for every prompt token against a single weight pass, which
is why raising only the prefill precision barely moves end-to-end latency.
The fp16 baseline is modeled as 16-bit weights with no scale overhead.

A second, measurement-driven mode weights externally profiled per-precision
GPU kernel latencies by the number of decode steps spent at each precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigError, InputError
from .quant import FULL_PRECISION
from .schedule import PrecisionSchedule
from .util import json_bool, json_int, parsing

FP16 = FULL_PRECISION
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
        return {"mac_units": self.mac_units, "clock_hz": self.clock_hz,
                "mem_bw_bytes_per_s": self.mem_bw_bytes_per_s, "overlap": self.overlap}

    @classmethod
    def from_json(cls, obj: dict) -> "HardwareConfig":
        with parsing("hardware JSON"):
            return cls(json_int(obj["mac_units"]), float(obj["clock_hz"]),
                       float(obj["mem_bw_bytes_per_s"]),
                       json_bool(obj.get("overlap", True), "hardware 'overlap'"))


# the two accelerator configurations used throughout: 4K MACs for
# mobile-scale models, 16K for ~7B models, both 1 GHz and 32 GB/s
NPU_4K = HardwareConfig(4096, 1e9, 32e9)
NPU_16K = HardwareConfig(16384, 1e9, 32e9)


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
        if p == FP16:
            return self.total_params * 2.0
        return self.total_params * p / 8.0 + SCALE_BYTES_PER_GROUP * self.total_params / self.group_size

    def to_json(self) -> dict:
        return {"attn_params": self.attn_params, "mlp_params": self.mlp_params,
                "embed_params": self.embed_params, "n_layers": self.n_layers,
                "kv_bytes_per_token": self.kv_bytes_per_token,
                "group_size": self.group_size}

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


def _combine(hw: HardwareConfig, compute_s: float, memory_s: float) -> float:
    return max(compute_s, memory_s) if hw.overlap else compute_s + memory_s


def decode_token_latency(fp: ModelFootprint, p: int, hw: HardwareConfig,
                         kv_tokens: int = 0, include_kv: bool = True) -> float:
    """Seconds for one decode step at precision ``p`` with ``kv_tokens`` of
    cached history to read (plus one KV row written)."""
    if p < 1:
        raise ConfigError(f"precision must be >= 1, got {p}")
    memory = fp.weight_bytes(p)
    if include_kv:
        memory += fp.kv_bytes_per_token * (kv_tokens + 1)
    compute = 2.0 * fp.total_params / (hw.mac_units * hw.clock_hz)
    return _combine(hw, compute, memory / hw.mem_bw_bytes_per_s)


def prefill_latency(fp: ModelFootprint, p: int, hw: HardwareConfig,
                    prompt_len: int, include_kv: bool = True) -> float:
    """Seconds to prefill ``prompt_len`` tokens: compute for every token
    against a single weight pass (plus the prompt's KV writes)."""
    if prompt_len < 1:
        raise InputError(f"prompt_len must be >= 1, got {prompt_len}")
    memory = fp.weight_bytes(p)
    if include_kv:
        memory += fp.kv_bytes_per_token * prompt_len
    compute = 2.0 * fp.total_params * prompt_len / (hw.mac_units * hw.clock_hz)
    return _combine(hw, compute, memory / hw.mem_bw_bytes_per_s)


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
        obj = dict(self.__dict__)
        obj["per_precision_decode_s"] = {str(k): v
                                         for k, v in self.per_precision_decode_s.items()}
        return obj


def _phase_latencies(fp, schedule, hw, prompt_len, gen_len, include_kv):
    pre = prefill_latency(fp, schedule.p_prefill, hw, prompt_len, include_kv)
    dec = sum(decode_token_latency(fp, schedule.precision_at(i), hw,
                                   kv_tokens=prompt_len + i, include_kv=include_kv)
              for i in range(gen_len))
    return pre, dec


def pipeline_perf(fp: ModelFootprint, schedule: PrecisionSchedule, hw: HardwareConfig,
                  prompt_len: int, gen_len: int, include_kv: bool = True) -> PerfReport:
    """End-to-end model of prefill plus scheduled decoding, with the fp16 and
    uniform-high baselines evaluated on the same device for comparison."""
    if gen_len < 1:
        raise InputError(f"gen_len must be >= 1, got {gen_len}")
    if gen_len > schedule.horizon:
        raise InputError(f"gen_len {gen_len} exceeds the schedule horizon {schedule.horizon}")

    pre, dec = _phase_latencies(fp, schedule, hw, prompt_len, gen_len, include_kv)
    total = pre + dec

    fp16_sched = PrecisionSchedule.constant(FP16, schedule.horizon)
    fp16_pre, fp16_dec = _phase_latencies(fp, fp16_sched, hw, prompt_len, gen_len, include_kv)
    fp16_total = fp16_pre + fp16_dec

    p_high = schedule.precisions.p_max
    high_sched = PrecisionSchedule.constant(p_high, schedule.horizon)
    high_pre, high_dec = _phase_latencies(fp, high_sched, hw, prompt_len, gen_len, include_kv)
    high_total = high_pre + high_dec

    used = sorted({schedule.precision_at(i) for i in range(gen_len)})
    per_precision = {p: decode_token_latency(fp, p, hw, kv_tokens=prompt_len,
                                             include_kv=include_kv) for p in used}
    uplift = (pre - prefill_latency(fp, p_high, hw, prompt_len, include_kv)) / total * 100.0

    return PerfReport(
        prefill_s=pre, decode_s=dec, total_s=total,
        tokens_per_s=gen_len / dec,
        speedup_vs_fp16=fp16_total / total,
        avg_bitwidth=schedule.bit_token_sum(gen_len) / gen_len,
        prefill_uplift_pct=uplift,
        per_precision_decode_s=per_precision,
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
    if gen_len < 1:
        raise InputError(f"gen_len must be >= 1, got {gen_len}")
    with parsing("latency table (integer precisions to microseconds)"):
        table = {int(k): float(v) for k, v in latency_us.items()}
    if not all(math.isfinite(v) and v > 0 for v in table.values()):
        raise InputError(f"latency table values must be positive and finite: {table}")
    if FP16 not in table:
        raise InputError("latency table lacks the fp16 (16) entry")
    counts: dict[int, int] = {}
    for i in range(gen_len):
        p = schedule.precision_at(i)
        if p not in table:
            raise InputError(f"latency table lacks precision {p}")
        counts[p] = counts.get(p, 0) + 1
    if len(counts) == 1:
        weighted = table[next(iter(counts))]
    else:
        weighted = sum(n * table[p] for p, n in counts.items()) / gen_len
    return weighted, table[FP16] / weighted
