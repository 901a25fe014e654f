import pytest

from pmpd import perf
from pmpd.errors import ConfigError, InputError
from pmpd.perf import (FP16, HardwareConfig, ModelFootprint, decode_token_latency,
                       pipeline_perf, prefill_latency, weighted_gpu_latency)
from pmpd.schedule import PrecisionSchedule

# bandwidth-only device: compute is effectively free
BW_ONLY = HardwareConfig(mac_units=1 << 40, clock_hz=1e9, mem_bw_bytes_per_s=32e9)
NO_SCALES = ModelFootprint(attn_params=10**9, mlp_params=4 * 10**8,
                           embed_params=0, n_layers=24,
                           kv_bytes_per_token=196608, group_size=1 << 40)


def test_memory_bound_speedup_is_bit_ratio():
    t16 = decode_token_latency(NO_SCALES, FP16, BW_ONLY, include_kv=False)
    t2 = decode_token_latency(NO_SCALES, 2, BW_ONLY, include_kv=False)
    assert t16 / t2 == pytest.approx(8.0, rel=1e-9)


def test_memory_bound_tokens_per_second():
    # 1.4e9 parameters at 2 bits over 32 GB/s: 0.35 GB/token
    fp = ModelFootprint(14 * 10**8, 0, 0, 24, 196608, group_size=1 << 40)
    t = decode_token_latency(fp, 2, BW_ONLY, include_kv=False)
    assert 1.0 / t == pytest.approx(32e9 / 0.35e9, rel=1e-9)
    assert 1.0 / t == pytest.approx(91.4, rel=0.01)


def test_scale_bytes_count_toward_weight_traffic():
    fp = ModelFootprint(64 * 10**6, 0, 0, 8, 1024, group_size=64)
    assert fp.weight_bytes(2) == 64e6 * (2 / 8) + 8 * 64e6 / 64
    assert fp.weight_bytes(FP16) == 64e6 * 2.0  # fp16 carries no scales


def test_roofline_bounds_and_overlap_modes():
    hw = HardwareConfig(4096, 1e9, 32e9)
    fp = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
    compute = 2.0 * fp.total_params / (hw.mac_units * hw.clock_hz)
    memory = (fp.weight_bytes(3) + fp.kv_bytes_per_token) / hw.mem_bw_bytes_per_s
    lat = decode_token_latency(fp, 3, hw, kv_tokens=0)
    assert lat >= compute and lat >= memory
    assert lat == max(compute, memory)
    seq = HardwareConfig(4096, 1e9, 32e9, overlap=False)
    assert decode_token_latency(fp, 3, seq, kv_tokens=0) == pytest.approx(compute + memory)


def test_latency_monotone_in_precision():
    hw = HardwareConfig(4096, 1e9, 32e9)
    fp = perf.FOOTPRINT_PRESETS["vicuna-7b"]
    lats = [decode_token_latency(fp, p, hw, kv_tokens=100) for p in (2, 3, 4, 8, FP16)]
    assert all(a < b for a, b in zip(lats, lats[1:]))


def test_bandwidth_doubling_halves_memory_bound_latency():
    fp = NO_SCALES
    hw2 = HardwareConfig(BW_ONLY.mac_units, BW_ONLY.clock_hz, 64e9)
    a = decode_token_latency(fp, 3, BW_ONLY, include_kv=False)
    b = decode_token_latency(fp, 3, hw2, include_kv=False)
    assert a / b == pytest.approx(2.0, rel=1e-12)


def test_prefill_compute_bound_limit():
    hw = HardwareConfig(16384, 1e9, 32e9)
    fp = perf.FOOTPRINT_PRESETS["vicuna-7b"]
    a3 = prefill_latency(fp, 3, hw, 4096)
    a4 = prefill_latency(fp, 4, hw, 4096)
    assert a3 == a4  # compute-bound: independent of weight precision
    assert prefill_latency(fp, 3, hw, 8192) == pytest.approx(2 * a3, rel=0.01)


def test_prefill_of_one_token_equals_decode_formula():
    hw = HardwareConfig(4096, 1e9, 32e9)
    fp = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
    assert prefill_latency(fp, 3, hw, 1) == decode_token_latency(fp, 3, hw, kv_tokens=0)


def test_fp16_self_speedup_is_one():
    fp = perf.FOOTPRINT_PRESETS["vicuna-7b"]
    sched = PrecisionSchedule.constant(FP16, 64)
    report = pipeline_perf(fp, sched, perf.NPU_16K, 128, 64)
    assert report.speedup_vs_fp16 == 1.0


def test_pipeline_decode_decomposes_into_token_latencies():
    fp = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
    hw = perf.NPU_4K
    sched = PrecisionSchedule.two_phase(3, 2, 4, 16, p_prefill=3)
    report = pipeline_perf(fp, sched, hw, 32, 16)
    manual = sum(decode_token_latency(fp, sched.precision_at(i), hw, kv_tokens=32 + i)
                 for i in range(16))
    assert report.decode_s == pytest.approx(manual, rel=1e-12)
    assert report.total_s == pytest.approx(report.prefill_s + report.decode_s)
    assert report.tokens_per_s == pytest.approx(16 / report.decode_s)


def test_mixed_schedule_brackets_uniform_speedups():
    fp = perf.FOOTPRINT_PRESETS["vicuna-7b"]
    hw = perf.NPU_16K
    mixed = pipeline_perf(fp, PrecisionSchedule.two_phase(3, 2, 32, 64, p_prefill=3),
                          hw, 128, 64)
    high = pipeline_perf(fp, PrecisionSchedule.two_phase(3, 2, 64, 64, p_prefill=3),
                         hw, 128, 64)
    low = pipeline_perf(fp, PrecisionSchedule.two_phase(3, 2, 0, 64, p_prefill=3),
                        hw, 128, 64)
    assert high.speedup_vs_fp16 < mixed.speedup_vs_fp16 < low.speedup_vs_fp16


def test_report_carries_avg_bitwidth_and_baselines():
    fp = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
    sched = PrecisionSchedule.two_phase(3, 2, 8, 16, p_prefill=4)
    report = pipeline_perf(fp, sched, perf.NPU_4K, 32, 16)
    assert report.avg_bitwidth == 2.5
    assert report.fp16_total_s > report.uniform_high_total_s > report.total_s
    assert set(report.per_precision_decode_s) == {2, 3}


def test_weighted_gpu_latency_fraction():
    # 40% of steps on the 3-bit kernel at 8.1us, the rest at 7.0us
    sched = PrecisionSchedule.two_phase(3, 2, 40, 100)
    table = {3: 8.1, 2: 7.0, 16: 97.1}
    weighted, speedup = weighted_gpu_latency(table, sched, 100)
    assert weighted == pytest.approx(7.44, rel=1e-12)
    assert speedup == pytest.approx(97.1 / 7.44, rel=1e-12)


def test_weighted_gpu_latency_single_precision_and_bounds():
    table = {3: 8.1, 2: 7.0, 16: 97.1}
    sched = PrecisionSchedule.constant(3, 32)
    weighted, _ = weighted_gpu_latency(table, sched, 32)
    assert weighted == 8.1
    # the general formula would give 41 * 12.9 / 41 == 12.899999999999999
    sched = PrecisionSchedule.constant(3, 41)
    weighted, _ = weighted_gpu_latency({3: 12.9, 16: 97.1}, sched, 41)
    assert weighted == 12.9
    mixed = PrecisionSchedule.two_phase(3, 2, 11, 32)
    w, _ = weighted_gpu_latency(table, mixed, 32)
    assert 7.0 <= w <= 8.1


def test_weighted_gpu_latency_missing_precision():
    sched = PrecisionSchedule.two_phase(3, 2, 4, 8)
    with pytest.raises(InputError):
        weighted_gpu_latency({3: 8.1, 16: 97.1}, sched, 8)
    with pytest.raises(InputError):
        weighted_gpu_latency({3: 8.1, 2: 7.0}, sched, 8)


def test_footprint_totals_and_vicuna_scale():
    fp = perf.FOOTPRINT_PRESETS["vicuna-7b"]
    assert fp.total_params == fp.attn_params + fp.mlp_params + fp.embed_params
    assert 6.5e9 < fp.total_params < 7.0e9


def test_config_validation():
    with pytest.raises(ConfigError):
        HardwareConfig(0, 1e9, 32e9)
    with pytest.raises(ConfigError):
        ModelFootprint(0, 0, 0, 1, 0)
    with pytest.raises(ConfigError):
        decode_token_latency(NO_SCALES, 0, BW_ONLY)
    with pytest.raises(InputError):
        prefill_latency(NO_SCALES, 3, BW_ONLY, 0)
