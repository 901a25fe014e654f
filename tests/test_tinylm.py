import numpy as np
import pytest

from pmpd import quant, tinylm
from pmpd.errors import ConfigError, ContractViolation, FormatError, InputError
from pmpd.schedule import FixedScheduler, PrecisionSchedule, StaticScheduler
from pmpd.tinylm import (FULL_PRECISION, ByteTokenizer, ModelConfig, SamplerConfig,
                         VocabTokenizer, decode_step, forward_full, generate, prefill,
                         sample)

PROMPT = list(b"The river finds its way")


def rel_err(a, b):
    return np.max(np.abs(a - b) / (np.abs(b) + 1e-9))


# ---------------------------------------------------------------------------
# config & tokenizers
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=3, d_model=64, d_ff=32)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=2, d_model=64, d_ff=32, max_context=1)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=2, d_model=64, d_ff=32, vocab_size=1)


def test_byte_tokenizer_round_trip():
    tok = ByteTokenizer()
    text = "café #42"
    assert tok.decode(tok.encode(text)) == text
    assert tok.eos_id == 256 and tok.vocab_size == 257


def test_vocab_tokenizer_longest_match(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('{"tokens": ["a", "ab", "b", " "]}')
    tok = VocabTokenizer.from_json(path)
    assert tok.encode("ab a b") == [1, 3, 0, 3, 2]
    assert tok.decode([1, 3, 0]) == "ab a"
    assert tok.eos_id == 4
    with pytest.raises(InputError):
        tok.encode("xyz")


# ---------------------------------------------------------------------------
# forward / cache consistency
# ---------------------------------------------------------------------------

def test_prefill_populates_cache(small_model):
    logits, cache = prefill(small_model, 4, PROMPT)
    assert cache.T == len(PROMPT)
    assert logits.shape == (small_model.config.vocab_size,)


def test_prefill_then_decode_matches_longer_prefill(small_model):
    logits, cache = prefill(small_model, 3, PROMPT)
    step_logits, _ = decode_step(small_model, 3, 65, cache)
    oracle, _ = prefill(small_model, 3, PROMPT + [65])
    assert rel_err(step_logits, oracle) < 1e-9


def test_incremental_matches_full_forward_each_position(small_model):
    tokens = PROMPT + [10, 200, 33]
    for p in (2, 3, 4, FULL_PRECISION):
        full = forward_full(small_model, p, tokens)
        _, cache = prefill(small_model, p, tokens[:1])
        got = [forward_full(small_model, p, tokens[:1])[0]]
        for t in tokens[1:]:
            logits, cache = decode_step(small_model, p, t, cache)
            got.append(logits)
        for pos in range(len(tokens)):
            assert rel_err(got[pos], full[pos]) < 1e-9, (p, pos)


def test_prefill_is_bit_deterministic(small_model):
    a, _ = prefill(small_model, 4, PROMPT)
    b, _ = prefill(small_model, 4, PROMPT)
    assert np.array_equal(a, b)


def test_decode_step_advances_cache_by_one(small_model):
    _, cache = prefill(small_model, 4, PROMPT)
    before = cache.T
    decode_step(small_model, 4, 5, cache)
    assert cache.T == before + 1


def test_fork_decodes_to_the_same_logits_bytes(small_model):
    _, cache = prefill(small_model, 4, PROMPT)
    decode_step(small_model, 3, 65, cache)
    twin = cache.fork()
    assert twin.T == cache.T and twin.capacity == cache.capacity
    a, _ = decode_step(small_model, 2, 66, cache)
    b, _ = decode_step(small_model, 2, 66, twin)
    assert a.tobytes() == b.tobytes()


def test_fork_is_independent_of_its_source(small_model):
    _, cache = prefill(small_model, 4, PROMPT)
    twin = cache.fork()
    k0, v0 = cache.k.copy(), cache.v.copy()
    decode_step(small_model, 2, 66, twin)
    assert cache.T == len(PROMPT) and twin.T == len(PROMPT) + 1
    assert np.array_equal(cache.k, k0) and np.array_equal(cache.v, v0)
    tk, tv = twin.k.copy(), twin.v.copy()
    decode_step(small_model, 3, 67, cache)
    cache.k[:, 0] = 1.0
    assert np.array_equal(twin.k, tk) and np.array_equal(twin.v, tv)


def test_different_precisions_give_different_logits(small_model):
    _, c2 = prefill(small_model, 4, PROMPT)
    _, c3 = prefill(small_model, 4, PROMPT)
    l2, _ = decode_step(small_model, 2, 65, c2)
    l3, _ = decode_step(small_model, 3, 65, c3)
    assert not np.allclose(l2, l3)


def test_attention_rows_sum_to_one(small_model):
    collected = []
    prefill(small_model, 4, PROMPT, collect_attn=collected)
    assert len(collected) == small_model.config.n_layers
    for attn in collected:
        sums = attn.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_input_validation(small_model):
    with pytest.raises(InputError):
        prefill(small_model, 4, [])
    with pytest.raises(InputError):
        prefill(small_model, 4, [1] * small_model.config.max_context)
    with pytest.raises(InputError):
        prefill(small_model, 4, [999])
    _, cache = prefill(small_model, 4, PROMPT)
    with pytest.raises(InputError):
        decode_step(small_model, 4, 5, tinylm.KVCache(2, 64, 16))
    with pytest.raises(ContractViolation):
        prefill(small_model, 5, PROMPT)


def test_decode_rejects_full_context():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=64, max_context=8)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((3,)), seed=1)
    _, cache = prefill(model, 3, [1] * 7)
    decode_step(model, 3, 1, cache)
    with pytest.raises(InputError):
        decode_step(model, 3, 1, cache)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_greedy_and_tie_break():
    assert sample(np.array([0.1, 2.0, -1.0]), SamplerConfig()) == 1
    assert sample(np.array([3.0, 3.0]), SamplerConfig()) == 0


def test_sample_temperature_reproducible():
    cfg = SamplerConfig(mode="temperature", temperature=0.8, seed=5)
    logits = np.array([0.3, 0.1, 0.9, -0.5])
    assert sample(logits, cfg) == sample(logits, cfg)


def test_sample_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        sample(np.array([1.0]), SamplerConfig(mode="temperature", temperature=0.0))
    with pytest.raises(InputError):
        sample(np.array([np.nan]), SamplerConfig())


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_constant_schedule_reproduces_uniform_baseline(small_model):
    fixed = generate(small_model, PROMPT, FixedScheduler(4), max_new=10)
    const = StaticScheduler(PrecisionSchedule.constant(4, 16))
    again = generate(small_model, PROMPT, const, max_new=10)
    assert fixed.output_tokens == again.output_tokens
    assert fixed.logits_hashes == again.logits_hashes


def test_switch_point_precision_pattern(small_model):
    sched = PrecisionSchedule.two_phase(3, 2, 3, 16, p_prefill=4)
    trace = generate(small_model, PROMPT, StaticScheduler(sched), max_new=8)
    assert trace.precisions == [3, 3, 3, 2, 2, 2, 2, 2]
    assert trace.p_prefill == 4
    assert len(trace.precisions) == len(trace.output_tokens) == len(trace.logits_hashes)


def test_trace_is_deterministic(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(3, 2, 2, 16))
    a = generate(small_model, PROMPT, sched, max_new=12)
    b = generate(small_model, PROMPT, sched, max_new=12)
    assert a.output_tokens == b.output_tokens
    assert a.logits_hashes == b.logits_hashes


def test_eos_termination(small_model):
    # force EOS on the very first sampled token by picking it as the argmax token
    logits, _ = prefill(small_model, 4, PROMPT)
    eos = int(np.argmax(logits))
    trace = generate(small_model, PROMPT, FixedScheduler(4), eos_id=eos, max_new=10)
    assert trace.termination == "eos"
    assert trace.output_tokens[-1] == eos
    assert len(trace.output_tokens) == 1


def test_length_termination_and_non_increasing_precisions(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(4, 2, 5, 32))
    trace = generate(small_model, PROMPT, sched, max_new=12)
    assert trace.termination in ("eos", "length")
    assert all(a >= b for a, b in zip(trace.precisions, trace.precisions[1:]))


def test_scheduler_outside_model_set_is_contract_violation(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(6, 2, 3, 16))
    with pytest.raises(ContractViolation):
        generate(small_model, PROMPT, sched, max_new=8)


def test_invalid_schedule_is_contract_violation(small_model):
    bad = PrecisionSchedule(quant.PrecisionSet((4, 3)), 4, {4: 5, 3: 1}, 16)
    with pytest.raises(ContractViolation):
        generate(small_model, PROMPT, StaticScheduler(bad), max_new=8)


def test_max_new_beyond_horizon_rejected(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(3, 2, 2, 8))
    with pytest.raises(InputError):
        generate(small_model, PROMPT, sched, max_new=9)


def test_generate_at_full_precision_uses_real_weights(small_model):
    trace = generate(small_model, PROMPT, FixedScheduler(FULL_PRECISION), max_new=6)
    assert trace.precisions == [FULL_PRECISION] * len(trace.output_tokens)


def test_trace_json_round_trip(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(3, 2, 2, 16))
    trace = generate(small_model, PROMPT, sched, max_new=6)
    back = tinylm.GenerationTrace.from_json(trace.to_json())
    assert back.output_tokens == trace.output_tokens
    assert back.precisions == trace.precisions
    assert back.schedule.switch_points == trace.schedule.switch_points


# ---------------------------------------------------------------------------
# model store
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, small_model):
    path = tmp_path / "model.pmpd"
    small_model.save(path)
    loaded = tinylm.ModelVariants.load(path)
    assert loaded.config == small_model.config
    assert loaded.precisions.precisions == small_model.precisions.precisions
    for name, qt in small_model.tensors.items():
        assert np.array_equal(qt.store.planes, loaded.tensors[name].store.planes)
    # init seed travels with the file, so full-precision generations survive a reload
    a = generate(small_model, PROMPT, FixedScheduler(FULL_PRECISION), max_new=8)
    b = generate(loaded, PROMPT, FixedScheduler(FULL_PRECISION), max_new=8)
    assert a.output_tokens == b.output_tokens
    assert a.logits_hashes == b.logits_hashes


def test_weights_are_one_readonly_array_per_tensor_and_precision():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=64, d_ff=128, max_context=64)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4, 3, 2)), seed=9)
    cold = forward_full(model, 3, PROMPT)
    for name, qt in model.tensors.items():
        for p in (4, 3, 2, FULL_PRECISION):
            w = model.weights(name, p)
            assert model.weights(name, p) is w
            assert not w.flags.writeable
            want = (model.full_weights[name].astype(np.float64) if p == FULL_PRECISION
                    else quant.dequantize(qt, p))
            assert w.dtype == want.dtype and w.shape == want.shape
            assert w.tobytes() == want.tobytes()
    # served from the filled cache, the pass repeats the cold one bit for bit
    assert forward_full(model, 3, PROMPT).tobytes() == cold.tobytes()


@pytest.mark.parametrize("declared", [(6, 4), (16, 4), (3, 2)])
def test_precision_set_must_match_tensor_p_max(tmp_path, small_model, declared):
    with pytest.raises(ConfigError, match="p_max"):
        tinylm.ModelVariants(small_model.config, quant.PrecisionSet(declared),
                             small_model.tensors, small_model.norms)
    path = tmp_path / "model.pmpd"
    small_model.save(path)
    tensors, meta = quant.parse_model(path.read_bytes())
    meta["precisions"] = list(declared)
    path.write_bytes(quant.serialize_model(tensors, meta))
    with pytest.raises(FormatError, match="p_max"):
        tinylm.ModelVariants.load(path)


def test_weights_reject_undeclared_precision(small_model):
    with pytest.raises(ContractViolation):
        small_model.weights("embed", 5)


def test_model_without_init_info_rejects_full_precision(tmp_path, small_model):
    path = tmp_path / "anon.pmpd"
    stripped = tinylm.ModelVariants(small_model.config, small_model.precisions,
                                    small_model.tensors, small_model.norms)
    stripped.save(path)
    loaded = tinylm.ModelVariants.load(path)
    with pytest.raises(ConfigError):
        loaded.weights("embed", FULL_PRECISION)
