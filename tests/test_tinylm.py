import numpy as np
import pytest

from pmpd import quant, tinylm
from pmpd.errors import ConfigError, ContractViolation, FormatError, InputError
from pmpd.learnsched import LearnedScheduler, SchedulerNet
from pmpd.schedule import FixedScheduler, PrecisionSchedule, StaticScheduler, SwitchGrid
from pmpd.tinylm import (FULL_PRECISION, ByteTokenizer, ModelConfig, SamplerConfig,
                         VocabTokenizer, decode_step, forward_full, generate, prefill,
                         sample)
from pmpd.util import named_rng

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
    for dims in ((1, -1, 8, 8), (1, 1, 0, 8)):  # -1 heads would divide 8 evenly
        with pytest.raises(ConfigError):
            ModelConfig(*dims)


def test_dimensions_and_precisions_are_integers_numpy_ones_included():
    cfg = ModelConfig(*(np.int64(x) for x in (1, 2, 8, 8, 16, 32)))
    assert cfg == ModelConfig(1, 2, 8, 8, 16, 32) and type(cfg.n_heads) is int
    assert quant.PrecisionSet((np.int64(4), np.int32(2))).precisions == (4, 2)
    for bad in ({"n_heads": 2.0}, {"d_model": "8"}):
        with pytest.raises(TypeError):
            ModelConfig(**{"n_layers": 1, "n_heads": 2, "d_model": 8, "d_ff": 8, **bad})
    for bad in ((4.7, 2), ("4",)):
        with pytest.raises(TypeError):
            quant.PrecisionSet(bad)


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


@pytest.mark.parametrize("tokens, eos", [([], None), (["a", 2], None), ("ab", None),
                                         (["a"], 1.7), (["a"], True), (["a"], -1)])
def test_a_vocabulary_outside_its_domain_is_refused(tokens, eos):
    # int(1.7) and int(True) made token 1 the EOS
    with pytest.raises(ConfigError):
        VocabTokenizer(tokens, eos)


# ---------------------------------------------------------------------------
# forward / cache consistency
# ---------------------------------------------------------------------------

def test_prefill_populates_cache(small_model):
    logits, cache = prefill(small_model, 4, PROMPT)
    assert cache.T == len(PROMPT)
    assert logits.shape == (small_model.config.vocab_size,)


def test_prefill_then_decode_matches_longer_prefill(small_model):
    logits, cache = prefill(small_model, 3, PROMPT)
    (step_logits,) = decode_step(small_model, 3, [65], cache, [0])
    oracle, _ = prefill(small_model, 3, PROMPT + [65])
    assert rel_err(step_logits, oracle) < 1e-9


def test_incremental_matches_full_forward_each_position(small_model):
    tokens = PROMPT + [10, 200, 33]
    for p in (2, 3, 4, FULL_PRECISION):
        full = forward_full(small_model, p, tokens)
        _, cache = prefill(small_model, p, tokens[:1])
        got = [forward_full(small_model, p, tokens[:1])[0]]
        for t in tokens[1:]:
            (logits,) = decode_step(small_model, p, [t], cache, [0])
            got.append(logits)
        for pos in range(len(tokens)):
            assert rel_err(got[pos], full[pos]) < 1e-9, (p, pos)


@pytest.mark.parametrize("p", [FULL_PRECISION, 4, 3, 2])
@pytest.mark.parametrize("model_name", ["small_model", "toy_model"])
def test_forward_matches_the_naive_pass_bit_for_bit(request, naive_forward, naive_cache,
                                                   model_name, p):
    # the resolved tuple, the once-built RoPE tables and the bare reduces
    # must not move a bit, at every position up to max_context - 1
    model = request.getfixturevalue(model_name)
    cfg = model.config
    tokens = [int(t) for t in np.random.default_rng(p).integers(0, cfg.vocab_size,
                                                               cfg.max_context)]

    def naive(toks, cache):
        return naive_forward(model, p, toks, cache).tobytes()

    def fresh():
        return naive_cache(cfg.n_layers, cfg.d_model, cfg.max_context)

    assert forward_full(model, p, tokens).tobytes() == naive(tokens, fresh())
    # prefills around the attention block size, whose last layer attends for
    # the last position only (at 65 the last block holds one row), K/V
    # included
    for L in (1, 2, 3, 15, 16, 17, 18, 31, 33, 65, 48):
        logits, cache = prefill(model, p, tokens[:L])
        ref = fresh()
        assert logits.tobytes() == naive_forward(model, p, tokens[:L], ref)[-1].tobytes(), L
        assert cache.k[:, 0].tobytes() == ref.k.tobytes(), L
        assert cache.v[:, 0].tobytes() == ref.v.tobytes(), L
    logits, cache = prefill(model, p, tokens[:8])
    ref = fresh()
    assert logits.tobytes() == naive_forward(model, p, tokens[:8], ref)[-1].tobytes()
    for t in tokens[8:]:
        assert decode_step(model, p, [t], cache, [0]).tobytes() == naive([t], ref), cache.T
    assert cache.T == ref.T == cfg.max_context
    assert cache.k.tobytes() == ref.k.tobytes() and cache.v.tobytes() == ref.v.tobytes()


@pytest.mark.parametrize("B", [1, 2, 8, 33])
def test_stacked_products_and_batched_attention_are_batch_invariant(toy_model, B):
    # a lockstep block is exact only because numpy computes a stacked
    # [B, 1, d] @ W one row's gemv at a time and the batched attention
    # einsums row by row; a numpy or BLAS that breaks this fails here
    rng = np.random.default_rng(B)
    cfg = toy_model.config
    H, dh, d, T = cfg.n_heads, cfg.d_head, cfg.d_model, 37
    _, layers, _, head = toy_model.resolved(4)
    _, wqkv, wo, _, w_up, w_down = layers[0]
    for w in (wqkv, wo, w_up, w_down, head):
        x = rng.normal(size=(B, 1, w.shape[0]))
        stacked = x @ w
        assert all(stacked[b].tobytes() == (x[b] @ w).tobytes() for b in range(B))
    # K/V as a block holds them: rows of a wider capacity, read up to T
    q = rng.normal(size=(B, 1, H, dh))
    kv = np.zeros((2, B, T + 9, d))
    kv[:, :, :T] = rng.normal(size=(2, B, T, d))
    K, V = (a[:, :T].reshape(B, T, H, dh) for a in kv)
    scores = np.einsum("bnhd,bthd->bhnt", q, K)
    attn = tinylm._softmax(scores)
    ctx = np.einsum("bhnt,bthd->bnhd", attn, V)
    for b in range(B):
        k_row, v_row = (np.ascontiguousarray(a[b, :T]).reshape(T, H, dh) for a in kv)
        assert scores[b].tobytes() == np.einsum("nhd,thd->hnt", q[b], k_row).tobytes()
        assert attn[b].tobytes() == tinylm._softmax(scores[b]).tobytes()
        assert ctx[b].tobytes() == np.einsum("hnt,thd->nhd", attn[b], v_row).tobytes()


def assert_the_last_row_ignores_the_other_rows(w, n, seed):
    """Row n - 1 of an [n, K] @ w product is the same whatever rows 0..n-2 hold."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, w.shape[0]))
    other = np.concatenate([rng.normal(size=(n - 1, w.shape[0])), x[-1:]])
    assert (other @ w)[-1].tobytes() == (x @ w)[-1].tobytes(), n


@pytest.mark.parametrize("n", [2, 3, 17, 48, 65, 130, 199])
def test_the_heads_rows_depend_on_the_row_count_not_the_other_rows(toy_model, n):
    # prefill's last layer attends for its last row only, so every other row
    # reaches the head with values the full pass never has; the last row's
    # logits must not see them (257 columns: the tiling depends on the count)
    assert_the_last_row_ignores_the_other_rows(toy_model.resolved(4)[3], n, n)


@pytest.mark.parametrize("name", ["wq", "wk", "wv", "wo", "w_up", "w_down"])
def test_a_layers_rows_depend_on_the_row_count_not_the_other_rows(toy_model, name):
    # the same rule for every product of prefill's last layer, all kept at n
    # rows (wq, wk and wv as the [d, d] blocks of wqkv it multiplies): the
    # rows other than the last carry a zero context into wo and the MLP, and
    # the last row's sums must not see what they hold; a numpy or BLAS
    # kernel that breaks this fails here
    w = toy_model.weights(f"layers.0.{name}", 4)
    for n in (2, 3, 17, 48, 65, 130, 199):
        assert_the_last_row_ignores_the_other_rows(w, n, n)


@pytest.mark.parametrize("p", [FULL_PRECISION, 4, 2])
def test_the_fused_qkv_product_equals_three_separate_products(toy_model, p):
    # a layer's q, k and v come from its one [d, 3d] wqkv, and each must
    # equal the product with that projection alone, a contiguous [d, d]
    # array, bit for bit. A decode step takes one fused gemv per row: a 1-D
    # row, or stacked [b, 1, d] rows. A prefill's [n, d] rows take one
    # stacked call of three gemms over wqkv's [d, d] column blocks, because
    # a fused [n, 3d] gemm tiles its sums differently on some kernels
    # (Haswell, Nehalem, Prescott: rows 11 to 30 among others)
    cfg = toy_model.config
    d = cfg.d_model
    wqkv = toy_model.resolved(p)[1][-1][1]
    alone = [np.array(toy_model.weights(f"layers.{cfg.n_layers - 1}.{t}", p))
             for t in ("wq", "wk", "wv")]
    rng = np.random.default_rng(p)
    for shape in ((d,), (1, d), (2, 1, d), (3, 1, d), (12, 1, d), (33, 1, d)):
        x = rng.normal(size=shape)
        want = np.concatenate([x @ w for w in alone], axis=-1)
        assert (x @ wqkv).tobytes() == want.tobytes(), shape
    blocks = wqkv.reshape(d, 3, d).transpose(1, 0, 2)
    for n in (1, 2, 3, 11, 13, 17, 18, 30, 48, 65, 130, 199):
        x = rng.normal(size=(n, d))
        assert (x @ blocks).tobytes() == np.stack([x @ w for w in alone]).tobytes(), n


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("T0", [0, 5])
@pytest.mark.parametrize("n", [*range(1, tinylm.BLOCK + 2), 48, 81])
def test_block_causal_attention_equals_the_full_masked_pass(n, T0, rows):
    # a prefill attends block by block over key prefixes, exact only because
    # every softmax and context einsum sums the keys in sequence, so keys past
    # a block's diagonal (never scored) and its trailing -inf entries (weight
    # 0) add nothing. The full pass sums its softmax by accumulate too: a
    # reduce over one head's contiguous key axis sums pairwise. n up to BLOCK
    # makes every block width, the one-query block included
    dh, T = 32, T0 + n
    scale = 1.0 / np.sqrt(dh)
    for H in (1, 2, 4):
        rng = np.random.default_rng(1000 * n + 100 * H + 10 * T0 + rows)
        q = rng.normal(size=(rows, n, H, dh))
        # K/V as a cache holds them: rows of a wider capacity, read up to T
        kv = np.zeros((2, rows, T + 9, H, dh))
        kv[:, :, :T] = rng.normal(size=(2, rows, T, H, dh))
        K, V = kv[:, :, :T]
        scores = np.einsum("bnhd,bthd->bhnt", q, K)
        scores *= scale
        seen = np.arange(T)[None, :] <= (T0 + np.arange(n))[:, None]
        masked = np.where(seen, scores, -np.inf)
        ex = np.exp(masked - masked.max(-1, keepdims=True))
        full = np.einsum("bhnt,bthd->bnhd", ex / np.add.accumulate(ex, -1)[..., -1:], V)
        blocks = []
        for a in range(0, n, tinylm.BLOCK):
            e = min(a + tinylm.BLOCK, n)
            blocks.append(tinylm._attend(q[:, a:e], K[:, : T0 + e], V[:, : T0 + e]))
        assert np.concatenate(blocks, axis=1).tobytes() == full.tobytes(), H


@pytest.mark.parametrize("H", [1, 2, 4])
def test_prefill_equals_the_last_row_of_forward_full_at_every_head_count(H):
    # prefill's last layer attends for its last query alone, on the one-query
    # branch, and the full pass for it in a block: both must sum keys in order.
    # One head makes the one-query branch's key axis contiguous
    cfg = ModelConfig(n_layers=2, n_heads=H, d_model=32, d_ff=64, max_context=96)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4, 2)), seed=H)
    tokens = [int(t) for t in np.random.default_rng(H).integers(0, cfg.vocab_size, 89)]
    for L in range(2, 90):
        logits, _ = prefill(model, 4, tokens[:L])
        assert logits.tobytes() == forward_full(model, 4, tokens[:L])[-1].tobytes(), L


def test_decode_step_over_rows_equals_one_row_at_a_time(small_model):
    # a block mixing lengths and leaving a row out: each stepped row's logits
    # and K/V equal a one-row cache's, and the row left out is untouched
    prompts = [PROMPT[:5], PROMPT[:9], PROMPT[:9], PROMPT]
    block = prefilled_block(small_model, prompts)
    singles = [prefill(small_model, 4, prompt)[1] for prompt in prompts]
    rows, tokens = [0, 1, 3], [65, 66, 67]
    before = block.k[:, 2].copy()
    logits = decode_step(small_model, 3, tokens, block, rows)
    assert logits.shape == (3, small_model.config.vocab_size)
    for j, (r, t) in enumerate(zip(rows, tokens)):
        cache = singles[r]
        (want,) = decode_step(small_model, 3, [t], cache, [0])
        assert logits[j].tobytes() == want.tobytes()
        assert block.lengths[r] == cache.T == len(prompts[r]) + 1
        assert block.k[:, r, : cache.T].tobytes() == cache.k[:, 0, : cache.T].tobytes()
    assert block.lengths[2] == 9 and block.k[:, 2].tobytes() == before.tobytes()


def test_prefill_is_bit_deterministic(small_model):
    a, _ = prefill(small_model, 4, PROMPT)
    b, _ = prefill(small_model, 4, PROMPT)
    assert np.array_equal(a, b)


def test_decode_step_advances_cache_by_one(small_model):
    _, cache = prefill(small_model, 4, PROMPT)
    before = cache.T
    decode_step(small_model, 4, [5], cache, [0])
    assert cache.T == before + 1


def prefilled_block(model, prompts, capacity=40):
    """A block cache with one row per prompt, each prefilled in place at precision 4."""
    block = tinylm.KVCache(model.config, capacity, len(prompts))
    for r, prompt in enumerate(prompts):
        prefill(model, 4, prompt, block.row(r))
    return block


@pytest.mark.parametrize("r", [0, 2, 3])
def test_prefill_into_a_block_row_equals_a_fresh_one_row_prefill(small_model, r):
    # the walk prefills each prompt straight into its row of the block: the
    # logits and K/V are a fresh one-row prefill's, and no other row moves
    cfg = small_model.config
    block = prefilled_block(small_model, [PROMPT[:5], PROMPT[:9], PROMPT[:9], PROMPT])
    block.lengths[r] = 0
    block.k[:, r] = block.v[:, r] = np.nan
    others = [j for j in range(4) if j != r]
    k, v, lengths = block.k[:, others].copy(), block.v[:, others].copy(), block.lengths.copy()
    logits, row = prefill(small_model, 3, PROMPT[:17], block.row(r))
    want, fresh = prefill(small_model, 3, PROMPT[:17])
    assert logits.tobytes() == want.tobytes()
    assert row.T == block.lengths[r] == fresh.T == 17
    assert block.k[:, r, :17].tobytes() == fresh.k[:, 0, :17].tobytes()
    assert block.v[:, r, :17].tobytes() == fresh.v[:, 0, :17].tobytes()
    for a, b in zip(row.layer_kv(-1), fresh.layer_kv(cfg.n_layers - 1)):
        assert a.tobytes() == b.tobytes()
    assert block.k[:, others].tobytes() == k.tobytes()
    assert block.v[:, others].tobytes() == v.tobytes()
    assert block.lengths[others].tolist() == lengths[others].tolist()


@pytest.mark.parametrize("rows", [[3], [0, 1, 2, 3]])
def test_decode_step_reads_no_position_at_or_past_a_rows_length(small_model, rows):
    # the trie walk's rollback rests on this: NaN in every position a row does
    # not hold changes neither the logits nor the K/V the steps write
    prompts = [PROMPT[:5], PROMPT[:9], PROMPT[:9], PROMPT]
    clean = prefilled_block(small_model, prompts)
    dirty = prefilled_block(small_model, prompts)
    for r, t in enumerate(dirty.lengths):
        dirty.k[:, r, t:] = np.nan
        dirty.v[:, r, t:] = np.nan
    for step in range(2):
        tokens = [65 + step + r for r in rows]
        want = decode_step(small_model, 3, tokens, clean, rows)
        got = decode_step(small_model, 3, tokens, dirty, rows)
        assert got.tobytes() == want.tobytes()
    assert dirty.lengths.tolist() == clean.lengths.tolist()
    for r, t in enumerate(clean.lengths):
        assert dirty.k[:, r, :t].tobytes() == clean.k[:, r, :t].tobytes()
        assert dirty.v[:, r, :t].tobytes() == clean.v[:, r, :t].tobytes()


def test_a_branch_rolled_back_in_place_leaves_the_trunk_bit_identical(small_model):
    # a split of the trie walk: some rows decode a branch in the block itself,
    # their lengths are restored, and the trunk steps on as if it never ran
    prompts = [PROMPT[:5], PROMPT[:9], PROMPT[:9], PROMPT]
    trunk = prefilled_block(small_model, prompts)
    alone = prefilled_block(small_model, prompts)
    branch, held = [1, 2, 3], trunk.lengths.tolist()
    for step in range(3):
        decode_step(small_model, 2, [70 + step] * len(branch), trunk, branch)
    assert trunk.lengths.tolist() != held
    trunk.lengths[:] = held
    for step in range(2):
        tokens, every = [65 + step] * len(prompts), list(range(len(prompts)))
        want = decode_step(small_model, 4, tokens, alone, every)
        got = decode_step(small_model, 4, tokens, trunk, every)
        assert got.tobytes() == want.tobytes()
    assert trunk.lengths.tolist() == alone.lengths.tolist()
    for r, t in enumerate(alone.lengths):
        assert trunk.k[:, r, :t].tobytes() == alone.k[:, r, :t].tobytes()
        assert trunk.v[:, r, :t].tobytes() == alone.v[:, r, :t].tobytes()


def test_different_precisions_give_different_logits(small_model):
    _, c2 = prefill(small_model, 4, PROMPT)
    _, c3 = prefill(small_model, 4, PROMPT)
    l2 = decode_step(small_model, 2, [65], c2, [0])
    l3 = decode_step(small_model, 3, [65], c3, [0])
    assert not np.allclose(l2, l3)


def test_attention_rows_sum_to_one():
    # the causal mask of a prefill: position i sees keys 0..i only
    scores = np.random.default_rng(0).normal(0.0, 10.0, (2, 6, 6))
    seen = np.tril(np.ones((6, 6), dtype=bool))
    attn = tinylm._softmax(np.where(seen[None], scores, -np.inf))
    assert np.all(attn[:, ~seen] == 0.0)
    assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-12)


def test_input_validation(small_model):
    with pytest.raises(InputError):
        prefill(small_model, 4, [])
    with pytest.raises(InputError):  # by prefill's rule, no tokens are refused
        forward_full(small_model, 4, [])
    with pytest.raises(InputError):
        prefill(small_model, 4, [1] * (small_model.config.max_context + 1))
    with pytest.raises(InputError):
        prefill(small_model, 4, [999])
    _, cache = prefill(small_model, 4, PROMPT)
    with pytest.raises(InputError):
        decode_step(small_model, 4, [5], tinylm.KVCache(small_model.config, 16), [0])
    with pytest.raises(ContractViolation):
        prefill(small_model, 5, PROMPT)
    with pytest.raises(InputError):  # prefill fills one row, never row 0 of a block
        prefill(small_model, 4, PROMPT, tinylm.KVCache(small_model.config, 40, rows=3))
    block = prefilled_block(small_model, [PROMPT[:5], PROMPT[:9], PROMPT])
    k, v, lengths = block.k.copy(), block.v.copy(), block.lengths.copy()
    # rows that repeat, fall or lie outside the block, no rows, token counts
    # that differ from the row count, and a bare id
    for tokens, rows in (([65, 66], [1, 1]), ([65, 66], [2, 1]), ([65], [0, 1]),
                         ([65, 66], [0, 1, 2]), (65, [0]), ([65], [3]), ([65, 66], [0, 5]),
                         ([65], [-1]), ([], [])):
        with pytest.raises(InputError):
            decode_step(small_model, 4, tokens, block, rows)
    with pytest.raises(InputError):
        decode_step(small_model, 4, [65, 66], cache, [0])
    with pytest.raises(InputError):  # prefill fills an empty cache only
        prefill(small_model, 4, [4, 5], cache)
    # the decode kernel's own checks, on a one-row cache and on a 3-row block
    for c, rows, tokens, bad_id in ((cache, [0], [65], [999]),
                                    (block, [0, 1, 2], [65, 66, 67], [65, 999, 67])):
        with pytest.raises(ContractViolation):
            decode_step(small_model, 5, tokens, c, rows)
        with pytest.raises(InputError):
            decode_step(small_model, 4, bad_id, c, rows)
    assert cache.T == len(PROMPT)
    assert block.lengths.tolist() == lengths.tolist()
    assert block.k.tobytes() == k.tobytes() and block.v.tobytes() == v.tobytes()
    full = prefilled_block(small_model, [PROMPT[:5], PROMPT, PROMPT[:9]], len(PROMPT))
    with pytest.raises(InputError):  # row 1 holds its capacity
        decode_step(small_model, 4, [65, 66, 67], full, [0, 1, 2])
    assert full.lengths.tolist() == [5, len(PROMPT), 9]


@pytest.mark.parametrize("bad", [1.7, 3.9, True, np.float64(2.0), np.bool_(True), "A", None])
def test_a_token_id_that_is_not_an_integer_is_refused(small_model, bad):
    # ids were read through np.asarray(..., dtype=np.int64), which ran 1.7
    # as token 1 and True as token 1; every kernel now refuses them, unwritten
    _, cache = prefill(small_model, 4, PROMPT)
    block = prefilled_block(small_model, [PROMPT[:5], PROMPT])
    k, v, lengths = block.k.copy(), block.v.copy(), block.lengths.copy()
    calls = (lambda: prefill(small_model, 4, [65, bad]),
             lambda: forward_full(small_model, 4, [bad, 65]),
             lambda: decode_step(small_model, 4, np.array([bad]), cache, [0]),
             lambda: decode_step(small_model, 4, [bad], cache, [0]),
             lambda: decode_step(small_model, 4, [65, bad], block, [0, 1]))
    for call in calls:
        with pytest.raises(InputError, match="not an integer"):
            call()
    assert cache.T == len(PROMPT) and block.lengths.tolist() == lengths.tolist()
    assert block.k.tobytes() == k.tobytes() and block.v.tobytes() == v.tobytes()
    # numpy integers are ids like Python ints
    want = decode_step(small_model, 4, [65], prefill(small_model, 4, PROMPT)[1], [0])
    assert decode_step(small_model, 4, [np.int32(65)], cache, [0]).tobytes() == want.tobytes()
    assert (prefill(small_model, 4, list(np.array(PROMPT, dtype=np.uint8)))[0].tobytes()
            == prefill(small_model, 4, PROMPT)[0].tobytes())


@pytest.mark.parametrize("capacity, rows", [(16, 1), (40, 3)])
def test_the_cache_stores_keys_and_values_by_head(small_model, capacity, rows):
    cfg = small_model.config
    cache = tinylm.KVCache(cfg, capacity, rows)
    shape = (cfg.n_layers, rows, capacity, cfg.n_heads, cfg.d_head)
    assert cache.k.shape == cache.v.shape == shape


def test_layer_kv_is_a_d_model_wide_view_of_the_cache(small_model):
    cfg = small_model.config
    block = prefilled_block(small_model, [PROMPT[:5], PROMPT])
    for r, n in enumerate((5, len(PROMPT))):
        k, v = block.row(r).layer_kv(-1)
        assert k.shape == v.shape == (n, cfg.d_model)
        assert np.shares_memory(k, block.k) and np.shares_memory(v, block.v)
        assert k.tobytes() == block.k[-1, r, :n].tobytes()
        assert v.tobytes() == block.v[-1, r, :n].tobytes()


def test_a_blocks_length_and_layer_kv_are_refused_naming_its_rows(small_model):
    block = tinylm.KVCache(small_model.config, 16, rows=3)
    with pytest.raises(ConfigError, match="3 rows"):
        block.T
    with pytest.raises(ConfigError, match="3 rows"):
        block.layer_kv(0)
    # an empty row is still d_model wide
    assert block.row(1).T == 0 and block.row(1).layer_kv(-1)[0].shape == (0, 64)


@pytest.mark.parametrize("r", [2, -1])
def test_a_row_outside_the_block_is_refused(small_model, r):
    # a view of no row fails only later, naming lengths [] or a 0-row cache
    block = tinylm.KVCache(small_model.config, 16, rows=2)
    with pytest.raises(ConfigError, match="outside the cache's 2 rows"):
        block.row(r)


def test_a_step_over_an_unprefilled_row_is_refused_unwritten(small_model):
    block = tinylm.KVCache(small_model.config, 40, rows=2)
    prefill(small_model, 4, PROMPT, block.row(0))
    k, v, lengths = block.k.copy(), block.v.copy(), block.lengths.copy()
    with pytest.raises(InputError, match="prefilled"):
        decode_step(small_model, 4, [65, 66], block, [0, 1])
    assert block.lengths.tolist() == lengths.tolist()
    assert block.k.tobytes() == k.tobytes() and block.v.tobytes() == v.tobytes()


def test_a_schedule_the_model_cannot_decode_is_refused_before_any_step(small_model,
                                                                      monkeypatch):
    # prefill at 4 is served, decode precision 1 is not: found at resolve time
    steps = []
    monkeypatch.setattr(tinylm, "decode_step", lambda *args: steps.append(args))
    sched = PrecisionSchedule.two_phase(4, 1, 2, 8)
    with pytest.raises(ContractViolation, match="precision 1 outside"):
        tinylm.decode_schedules(small_model, [PROMPT], [StaticScheduler(sched)], max_new=8)
    assert steps == []


def test_decode_rejects_full_context():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=64, max_context=8)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((3,)), seed=1)
    _, cache = prefill(model, 3, [1] * 7)
    decode_step(model, 3, [1], cache, [0])
    with pytest.raises(InputError):
        decode_step(model, 3, [1], cache, [0])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_greedy_and_tie_break():
    assert sample(np.array([0.1, 2.0, -1.0]), SamplerConfig()) == 1
    assert sample(np.array([3.0, 3.0]), SamplerConfig()) == 0


def test_sample_temperature_reproducible():
    cfg = SamplerConfig(temperature=0.8, seed=5)
    logits = np.array([0.3, 0.1, 0.9, -0.5])
    a, b = (named_rng(cfg.seed, "sampler") for _ in range(2))
    assert [sample(logits, cfg, a) for _ in range(8)] == [sample(logits, cfg, b) for _ in range(8)]


def test_a_temperature_sampler_without_a_stream_is_refused():
    # one stream per sequence: a stream seeded afresh per draw repeats its first
    cfg = SamplerConfig(temperature=1.0, seed=5)
    with pytest.raises(ConfigError, match="stream"):
        sample(np.zeros(257), cfg)
    rng = named_rng(cfg.seed, "sampler")
    assert len({sample(np.zeros(257), cfg, rng) for _ in range(6)}) > 1
    assert sample(np.array([0.1, 2.0]), SamplerConfig()) == 1  # greedy draws nothing


def test_sample_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        sample(np.array([1.0]), SamplerConfig(temperature=0.0))
    with pytest.raises(ConfigError):
        sample(np.array([1.0]), SamplerConfig(temperature=float("nan")))
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


def test_invalid_schedule_is_rejected_when_built():
    with pytest.raises(ConfigError):
        PrecisionSchedule(quant.PrecisionSet((4, 3)), 4, {4: 5, 3: 1}, 16)


def test_max_new_beyond_horizon_rejected(small_model):
    sched = StaticScheduler(PrecisionSchedule.two_phase(3, 2, 2, 8))
    with pytest.raises(InputError):
        generate(small_model, PROMPT, sched, max_new=9)


def test_max_new_below_one_rejected(small_model):
    with pytest.raises(InputError):
        generate(small_model, PROMPT, FixedScheduler(4), max_new=0)


def counting_prefills(monkeypatch) -> list:
    """The arguments of every ``prefill`` call from here on."""
    calls, real = [], tinylm.prefill
    monkeypatch.setattr(tinylm, "prefill", lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_request_that_cannot_fit_is_refused_before_any_prefill(small_model, monkeypatch):
    # it was refused by the decode step that overflowed, after the wave's prefills
    calls = counting_prefills(monkeypatch)
    mc = small_model.config.max_context
    with pytest.raises(InputError, match=f"{mc + 1} positions, more than max_context {mc}"):
        tinylm.decode_schedules(small_model, [PROMPT, [1] * (mc - 10)], [FixedScheduler(4)],
                                max_new=12)
    assert calls == []


def test_an_empty_prompt_is_refused_by_its_index_before_any_prefill(small_model, monkeypatch):
    # it was refused by the first prefill, in the kernel's words about its cache
    def prefill(*args):
        raise AssertionError("a prompt was prefilled before the empty one was refused")

    monkeypatch.setattr(tinylm, "prefill", prefill)
    with pytest.raises(InputError, match="prompt 1 is empty"):
        tinylm.decode_schedules(small_model, [PROMPT, [], PROMPT], [FixedScheduler(4)],
                                max_new=4)


def test_a_request_of_exactly_max_context_decodes_to_the_last_position(small_model,
                                                                        monkeypatch):
    calls = counting_prefills(monkeypatch)
    mc = small_model.config.max_context
    trace = generate(small_model, [1] * (mc - 11), FixedScheduler(4),
                     eos_id=small_model.config.vocab_size, max_new=12)
    assert len(trace.output_tokens) == 12 and trace.termination == "length"
    assert calls[0][3].capacity == mc


def test_a_prompt_of_max_context_tokens_is_prefilled(monkeypatch):
    # one capacity rule, the kernels' own check: prefill once refused a prompt
    # of max_context tokens, and only when its wave came to be prefilled
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=64, max_context=8)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4,)), seed=1)
    traces, _ = tinylm.decode_schedules(model, [[1] * 3, [1] * 8], [FixedScheduler(4)],
                                        max_new=1)
    assert [len(t.prompt_tokens) for (t,) in traces] == [3, 8]
    assert all(len(t.output_tokens) == 1 for (t,) in traces)
    calls = counting_prefills(monkeypatch)
    with pytest.raises(InputError, match="need 9 positions, more than max_context 8"):
        tinylm.decode_schedules(model, [[1] * 3, [1] * 9], [FixedScheduler(4)], max_new=1)
    assert calls == []
    with pytest.raises(InputError, match="sequence length 9 exceeds"):
        prefill(model, 4, [1] * 9)


def test_a_greedy_walk_builds_no_sampler_stream(small_model, monkeypatch):
    # greedy sampling never draws, so no row's stream is seeded
    calls, real = [], tinylm.named_rng
    monkeypatch.setattr(tinylm, "named_rng", lambda *args: calls.append(args) or real(*args))
    tinylm.decode_schedules(small_model, [PROMPT, list(b"A lantern")], [FixedScheduler(4)],
                            max_new=4)
    assert calls == []
    tinylm.decode_schedules(small_model, [PROMPT, list(b"A lantern")], [FixedScheduler(4)],
                            SAMPLERS["temperature"], max_new=4)
    assert calls == [(5, "sampler")] * 2


def test_an_array_prompt_prefills_like_a_list(small_model):
    logits, cache = prefill(small_model, 4, np.array(PROMPT))
    assert logits.tobytes() == prefill(small_model, 4, PROMPT)[0].tobytes()
    assert cache.T == len(PROMPT)
    with pytest.raises(InputError, match="empty"):
        prefill(small_model, 4, np.array([], dtype=np.int64))


def test_an_array_prompt_generates_like_a_list(small_model):
    trace = generate(small_model, np.array(PROMPT), FixedScheduler(4), max_new=6)
    assert trace.prompt_tokens == PROMPT
    assert {type(t) for t in trace.prompt_tokens} == {int}  # JSON-serializable
    same = generate(small_model, PROMPT, FixedScheduler(4), max_new=6)
    assert trace.to_json() == same.to_json()


def test_a_zero_dimensional_array_token_is_refused(small_model):
    # decode_step takes one id per row in a sequence: a bare id, a numpy
    # scalar or a 0-d array, is refused before anything is written
    _, cache = prefill(small_model, 4, PROMPT)
    k, v = cache.k.tobytes(), cache.v.tobytes()
    for bare in (np.array(65), 65, np.int64(65)):
        with pytest.raises(InputError, match="sequence of token ids"):
            decode_step(small_model, 4, bare, cache, [0])
    assert cache.T == len(PROMPT)
    assert cache.k.tobytes() == k and cache.v.tobytes() == v
    logits = decode_step(small_model, 4, [np.int64(65)], cache, [0])  # a numpy id steps
    assert type(logits) is np.ndarray and logits.shape == (1, small_model.config.vocab_size)


SAMPLERS = {"greedy": SamplerConfig(),
            "temperature": SamplerConfig(temperature=0.8, seed=5)}


def learned_scheduler(model):
    d = model.config.d_model
    net = SchedulerNet.init(d, d, 8, SwitchGrid(5, 16), 4, 2, seed=3)
    return LearnedScheduler(net)


SCHEDULERS = {
    "fixed": lambda model: FixedScheduler(3),
    "static": lambda model: StaticScheduler(
        PrecisionSchedule(quant.PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 3, 2: 7}, 16)),
    "learned": learned_scheduler,
}


@pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS.keys())
@pytest.mark.parametrize("make_scheduler", SCHEDULERS.values(), ids=SCHEDULERS.keys())
def test_generate_matches_the_naive_loop(small_model, naive_generate, make_scheduler,
                                         sampler):
    scheduler = make_scheduler(small_model)
    prompts = (PROMPT, list(b"A lantern"))
    # one lockstep call over both prompts: each row samples its own stream
    rows, _ = tinylm.decode_schedules(small_model, prompts, [scheduler], sampler, max_new=16)
    for prompt, (got,) in zip(prompts, rows):
        want = naive_generate(small_model, prompt, scheduler, sampler, max_new=16)
        assert got.to_json() == want.to_json()
        assert generate(small_model, prompt, scheduler, sampler,
                        max_new=16).to_json() == want.to_json()
        assert want.termination == "length"
        # the token emitted at index 5 as EOS ends the run by index 5
        eos = want.output_tokens[5]
        want = naive_generate(small_model, prompt, scheduler, sampler, eos, max_new=16)
        assert generate(small_model, prompt, scheduler, sampler, eos,
                        max_new=16).to_json() == want.to_json()
        assert want.termination == "eos" and len(want.output_tokens) <= 6


def test_non_greedy_sampler_walks_one_schedule_only(small_model, monkeypatch):
    schedulers = [StaticScheduler(PrecisionSchedule.two_phase(4, 2, k, 8)) for k in (2, 4)]
    # the rule is checked before any prefill
    monkeypatch.setattr(tinylm, "prefill", None)
    with pytest.raises(ConfigError, match="not forked"):
        tinylm.decode_schedules(small_model, [PROMPT], schedulers, SAMPLERS["temperature"],
                                max_new=8)


class RecordingScheduler:
    """A scheduler that records the cache length each ``resolve`` sees."""

    def __init__(self, inner):
        self.inner = inner
        self.p_prefill = inner.p_prefill
        self.seen = []

    def resolve(self, cache):
        self.seen.append(cache.T)
        return self.inner.resolve(cache)


def test_one_call_decodes_every_kind_of_scheduler(small_model, naive_generate):
    # three prefill groups (16, 3 and the learned scheduler's 4), each
    # resolved on each prompt's own prefill before any decode step
    inner = [FixedScheduler(FULL_PRECISION),
             StaticScheduler(PrecisionSchedule.two_phase(4, 2, 5, 16, p_prefill=3)),
             learned_scheduler(small_model)]
    recording = [RecordingScheduler(s) for s in inner]
    prompts = [PROMPT, list(b"A lantern")]
    traces, features = tinylm.decode_schedules(small_model, prompts, recording, max_new=16,
                                               feature_block=-1)
    for prompt, row, feats in zip(prompts, traces, features):
        assert sorted(feats) == [3, 4, FULL_PRECISION]
        for scheduler, trace in zip(inner, row):
            want = naive_generate(small_model, prompt, scheduler, max_new=16)
            assert trace.to_json() == want.to_json()
    # waves run shortest prompt first
    assert all(rec.seen == sorted(map(len, prompts)) for rec in recording)


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


def test_resolved_tuple_holds_the_cached_weight_arrays():
    # no second float64 copy: every entry is the array weights() or norms hold
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=64, d_ff=128, max_context=64)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4, 3, 2)), seed=9)
    for p in (4, 3, 2, FULL_PRECISION):
        embed, layers, final_norm, head = model.resolved(p)
        assert model.resolved(p)[1] is layers and len(layers) == cfg.n_layers
        assert embed is model.weights("embed", p) and head is model.weights("head", p)
        assert final_norm is model.norms["final_norm"]
        for i, layer in enumerate(layers):
            names = ("norm_attn", "wqkv", "wo", "norm_mlp", "w_up", "w_down")
            for name, arr in zip(names, layer, strict=True):
                name = f"layers.{i}.{name}"
                assert arr is (model.norms[name] if "norm" in name else model.weights(name, p))


def test_q_k_v_are_views_of_one_fused_array_and_add_no_bytes(toy_model):
    # a layer's wq, wk and wv share memory with its wqkv instead of being
    # stored twice, so a precision's float64 weights take exactly the
    # tensors' own size: 5.5 MiB for the README's model (this fixture)
    cfg = toy_model.config
    for p in (4, 3, 2, FULL_PRECISION):
        for i in range(cfg.n_layers):
            wqkv = toy_model.weights(f"layers.{i}.wqkv", p)
            assert wqkv.shape == (cfg.d_model, 3 * cfg.d_model) and not wqkv.flags.writeable
            for t in ("wq", "wk", "wv"):
                w = toy_model.weights(f"layers.{i}.{t}", p)
                assert w.base is wqkv
        owners = {}
        for name in toy_model.tensors:
            w = toy_model.weights(name, p)
            root = w if w.base is None else w.base
            owners[id(root)] = root.nbytes
        sizes = sum(8 * t.rows * t.cols for t in toy_model.tensors.values())
        assert sum(owners.values()) == sizes
        assert round(sizes / 2**20, 1) == 5.5


def test_undeclared_precision_leaves_the_kv_cache_untouched(small_model):
    _, cache = prefill(small_model, 4, PROMPT)
    k, v = cache.k.tobytes(), cache.v.tobytes()
    for p in (5, 1, 8):
        with pytest.raises(ContractViolation):
            decode_step(small_model, p, [65], cache, [0])
    assert cache.T == len(PROMPT)
    assert cache.k.tobytes() == k and cache.v.tobytes() == v


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
    # generating at 16 is a broken contract (exit 3), found before any weight read
    assert FULL_PRECISION not in loaded.allowed_precisions()
    with pytest.raises(ContractViolation):
        generate(loaded, PROMPT, FixedScheduler(FULL_PRECISION), max_new=2)
    with pytest.raises(ConfigError):
        loaded.resolved(FULL_PRECISION)
    _, cache = prefill(loaded, 4, PROMPT)
    with pytest.raises(ContractViolation):
        decode_step(loaded, FULL_PRECISION, [65], cache, [0])
    assert cache.T == len(PROMPT)
