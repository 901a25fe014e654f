import itertools
import math

import numpy as np
import pytest

from pmpd import cli, quant, tinylm
from pmpd.schedule import PrecisionSchedule
from pmpd.util import named_rng


@pytest.fixture(scope="session")
def small_model():
    """Cheap 2-layer model for unit tests."""
    cfg = tinylm.ModelConfig(n_layers=2, n_heads=2, d_model=64, d_ff=128,
                             max_context=128)
    return tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4, 3, 2)), seed=7)


@pytest.fixture(scope="session")
def toy_model():
    """The desk-scale experiment model: 4 layers, d_model 128, 4 heads, vocab 257."""
    cfg = tinylm.ModelConfig(n_layers=4, n_heads=4, d_model=128, d_ff=256,
                             max_context=256)
    return tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((4, 3, 2)), seed=11)


@pytest.fixture(scope="session")
def corpus_prompts():
    tok = tinylm.ByteTokenizer()
    lines = cli.load_prompt_lines(None)
    return [tok.encode(line)[:48] for line in lines]


class NaiveCache:
    """One sequence's K/V rows, ``[n_layers, capacity, width]``, for the naive pass."""

    def __init__(self, n_layers, width, capacity):
        self.k = np.zeros((n_layers, capacity, width))
        self.v = np.zeros((n_layers, capacity, width))
        self.T = 0


def _naive_forward(model, p, tokens, cache):
    """The forward pass written out as the bitwise reference for all three
    kernels, ``tinylm._extend`` (``prefill``, ``forward_full``) and ``tinylm._step``
    and ``tinylm._decode`` (``decode_step``): one sequence, every matrix read through
    ``model.weights(name, p)`` and every gain through ``model.norms[name]`` at
    its use, the RoPE tables computed for the call's positions, and
    ``np.mean``/``np.max``/``np.sum``. Extends ``cache`` (a
    :class:`NaiveCache`) and returns the logits of every new position."""
    cfg = model.config
    n, T0, H, dh = len(tokens), cache.T, cfg.n_heads, cfg.d_head

    def rmsnorm(x, name):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * model.norms[name]

    def rope(x):
        inv_freq = cfg.rope_theta ** (-np.arange(0, dh, 2) / dh)
        angles = np.arange(T0, T0 + n, dtype=np.float64)[:, None] * inv_freq[None, :]
        c, s = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
        x1, x2 = x[..., : dh // 2], x[..., dh // 2 :]
        return np.concatenate([x1 * c - x2 * s, x2 * c + x1 * s], axis=-1)

    x = model.weights("embed", p)[np.asarray(tokens, dtype=np.int64)]
    for i in range(cfg.n_layers):
        def w(name):
            return model.weights(f"layers.{i}.{name}", p)

        h = rmsnorm(x, f"layers.{i}.norm_attn")
        q = rope((h @ w("wq")).reshape(n, H, dh))
        cache.k[i, T0 : T0 + n] = rope((h @ w("wk")).reshape(n, H, dh)).reshape(n, -1)
        cache.v[i, T0 : T0 + n] = h @ w("wv")
        k_all = cache.k[i, : T0 + n].reshape(T0 + n, H, dh)
        v_all = cache.v[i, : T0 + n].reshape(T0 + n, H, dh)
        scores = np.einsum("nhd,thd->hnt", q, k_all) * (1.0 / math.sqrt(dh))
        if n > 1:
            seen = np.arange(T0 + n)[None, :] <= (T0 + np.arange(n))[:, None]
            scores = np.where(seen[None, :, :], scores, -np.inf)
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        attn = e / np.sum(e, axis=-1, keepdims=True)
        x = x + np.einsum("hnt,thd->nhd", attn, v_all).reshape(n, -1) @ w("wo")
        u = rmsnorm(x, f"layers.{i}.norm_mlp") @ w("w_up")
        gate, up = u[:, : cfg.d_ff], u[:, cfg.d_ff :]
        x = x + (gate / (1.0 + np.exp(-gate)) * up) @ w("w_down")
    cache.T = T0 + n
    return rmsnorm(x, "final_norm") @ model.weights("head", p)


@pytest.fixture(scope="session")
def naive_forward():
    return _naive_forward


@pytest.fixture(scope="session")
def naive_cache():
    return NaiveCache


def _naive_generate(model, prompt, scheduler, sampler_cfg=None, eos_id=None, max_new=64):
    """The plain decode loop, written out as the reference for the shared
    walk in ``tinylm.decode_schedules``: prefill, resolve, then one
    ``decode_step`` at ``precision_at(step)`` and one ``sample`` per token."""
    cfg = sampler_cfg if sampler_cfg is not None else tinylm.SamplerConfig()
    eos = model.config.vocab_size - 1 if eos_id is None else eos_id
    rng = named_rng(cfg.seed, "sampler")
    logits, cache = tinylm.prefill(model, scheduler.p_prefill, prompt)
    sched = scheduler.resolve(cache)
    tokens = [tinylm.sample(logits, cfg, rng)]
    hashes = [tinylm.logits_hash(logits)]
    while tokens[-1] != eos and len(tokens) < max_new:
        (logits,) = tinylm.decode_step(model, sched.precision_at(len(tokens) - 1),
                                       [tokens[-1]], cache, [0])
        tokens.append(tinylm.sample(logits, cfg, rng))
        hashes.append(tinylm.logits_hash(logits))
    return tinylm.GenerationTrace(list(prompt), tokens,
                                  [sched.precision_at(j) for j in range(len(tokens))],
                                  hashes, "eos" if tokens[-1] == eos else "length",
                                  scheduler.p_prefill, sched)


@pytest.fixture(scope="session")
def naive_generate():
    return _naive_generate


def _naive_best(precisions, p_prefill, horizon, quality_fn, target):
    """The exhaustive reference for ``schedule.solve_static`` on a grid that
    holds every integer switch point, sharing none of its code: every tuple
    of starts in ``[0, horizon]``, precedence checked here, bit-tokens
    summed from ``precision_at``, and an argmin by (bit-tokens, starts in
    precision order) among the schedules whose quality meets the floor. When
    none does, the all-high schedule flagged infeasible."""
    desc = sorted(precisions, reverse=True)
    best_key, best = None, None
    for lower in itertools.product(range(horizon + 1), repeat=len(desc) - 1):
        starts = (0, *lower)
        if any(a > b for a, b in zip(starts, starts[1:])):
            continue
        sched = PrecisionSchedule(desc, p_prefill, dict(zip(desc, starts)), horizon)
        if quality_fn(sched) < target.floor:
            continue
        key = (sum(sched.precision_at(i) for i in range(horizon)), starts)
        if best_key is None or key < best_key:
            best_key, best = key, sched
    if best is None:
        all_high = {p: 0 if p == desc[0] else horizon for p in desc}
        return PrecisionSchedule(desc, p_prefill, all_high, horizon, feasible=False)
    return best


@pytest.fixture(scope="session")
def naive_best():
    return _naive_best
