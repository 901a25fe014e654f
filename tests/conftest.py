import itertools

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
        logits, cache = tinylm.decode_step(model, sched.precision_at(len(tokens) - 1),
                                           tokens[-1], cache)
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
