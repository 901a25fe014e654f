"""Deterministic toy decoder-only transformer with per-step weight precision.

LLaMA-flavored at desk scale: pre-norm blocks with RMSNorm, rotary position
embeddings on queries and keys, and a SiLU-gated MLP (gate and up fused into
one projection). All math runs in float64 numpy so a fixed weight file,
prompt, schedule and sampler seed reproduce a generation bit for bit.

Weight precision applies to the quantized matrices only; activations, the KV
cache, accumulators and RMSNorm gains stay full precision. Precision 16 is
the full-precision sentinel: it reads the original real weights instead of a
dequantized view. Each precision's arrays are resolved once, RoPE tables too.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, FormatError, InputError
from .quant import (FULL_PRECISION, PrecisionSet, QuantizedTensor, dequantize, parse_model,
                    quantize_tensor, serialize_model)
from .schedule import PrecisionSchedule
from .util import named_rng, parsing, read_bytes, read_json

BYTE_EOS_ID = 256
BYTE_VOCAB_SIZE = 257


class ByteTokenizer:
    """UTF-8 bytes as tokens, ids 0..255, plus a reserved EOS id 256."""

    vocab_size = BYTE_VOCAB_SIZE
    eos_id = BYTE_EOS_ID

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, tokens: Sequence[int]) -> str:
        return bytes(t for t in tokens if 0 <= t < 256).decode("utf-8", errors="replace")


class VocabTokenizer:
    """Greedy longest-match tokenizer over an explicit string vocabulary."""

    def __init__(self, tokens: Sequence[str], eos_id: int | None = None):
        if not tokens:
            raise InputError("vocabulary is empty")
        self.tokens = list(tokens)
        self.eos_id = len(self.tokens) if eos_id is None else int(eos_id)
        self.vocab_size = max(len(self.tokens), self.eos_id + 1)
        self._by_length = sorted(range(len(self.tokens)),
                                 key=lambda i: -len(self.tokens[i]))

    @classmethod
    def from_json(cls, path) -> "VocabTokenizer":
        obj = read_json(path)
        tokens = obj.get("tokens") if isinstance(obj, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise FormatError(f"vocabulary file {path} lacks a 'tokens' list of strings")
        eos = obj.get("eos")
        if eos is not None and (type(eos) is not int or eos < 0):
            raise FormatError(f"vocabulary file {path}: 'eos' must be a non-negative "
                              f"integer, got {eos!r}")
        return cls(tokens, eos)

    def encode(self, text: str) -> list[int]:
        out, pos = [], 0
        while pos < len(text):
            for idx in self._by_length:
                tok = self.tokens[idx]
                if tok and text.startswith(tok, pos):
                    out.append(idx)
                    pos += len(tok)
                    break
            else:
                raise InputError(f"untokenizable text at position {pos}: {text[pos:pos+8]!r}")
        return out

    def decode(self, tokens: Sequence[int]) -> str:
        return "".join(self.tokens[t] for t in tokens
                       if t != self.eos_id and 0 <= t < len(self.tokens))


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int = BYTE_VOCAB_SIZE
    max_context: int = 512
    rope_theta: float = 10000.0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_context"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.n_layers, self.n_heads, self.d_model, self.d_ff) < 1:
            raise ConfigError("n_layers, n_heads, d_model and d_ff must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head width must be even for rotary embeddings")
        if self.max_context < 2:
            raise ConfigError(f"max_context must be >= 2, got {self.max_context}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not 0 < self.rope_theta < math.inf:
            raise ConfigError(f"rope_theta must be positive and finite, got {self.rope_theta}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_json(self) -> dict:
        return {"n_layers": self.n_layers, "n_heads": self.n_heads,
                "d_model": self.d_model, "d_ff": self.d_ff,
                "vocab_size": self.vocab_size, "max_context": self.max_context,
                "rope_theta": self.rope_theta}


def _weight_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    d, ff = cfg.d_model, cfg.d_ff
    shapes = [("embed", (cfg.vocab_size, d))]
    for i in range(cfg.n_layers):
        shapes += [(f"layers.{i}.wq", (d, d)), (f"layers.{i}.wk", (d, d)),
                   (f"layers.{i}.wv", (d, d)), (f"layers.{i}.wo", (d, d)),
                   (f"layers.{i}.w_up", (d, 2 * ff)), (f"layers.{i}.w_down", (ff, d))]
    shapes.append(("head", (d, cfg.vocab_size)))
    return shapes


def _norm_names(cfg: ModelConfig) -> list[str]:
    names = []
    for i in range(cfg.n_layers):
        names += [f"layers.{i}.norm_attn", f"layers.{i}.norm_mlp"]
    names.append("final_norm")
    return names


def random_weights(cfg: ModelConfig, seed: int):
    """Seeded Gaussian weights scaled by 1/sqrt(d_model); norm gains at 1."""
    rng = named_rng(seed, "weights")
    scale = 1.0 / math.sqrt(cfg.d_model)
    weights = {name: rng.normal(0.0, scale, shape).astype(np.float32)
               for name, shape in _weight_shapes(cfg)}
    norms = {name: np.ones(cfg.d_model, dtype=np.float32) for name in _norm_names(cfg)}
    return weights, norms


INIT_SCHEME = "gaussian-inv-sqrt-dmodel"


class ModelVariants:
    """One quantized weight store readable at any precision in its set.

    Instances are immutable after construction apart from never-evicted caches
    of the float64 weights per (tensor, precision) and of :meth:`resolved`'s
    tuples of them. Each generation owns its private KV cache and trace.
    """

    def __init__(self, config: ModelConfig, precisions: PrecisionSet,
                 tensors: dict[str, QuantizedTensor], norms: dict[str, np.ndarray],
                 full_weights: dict[str, np.ndarray] | None = None,
                 init_info: dict | None = None):
        self.config = config
        self.precisions = precisions
        self.tensors = tensors
        self.norms = {k: np.asarray(v, dtype=np.float32) for k, v in norms.items()}
        self.full_weights = full_weights
        self.init_info = init_info
        self._allowed = frozenset(precisions.precisions) | (
            {FULL_PRECISION} if full_weights is not None else frozenset())
        self._norm64 = {k: _readonly(v.astype(np.float64)) for k, v in self.norms.items()}
        self._weights64: dict[tuple[str, int], np.ndarray] = {}
        self._resolved: dict[int, tuple] = {}
        self.rope = _rope_tables(config)
        expected = dict(_weight_shapes(config))
        for name, shape in expected.items():
            t = tensors.get(name)
            if t is None or (t.rows, t.cols) != shape:
                raise ConfigError(f"tensor '{name}' missing or mis-shaped for this config")
        for name in _norm_names(config):
            gain = self._norm64.get(name)
            if gain is None or gain.shape != (config.d_model,) or not np.isfinite(gain).all():
                raise ConfigError(f"norm gain '{name}' missing, mis-shaped or non-finite")
        p_maxes = sorted({t.p_max for t in tensors.values()})
        if p_maxes != [precisions.p_max]:
            raise ConfigError(f"precision set {list(precisions)} does not match the "
                              f"tensors' p_max {p_maxes}")

    @classmethod
    def from_random(cls, config: ModelConfig, precisions: PrecisionSet, seed: int,
                    group_size: int = 64) -> "ModelVariants":
        full, norms = random_weights(config, seed)
        tensors = {name: quantize_tensor(w, precisions.p_max, group_size)
                   for name, w in full.items()}
        info = {"scheme": INIT_SCHEME, "seed": int(seed)}
        return cls(config, precisions, tensors, norms, full_weights=full, init_info=info)

    @property
    def group_size(self) -> int:
        return next(iter(self.tensors.values())).group_size

    def norm(self, name: str) -> np.ndarray:
        return self._norm64[name]

    def weights(self, name: str, p: int) -> np.ndarray:
        """Read-only float64 weights of a tensor at precision ``p``, computed
        once per (tensor, precision); 16 reads the original real weights."""
        w = self._weights64.get((name, p))
        if w is not None:
            return w
        if p == FULL_PRECISION:
            if self.full_weights is None:
                raise ConfigError(
                    "full-precision weights unavailable: model was loaded without "
                    "an init seed and cannot serve precision 16")
            w = self.full_weights[name].astype(np.float64)
        elif p in self.precisions:
            w = dequantize(self.tensors[name], p)
        else:
            raise ContractViolation(
                f"precision {p} not in declared set {list(self.precisions)}")
        return self._weights64.setdefault((name, p), _readonly(w))

    def resolved(self, p: int) -> tuple:
        """The arrays a forward pass at ``p`` reads, gathered once from :meth:`weights`
        and :meth:`norm`: ``(embed, layers, final_norm, head)``, a layer being
        ``(norm_attn, wq, wk, wv, wo, norm_mlp, w_up, w_down)``."""
        if p not in self._resolved:
            embed, *mats, head = [self.weights(name, p) for name, _ in _weight_shapes(self.config)]
            layers = tuple((self.norm(f"layers.{i}.norm_attn"), *mats[6 * i : 6 * i + 4],
                            self.norm(f"layers.{i}.norm_mlp"), *mats[6 * i + 4 : 6 * i + 6])
                           for i in range(self.config.n_layers))
            self._resolved[p] = (embed, layers, self.norm("final_norm"), head)
        return self._resolved[p]

    def save(self, path) -> None:
        meta = {
            "config": self.config.to_json(),
            "precisions": list(self.precisions.precisions),
            "norms": {k: [float(x) for x in v] for k, v in self.norms.items()},
        }
        if self.init_info is not None:
            meta["init"] = self.init_info
        Path(path).write_bytes(serialize_model(self.tensors, meta))

    @classmethod
    def load(cls, path) -> "ModelVariants":
        tensors, meta = parse_model(read_bytes(path))
        with parsing("weight file metadata"):
            try:
                config = ModelConfig(**meta["config"])
                precisions = PrecisionSet(tuple(meta["precisions"]))
                norms = {k: np.asarray(v, dtype=np.float32) for k, v in meta["norms"].items()}
                init, full = meta.get("init"), None
                if init is not None and init.get("scheme") == INIT_SCHEME:
                    full, _ = random_weights(config, operator.index(init["seed"]))
                return cls(config, precisions, tensors, norms, full_weights=full, init_info=init)
            except ConfigError as exc:  # a domain error in a file is a format error
                raise FormatError(f"malformed weight file metadata: {exc}") from exc

    def allowed_precisions(self) -> frozenset[int]:
        """The declared set, plus 16 when the real weights are available."""
        return self._allowed


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class KVCache:
    """Per-layer key/value rows of every processed token, full precision."""

    def __init__(self, n_layers: int, width: int, capacity: int):
        self.k = np.zeros((n_layers, capacity, width))
        self.v = np.zeros((n_layers, capacity, width))
        self.T = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[1]

    def layer_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of shape [T, width] for one layer; -1 addresses the last block."""
        if not -len(self.k) <= layer < len(self.k):
            raise ConfigError(f"layer {layer} outside the cache's {len(self.k)} layers")
        return self.k[layer, : self.T], self.v[layer, : self.T]

    def fork(self) -> "KVCache":
        """Independent cache with the same live rows. Only rows ``[:T]`` are
        copied into a fresh zero allocation: copying the whole capacity
        would touch memory no decode step of the fork reads."""
        n_layers, capacity, width = self.k.shape
        twin = KVCache(n_layers, width, capacity)
        twin.k[:, : self.T] = self.k[:, : self.T]
        twin.v[:, : self.T] = self.v[:, : self.T]
        twin.T = self.T
        return twin


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def _rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    # np.mean is this reduce followed by this divide, minus its wrapper's cost
    rms = np.sqrt(np.add.reduce(x * x, -1, keepdims=True) / x.shape[-1] + eps)
    return x / rms * gain


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis, keepdims=True)


def _rope_tables(cfg: ModelConfig):
    inv_freq = cfg.rope_theta ** (-np.arange(0, cfg.d_head, 2) / cfg.d_head)
    angles = np.arange(cfg.max_context, dtype=np.float64)[:, None, None] * inv_freq
    return np.cos(angles), np.sin(angles)


def _apply_rope(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # x: [n, heads, d_head]; c/s: [n, 1, d_head/2]
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x2 * c + x1 * s], axis=-1)


def _forward(model: ModelVariants, p: int, tokens: Sequence[int],
             cache: KVCache) -> np.ndarray:
    """Run ``tokens`` through the model at weight precision ``p``, extending
    the cache; returns logits for each new position."""
    if p not in model.allowed_precisions():
        raise ContractViolation(
            f"precision {p} not in the model's set {sorted(model.allowed_precisions())}")
    cfg = model.config
    n, T0 = len(tokens), cache.T
    if T0 + n > cfg.max_context:
        raise InputError(f"sequence length {T0 + n} exceeds max_context {cfg.max_context}")
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise InputError(f"token id outside vocabulary of size {cfg.vocab_size}")

    embed, layers, final_norm, head = model.resolved(p)
    x = embed[ids]
    cos, sin = (table[T0 : T0 + n] for table in model.rope)
    scale = 1.0 / math.sqrt(cfg.d_head)

    for i, (norm_attn, wq, wk, wv, wo, norm_mlp, w_up, w_down) in enumerate(layers):
        h = _rmsnorm(x, norm_attn)
        q = (h @ wq).reshape(n, cfg.n_heads, cfg.d_head)
        k = (h @ wk).reshape(n, cfg.n_heads, cfg.d_head)
        v = h @ wv
        q = _apply_rope(q, cos, sin)
        k = _apply_rope(k, cos, sin)
        cache.k[i, T0 : T0 + n] = k.reshape(n, cfg.d_model)
        cache.v[i, T0 : T0 + n] = v

        k_all = cache.k[i, : T0 + n].reshape(T0 + n, cfg.n_heads, cfg.d_head)
        v_all = cache.v[i, : T0 + n].reshape(T0 + n, cfg.n_heads, cfg.d_head)
        scores = np.einsum("nhd,thd->hnt", q, k_all) * scale
        if n > 1:
            seen = np.arange(T0 + n)[None, :] <= (T0 + np.arange(n))[:, None]
            scores = np.where(seen[None, :, :], scores, -np.inf)
        attn = _softmax(scores, axis=-1)
        ctx = np.einsum("hnt,thd->nhd", attn, v_all).reshape(n, cfg.d_model)
        x = x + ctx @ wo

        h2 = _rmsnorm(x, norm_mlp)
        u = h2 @ w_up
        gate, up = u[:, : cfg.d_ff], u[:, cfg.d_ff :]
        x = x + (_silu(gate) * up) @ w_down

    cache.T = T0 + n
    x = _rmsnorm(x, final_norm)
    return x @ head


def prefill(model: ModelVariants, p: int,
            prompt: Sequence[int]) -> tuple[np.ndarray, KVCache]:
    """Causal pass over the whole prompt; last-position logits plus the cache."""
    if not prompt:
        raise InputError("prompt is empty")
    if len(prompt) >= model.config.max_context:
        raise InputError(
            f"prompt length {len(prompt)} must be < max_context {model.config.max_context}")
    cache = KVCache(model.config.n_layers, model.config.d_model, model.config.max_context)
    logits = _forward(model, p, prompt, cache)
    return logits[-1], cache


def decode_step(model: ModelVariants, p: int, token: int,
                cache: KVCache) -> tuple[np.ndarray, KVCache]:
    """One autoregressive step on top of the cache; appends one row per layer."""
    if cache.T < 1:
        raise InputError("decode_step requires a prefilled cache")
    if cache.T >= model.config.max_context:
        raise InputError(f"context window full at {cache.T} tokens")
    logits = _forward(model, p, [token], cache)
    return logits[-1], cache


def forward_full(model: ModelVariants, p: int, tokens: Sequence[int]) -> np.ndarray:
    """From-scratch causal pass returning logits at every position (the
    consistency oracle for incremental decoding)."""
    cache = KVCache(model.config.n_layers, model.config.d_model, model.config.max_context)
    return _forward(model, p, tokens, cache)


# ---------------------------------------------------------------------------
# sampling & generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "greedy"  # "greedy" | "temperature"
    temperature: float = 1.0
    seed: int = 0


def sample(logits: np.ndarray, cfg: SamplerConfig,
           rng: np.random.Generator | None = None) -> int:
    """Greedy argmax (lowest index on ties) or seeded temperature sampling."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InputError("logits contain non-finite values")
    if cfg.mode == "greedy":
        return int(np.argmax(logits))
    if cfg.mode == "temperature":
        if cfg.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {cfg.temperature}")
        probs = _softmax(logits / cfg.temperature)
        rng = rng if rng is not None else named_rng(cfg.seed, "sampler")
        return int(rng.choice(len(probs), p=probs))
    raise ConfigError(f"unknown sampler mode {cfg.mode!r}")


def logits_hash(logits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits, dtype="<f8").tobytes()).hexdigest()[:16]


# element type of each list field of a trace's JSON form, in field order
_TRACE_LISTS = {"prompt_tokens": int, "output_tokens": int, "precisions": int,
                "logits_hashes": str}


@dataclass
class GenerationTrace:
    """Everything needed to reproduce and audit one generation."""

    prompt_tokens: list[int]
    output_tokens: list[int]
    precisions: list[int]
    logits_hashes: list[str]
    termination: str  # "eos" | "length"
    p_prefill: int
    schedule: PrecisionSchedule | None = None

    def to_json(self) -> dict:
        obj = {"prompt_tokens": self.prompt_tokens, "output_tokens": self.output_tokens,
               "precisions": self.precisions, "logits_hashes": self.logits_hashes,
               "termination": self.termination, "p_prefill": self.p_prefill}
        if self.schedule is not None:
            obj["schedule"] = self.schedule.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GenerationTrace":
        with parsing("trace JSON"):
            lists = [obj[key] for key in _TRACE_LISTS]
            termination, p_prefill = obj["termination"], obj["p_prefill"]
            sched = obj.get("schedule")
        if not (all(isinstance(v, list) and all(type(x) is kind for x in v)
                    for v, kind in zip(lists, _TRACE_LISTS.values()))
                and termination in ("eos", "length") and type(p_prefill) is int):
            raise FormatError("malformed trace JSON: tokens, precisions and p_prefill must "
                              "be integers, logits_hashes strings, and termination 'eos' "
                              "or 'length'")
        _, out, precisions, hashes = lists
        if not out or not len(out) == len(precisions) == len(hashes):
            raise FormatError(f"malformed trace JSON: {len(out)} output tokens, "
                              f"{len(precisions)} precisions and {len(hashes)} logits "
                              "hashes; a trace has one of each per token, at least one token")
        return cls(*lists, termination, p_prefill,
                   PrecisionSchedule.from_json(sched) if sched else None)


class _Walk:
    """Depth-first decoding of several schedules below one prefill, for
    :func:`decode_schedules`. An object rather than a recursive closure: the
    closure would be a reference cycle that keeps the model alive until a
    full collection."""

    def __init__(self, model, schedules, sampler_cfg, eos, max_new):
        self.model = model
        self.schedules = schedules
        self.sampler_cfg = sampler_cfg
        self.rng = named_rng(sampler_cfg.seed, "sampler")
        self.eos = eos
        self.max_new = max_new
        self.ends: list = [None] * len(schedules)

    def advance(self, p, cache, tokens, hashes):
        """One decode step at ``p``; appends the sampled token and its logits'
        hash to ``tokens`` and ``hashes``."""
        logits, cache = decode_step(self.model, p, tokens[-1], cache)
        tokens.append(sample(logits, self.sampler_cfg, self.rng))
        hashes.append(logits_hash(logits))
        return cache, tokens, hashes

    def walk(self, members, cache, tokens, hashes):
        """Decode the schedules ``members``, which share ``tokens``, to their
        ends; ``cache`` holds the prompt and ``tokens[:-1]``."""
        while tokens[-1] != self.eos and len(tokens) < self.max_new:
            split: dict[int, list[int]] = {}
            for i in members:
                split.setdefault(self.schedules[i].precision_at(len(tokens) - 1),
                                 []).append(i)
            p, *lower = sorted(split, reverse=True)
            # each recursion lowers the precision, so depth <= |precisions|
            for q in lower:
                self.walk(split[q], *self.advance(q, cache.fork(), tokens[:], hashes[:]))
            members = split[p]
            cache, tokens, hashes = self.advance(p, cache, tokens, hashes)
        for i in members:
            self.ends[i] = (tokens, hashes)


def decode_schedules(model: ModelVariants, prompt: Sequence[int], schedulers: Sequence,
                     sampler_cfg: SamplerConfig | None = None, eos_id: int | None = None,
                     max_new: int = 64) -> tuple[list[GenerationTrace], dict[int, KVCache]]:
    """The one generation entry point: every scheduler on one prompt.

    The schedulers are grouped by ``p_prefill`` in first-seen order and each
    group is prefilled once. Each member resolves its schedule from its
    group's prefilled cache before the first decode step, so a learned
    scheduler sees exactly the prompt's rows; static and fixed schedulers
    return theirs as-is.

    Token 0 is sampled from the prefill logits, and decode step ``i``
    consumes token ``i`` at ``precision_at(i)``, the precision token ``i`` is
    attributed; EOS (``vocab_size - 1`` by default) or ``max_new`` tokens
    end a schedule. A group's schedules are walked depth first as a trie
    over that precision: a shared prefix is decoded once and the cache is
    forked where they split. Each branch makes the same single-row
    ``decode_step`` and ``sample`` calls as a walk over its schedule alone,
    so its trace is bit-identical to that walk's. The sampler's RNG is not
    forked, so only a greedy sampler may walk more than one schedule.

    Returns the traces in ``schedulers`` order, and the cache of each
    prefill precision, whose rows ``[:len(prompt)]`` hold the prefill's K/V
    (the branch keeping the highest precision extends it in place).
    """
    cfg = sampler_cfg if sampler_cfg is not None else SamplerConfig()
    eos = model.config.vocab_size - 1 if eos_id is None else eos_id
    if max_new < 1:
        raise InputError(f"max_new must be >= 1, got {max_new}")
    if cfg.mode != "greedy" and len(schedulers) > 1:
        raise ConfigError(f"a {cfg.mode} sampler decodes one schedule at a time, "
                          f"got {len(schedulers)}: its RNG is not forked")
    groups: dict[int, list[int]] = {}
    for i, scheduler in enumerate(schedulers):
        groups.setdefault(scheduler.p_prefill, []).append(i)
    allowed = model.allowed_precisions()
    traces: list = [None] * len(schedulers)
    roots = {}
    for pf, members in groups.items():
        logits, roots[pf] = prefill(model, pf, prompt)
        schedules = [schedulers[i].resolve(roots[pf]) for i in members]
        for sched in schedules:
            if max_new > sched.horizon:
                raise InputError(
                    f"max_new {max_new} exceeds the schedule horizon {sched.horizon}")
            for p in sched.precisions:
                if p not in allowed:
                    raise ContractViolation(f"schedule uses precision {p} outside the "
                                            f"model's set {sorted(allowed)}")
        walker = _Walk(model, schedules, cfg, eos, max_new)
        walker.walk(range(len(schedules)), roots[pf], [sample(logits, cfg, walker.rng)],
                    [logits_hash(logits)])
        for i, s, (tokens, hashes) in zip(members, schedules, walker.ends):
            traces[i] = GenerationTrace(list(prompt), list(tokens),
                                        [s.precision_at(j) for j in range(len(tokens))],
                                        list(hashes), "eos" if tokens[-1] == eos else "length",
                                        pf, s)
    return traces, roots


def generate(model: ModelVariants, prompt: Sequence[int], scheduler,
             sampler_cfg: SamplerConfig | None = None,
             eos_id: int | None = None, max_new: int = 64) -> GenerationTrace:
    """Prefill once, then decode under the scheduler's precision switching:
    :func:`decode_schedules` over that one scheduler."""
    (trace,), _ = decode_schedules(model, prompt, [scheduler], sampler_cfg, eos_id, max_new)
    return trace
