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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, FormatError, InputError
from .quant import (FULL_PRECISION, PrecisionSet, QuantizedTensor, dequantize, parse_model,
                    quantize_tensor, serialize_model)
from .schedule import PrecisionSchedule
from .util import json_int, named_rng, parsing, read_bytes, read_json

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
            object.__setattr__(self, name, json_int(getattr(self, name)))
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
                    full, _ = random_weights(config, json_int(init["seed"]))
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
    """Per-layer key/value rows of every processed token of a block of ``rows``
    sequences (one by default), full precision: row ``r`` holds
    ``lengths[r]`` tokens in ``k``/``v[:, r]``. Positions at or past a row's
    length are never read, so lowering ``lengths[r]`` rolls the row back."""

    def __init__(self, n_layers: int, width: int, capacity: int, rows: int = 1):
        self.k = np.zeros((n_layers, rows, capacity, width))
        self.v = np.zeros((n_layers, rows, capacity, width))
        self.lengths = [0] * rows

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    @property
    def T(self) -> int:
        """Tokens held by a one-row cache."""
        (t,) = self.lengths
        return t

    def layer_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of shape [T, width] for one layer of a one-row cache; -1
        addresses the last block."""
        if not -len(self.k) <= layer < len(self.k):
            raise ConfigError(f"layer {layer} outside the cache's {len(self.k)} layers")
        return self.k[layer, 0, : self.T], self.v[layer, 0, : self.T]

    def put(self, row: int, src: "KVCache") -> None:
        """Copy the live tokens of the one-row cache ``src`` into row ``row``."""
        t = src.T
        self.k[:, row, :t] = src.k[:, 0, :t]
        self.v[:, row, :t] = src.v[:, 0, :t]
        self.lengths[row] = t


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
    """cos and sign-folded sin per position, ``[max_context, 1, d_head]`` each:
    ``(c, c)`` and ``(-s, s)`` over the two halves of a head."""
    inv_freq = cfg.rope_theta ** (-np.arange(0, cfg.d_head, 2) / cfg.d_head)
    angles = np.arange(cfg.max_context, dtype=np.float64)[:, None, None] * inv_freq
    c, s = np.cos(angles), np.sin(angles)
    return np.concatenate([c, c], axis=-1), np.concatenate([-s, s], axis=-1)


def _apply_rope(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # x: [..., b, n, heads, d_head]; c/s: [b, n, 1, d_head], or [n, 1, d_head] for
    # one row. Rotating the halves (x1, x2) is (x1*c - x2*s, x2*c + x1*s); with s
    # sign-folded that is x*c + (x2, x1)*s, bit for bit: x1*c + x2*(-s) == x1*c - x2*s
    half = x.shape[-1] // 2
    return x * c + np.concatenate([x[..., half:], x[..., :half]], axis=-1) * s


# queries per attention block of an n > 1 forward (8 and 32 were slower: sweep
# in CHANGES.md); _CAUSAL masks the strict upper triangle of a block's keys
BLOCK = 16
_CAUSAL = np.triu(np.ones((BLOCK, BLOCK), dtype=bool), 1)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """Causal attention of ``m`` queries ``[b, m, H, dh]`` at the last ``m`` of the
    key positions ``k``/``v`` ``[b, T, H, dh]``: query ``i`` sees keys ``0..T-m+i``.

    The scores and weights stay in einsum's own output layout, whose key
    axis is strided, so the softmax and the context einsum reduce over the
    keys in sequence. That makes masked trailing keys add exactly nothing:
    ``exp(-inf)`` is 0 and leaves the max alone. Copied into a C-ordered
    buffer, the key axis would be summed pairwise and the logits would move.
    """
    m = q.shape[1]
    scores = np.einsum("bnhd,bthd->bhnt", q, k)
    scores *= scale
    if m > 1:
        np.copyto(scores[..., -m:], -np.inf, where=_CAUSAL[:m, :m])
    return np.einsum("bhnt,bthd->bnhd", _softmax(scores), v)


def _forward(model: ModelVariants, p: int, tokens, cache: KVCache,
             rows: Sequence[int]) -> np.ndarray:
    """Run ``tokens[j]`` (``[b, n]`` ids) through row ``rows[j]`` of the cache at
    weight precision ``p``, extending those rows, which must increase; returns
    the logits ``[b, n, vocab]`` of each new position.

    Each row gets exactly the arithmetic a one-row call would do, so a batch
    of rows is bit-identical to running them one by one. The projections are
    stacked ``[b, n, d] @ W`` products, which numpy evaluates one row's
    ``[n, d] @ W`` at a time (a gemv per row when ``n`` is 1, never one
    ``[b, d]`` gemm, whose sums differ in the last bits). Attention is one
    :func:`_attend` per run of adjacent rows holding equal lengths, never a
    padded one: ``-inf`` padding is exact in einsum's layout too, but was no
    faster. RMSNorm, RoPE, softmax and SiLU work row by row. A row's new
    positions are written before it attends over its keys ``[0, T0 + n)``
    only, so nothing at or past a row's length reaches the result.

    With ``n > 1`` (a prefill or a chunk) the new positions attend in blocks
    of :data:`BLOCK` queries, block ``[a, e)`` over the keys ``[0, T0 + e)``
    only, so the key blocks wholly above the causal diagonal are never
    scored. That is bit-identical to scoring every key and masking the upper
    triangle, because masked keys trail each row (see :func:`_attend`).
    """
    if p not in model.allowed_precisions():
        raise ContractViolation(
            f"precision {p} not in the model's set {sorted(model.allowed_precisions())}")
    cfg = model.config
    ids = np.asarray(tokens, dtype=np.int64)
    b, n = ids.shape
    if b != len(rows):
        raise InputError(f"{b} token rows for {len(rows)} cache rows")
    starts = [cache.lengths[r] for r in rows]
    limit = min(cache.capacity, cfg.max_context)
    if max(starts) + n > limit:
        raise InputError(f"sequence length {max(starts) + n} exceeds the cache's {limit} "
                         f"positions (max_context {cfg.max_context})")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise InputError(f"token id outside vocabulary of size {cfg.vocab_size}")
    # runs of adjacent rows at equal length: (first, end) batch indices
    runs, j0 = [], 0
    for j in range(1, b + 1):
        if j == b or starts[j] != starts[j0] or rows[j] != rows[j - 1] + 1:
            runs.append((j0, j))
            j0 = j

    embed, layers, final_norm, head = model.resolved(p)
    H, dh, d = cfg.n_heads, cfg.d_head, cfg.d_model
    # one row keeps 2-D [n, d] activations: a stacked product costs more per call
    lead = (n,) if b == 1 else (b, n)
    x = embed[ids.reshape(lead)]
    if b == 1:
        cos, sin = (table[starts[0] : starts[0] + n] for table in model.rope)
    else:
        pos = np.add.outer(starts, np.arange(n))
        cos, sin = (table[pos] for table in model.rope)
    scale = 1.0 / math.sqrt(dh)

    kc, vc = (a.reshape(*a.shape[:3], H, dh) for a in (cache.k, cache.v))
    for i, (norm_attn, wq, wk, wv, wo, norm_mlp, w_up, w_down) in enumerate(layers):
        h = _rmsnorm(x, norm_attn)
        qk = np.empty((2, *lead, d))
        np.matmul(h, wq, out=qk[0])
        np.matmul(h, wk, out=qk[1])
        q, k = _apply_rope(qk.reshape(2, b, n, H, dh), cos, sin)
        v = (h @ wv).reshape(b, n, H, dh)
        ctx = []
        for j0, j1 in runs:
            r0, T0 = rows[j0], starts[j0]
            ck, cv = kc[i, r0 : r0 + j1 - j0], vc[i, r0 : r0 + j1 - j0]
            ck[:, T0 : T0 + n] = k[j0:j1]
            cv[:, T0 : T0 + n] = v[j0:j1]
            if n == 1:
                ctx.append(_attend(q[j0:j1], ck[:, : T0 + 1], cv[:, : T0 + 1], scale))
                continue
            out = np.empty((j1 - j0, n, H, dh))
            for a in range(0, n, BLOCK):
                e = min(a + BLOCK, n)
                out[:, a:e] = _attend(q[j0:j1, a:e], ck[:, : T0 + e], cv[:, : T0 + e], scale)
            ctx.append(out)
        ctx = ctx[0] if len(ctx) == 1 else np.concatenate(ctx)
        x = x + ctx.reshape(*lead, d) @ wo

        h2 = _rmsnorm(x, norm_mlp)
        u = h2 @ w_up
        gate, up = u[..., : cfg.d_ff], u[..., cfg.d_ff :]
        x = x + (_silu(gate) * up) @ w_down

    for r, t in zip(rows, starts):
        cache.lengths[r] = t + n
    x = _rmsnorm(x, final_norm)
    return (x @ head).reshape(b, n, -1)


def prefill(model: ModelVariants, p: int, prompt: Sequence[int],
            capacity: int | None = None) -> tuple[np.ndarray, KVCache]:
    """Causal pass over the whole prompt; last-position logits plus a one-row
    cache of ``capacity`` positions (``max_context`` by default)."""
    if not prompt:
        raise InputError("prompt is empty")
    if len(prompt) >= model.config.max_context:
        raise InputError(
            f"prompt length {len(prompt)} must be < max_context {model.config.max_context}")
    cache = KVCache(model.config.n_layers, model.config.d_model,
                    model.config.max_context if capacity is None else capacity)
    logits = _forward(model, p, [prompt], cache, (0,))
    return logits[0, -1], cache


def decode_step(model: ModelVariants, p: int, tokens, cache: KVCache,
                rows: Sequence[int] | None = None) -> tuple[np.ndarray, KVCache]:
    """One autoregressive step of the cache rows ``rows`` (every row by
    default, increasing), row ``rows[j]`` consuming ``tokens[j]``; appends one
    position per layer to each and returns their logits ``[len(rows), vocab]``.
    A single int token steps a one-row cache and gets that row's logits."""
    one = isinstance(tokens, (int, np.integer))
    if rows is None:
        rows = range(len(cache.lengths))
    held = [cache.lengths[r] for r in rows]
    if not held or min(held) < 1:
        raise InputError("decode_step requires a prefilled cache")
    if max(held) >= min(cache.capacity, model.config.max_context):
        raise InputError(f"context window full at {max(held)} tokens")
    logits = _forward(model, p, [[tokens]] if one else [[t] for t in tokens], cache, rows)[:, 0]
    return (logits[0] if one else logits), cache


def forward_full(model: ModelVariants, p: int, tokens: Sequence[int]) -> np.ndarray:
    """From-scratch causal pass returning logits at every position (the
    consistency oracle for incremental decoding)."""
    cache = KVCache(model.config.n_layers, model.config.d_model, len(tokens))
    return _forward(model, p, [tokens], cache, (0,))[0]


# ---------------------------------------------------------------------------
# sampling & generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    temperature: float | None = None  # None: greedy
    seed: int = 0


def sample(logits: np.ndarray, cfg: SamplerConfig,
           rng: np.random.Generator | None = None) -> int:
    """Greedy argmax (lowest index on ties) or seeded temperature sampling."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InputError("logits contain non-finite values")
    if cfg.temperature is None:
        return int(np.argmax(logits))
    if not cfg.temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {cfg.temperature}")
    probs = _softmax(logits / cfg.temperature)
    rng = rng if rng is not None else named_rng(cfg.seed, "sampler")
    return int(rng.choice(len(probs), p=probs))


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


# most prompts decoded in lockstep by one decode_schedules wave: each of its
# prefill groups walks one block of up to WAVE rows, a walk's only live KV.
# Wider waves share each decode_step among more rows (sweep in CHANGES.md).
WAVE = 12


class _Walk:
    """Depth-first lockstep decoding of one wave at one prefill precision, for
    :func:`decode_schedules`: a block with one row per prompt, each row under
    its own schedules, the walk's only KV. An object rather than a recursive
    closure: the closure would be a reference cycle that keeps the model
    alive until a full collection."""

    def __init__(self, model, sampler_cfg, eos, max_new):
        self.model = model
        self.sampler_cfg = sampler_cfg
        self.eos = eos
        self.max_new = max_new
        # per row: its schedules, its sampler stream and each schedule's end
        self.schedules: list[list[PrecisionSchedule]] = []
        self.rngs: list[np.random.Generator] = []
        self.ends: list[list] = []

    def decode(self, prompts, pf, schedulers, feature_block):
        """Prefill ``prompts`` (one wave, shortest first) at ``pf`` into the rows
        of one block, resolve every scheduler on each prompt's own prefill and
        walk the block; returns per prompt its traces in ``schedulers`` order
        and copies of its prefill's (K, V) rows of layer ``feature_block``."""
        mc, allowed = self.model.config, self.model.allowed_precisions()

        def positions(prompt):
            return min(len(prompt) + self.max_new, mc.max_context)

        # one prompt walks its prefill's own cache: no block to fill
        block = None if len(prompts) == 1 else KVCache(
            mc.n_layers, mc.d_model, positions(prompts[-1]), len(prompts))
        tokens, hashes, features = {}, {}, []
        for r, prompt in enumerate(prompts):
            logits, cache = prefill(self.model, pf, prompt, positions(prompt))
            schedules = [scheduler.resolve(cache) for scheduler in schedulers]
            for sched in schedules:
                if self.max_new > sched.horizon:
                    raise InputError(f"max_new {self.max_new} exceeds the schedule horizon "
                                     f"{sched.horizon}")
                for p in sched.precisions:
                    if p not in allowed:
                        raise ContractViolation(f"schedule uses precision {p} outside the "
                                                f"model's set {sorted(allowed)}")
            features.append(None if feature_block is None else
                            tuple(a.copy() for a in cache.layer_kv(feature_block)))
            if block is None:
                block = cache
            else:
                block.put(r, cache)
            del cache  # the block holds its rows now; no prefill outlives its copy
            rng = named_rng(self.sampler_cfg.seed, "sampler")
            self.schedules.append(schedules)
            self.rngs.append(rng)
            self.ends.append([None] * len(schedules))
            tokens[r] = [sample(logits, self.sampler_cfg, rng)]
            hashes[r] = [logits_hash(logits)]
        self.walk(block, {r: list(range(len(schedulers))) for r in tokens}, tokens, hashes)
        return [([GenerationTrace(list(prompt), list(toks),
                                  [s.precision_at(k) for k in range(len(toks))], list(hs),
                                  "eos" if toks[-1] == self.eos else "length", pf, s)
                  for s, (toks, hs) in zip(scheds, ends)], feats)
                for prompt, scheds, ends, feats in zip(prompts, self.schedules, self.ends,
                                                       features)]

    def advance(self, p, cache, rows, tokens, hashes) -> None:
        """One decode step at ``p`` of the block rows ``rows``; appends each
        row's sampled token and its logits' hash to ``tokens[r]``/``hashes[r]``."""
        logits, _ = decode_step(self.model, p, [tokens[r][-1] for r in rows], cache, rows)
        for r, row_logits in zip(rows, logits):
            tokens[r].append(sample(row_logits, self.sampler_cfg, self.rngs[r]))
            hashes[r].append(logits_hash(row_logits))

    def walk(self, cache, members, tokens, hashes) -> None:
        """Decode each row ``r``'s schedules ``members[r]``, which share
        ``tokens[r]``, to their ends; row ``r`` of ``cache`` holds its prompt
        and ``tokens[r][:-1]``. ``members`` lists rows in increasing order."""
        while True:
            # precision -> row -> the row's schedules decoding at it
            split: dict[int, dict[int, list[int]]] = {}
            for r, ms in members.items():
                toks = tokens[r]
                if toks[-1] == self.eos or len(toks) >= self.max_new:
                    for i in ms:
                        self.ends[r][i] = (toks, hashes[r])
                    continue
                for i in ms:
                    split.setdefault(self.schedules[r][i].precision_at(len(toks) - 1),
                                     {}).setdefault(r, []).append(i)
            if not split:
                return
            p, *lower = sorted(split, reverse=True)
            # each branch decodes in place, then rolls its rows back; each
            # recursion lowers the precision, so depth <= |precisions|
            for q in lower:
                branch = split[q]
                held = {r: cache.lengths[r] for r in branch}
                t = {r: tokens[r][:] for r in branch}
                h = {r: hashes[r][:] for r in branch}
                self.advance(q, cache, list(branch), t, h)
                self.walk(cache, branch, t, h)
                for r, n in held.items():
                    cache.lengths[r] = n
            members = split[p]
            self.advance(p, cache, list(members), tokens, hashes)


def decode_schedules(model: ModelVariants, prompts: Sequence[Sequence[int]],
                     schedulers: Sequence, sampler_cfg: SamplerConfig | None = None,
                     eos_id: int | None = None, max_new: int = 64,
                     feature_block: int | None = None):
    """The one generation entry point: every scheduler on every prompt.

    The prompts are sorted by length (stably) and decoded in as few waves of
    at most :data:`WAVE` as fit, of near-equal size. Within a wave the
    schedulers are grouped by ``p_prefill`` in first-seen order; each group
    prefills every prompt of the wave once and each member resolves its
    schedule from that prompt's prefilled cache before the first decode
    step, so a learned scheduler sees exactly the prompt's rows; static and
    fixed schedulers return theirs as-is. The prefilled rows are copied into
    one block of ``len(prompt) + max_new`` positions per row (the wave's
    longest prompt, capped at ``max_context``), and the block is walked in
    lockstep; a wave of one prompt walks its prefill's own cache, sized the
    same way.

    Token 0 is sampled from the prefill logits, and decode step ``i``
    consumes token ``i`` at ``precision_at(i)``, the precision token ``i`` is
    attributed; EOS (``vocab_size - 1`` by default) or ``max_new`` tokens
    end a schedule. The group's schedules are walked depth first as a trie
    over their precision, every row at once: a shared prefix is decoded once
    per row, each branch where schedules split decodes in the block itself
    and rolls its rows back (see :class:`KVCache`), and every row at the
    same node and precision advances through one ``decode_step`` call. That
    call is exact row by row (see ``_forward``), so each trace is
    bit-identical to a walk of its prompt and schedule alone.
    Each row samples from its own sampler stream, but the stream is not
    forked, so only a greedy sampler may walk more than one schedule.

    Returns the traces, ``traces[prompt][scheduler]``, and per prompt a dict
    mapping each prefill precision to copies of the prefill's (K, V) rows of
    layer ``feature_block``, empty when ``feature_block`` is None.
    """
    cfg = sampler_cfg if sampler_cfg is not None else SamplerConfig()
    eos = model.config.vocab_size - 1 if eos_id is None else eos_id
    if max_new < 1:
        raise InputError(f"max_new must be >= 1, got {max_new}")
    if cfg.temperature is not None and len(schedulers) > 1:
        raise ConfigError("a temperature sampler decodes one schedule at a time, "
                          f"got {len(schedulers)}: its RNG is not forked")
    groups: dict[int, list[int]] = {}
    for i, scheduler in enumerate(schedulers):
        groups.setdefault(scheduler.p_prefill, []).append(i)
    traces: list[list] = [[None] * len(schedulers) for _ in prompts]
    features: list[dict] = [{} for _ in prompts]
    order = sorted(range(len(prompts)), key=lambda j: len(prompts[j]))
    waves = -(-len(order) // WAVE)  # as few as fit, of near-equal size
    for w in range(waves):
        wave = order[len(order) * w // waves : len(order) * (w + 1) // waves]
        for pf, members in groups.items():
            walker = _Walk(model, cfg, eos, max_new)
            rows = walker.decode([prompts[j] for j in wave], pf,
                                 [schedulers[i] for i in members], feature_block)
            for j, (row, feats) in zip(wave, rows):
                for i, trace in zip(members, row):
                    traces[j][i] = trace
                if feature_block is not None:
                    features[j][pf] = feats
    return traces, features


def generate(model: ModelVariants, prompt: Sequence[int], scheduler,
             sampler_cfg: SamplerConfig | None = None,
             eos_id: int | None = None, max_new: int = 64) -> GenerationTrace:
    """Prefill once, then decode under the scheduler's precision switching:
    :func:`decode_schedules` over that one prompt and scheduler."""
    ((trace,),), _ = decode_schedules(model, [prompt], [scheduler], sampler_cfg, eos_id,
                                      max_new)
    return trace
