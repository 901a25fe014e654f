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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, FormatError, InputError
from .quant import (FULL_PRECISION, PrecisionSet, QuantizedTensor, dequantize, parse_model,
                    quantize_tensor, serialize_model)
from .schedule import PrecisionSchedule
from .util import json_float, json_floats, json_int, named_rng, parsing, read_bytes, read_json

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

    def __init__(self, tokens: list[str], eos_id: int | None = None):
        if not (isinstance(tokens, list) and tokens and all(type(t) is str for t in tokens)):
            raise ConfigError("tokens must be a non-empty list of strings")
        if eos_id is not None and (type(eos_id) is not int or eos_id < 0):
            raise ConfigError(f"eos must be absent or a non-negative integer, got {eos_id!r}")
        self.tokens = list(tokens)
        self.eos_id = len(tokens) if eos_id is None else eos_id
        self.vocab_size = max(len(tokens), self.eos_id + 1)
        self._by_length = sorted(range(len(tokens)), key=lambda i: -len(tokens[i]))

    @classmethod
    def from_json(cls, path) -> "VocabTokenizer":
        obj = read_json(path)
        with parsing(f"vocabulary file {path}"):
            return cls(obj["tokens"], obj.get("eos"))

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
        object.__setattr__(self, "rope_theta", json_float(self.rope_theta))
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
        return asdict(self)


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

# a layer's q, k and v projections, stored as one [d, 3d] array "wqkv" per
# precision; and the arrays of one layer of ModelVariants.resolved, in order
_QKV = ("wq", "wk", "wv")
_LAYER = ("norm_attn", "wqkv", "wo", "norm_mlp", "w_up", "w_down")


class ModelVariants:
    """One quantized weight store readable at any precision in its set.

    Instances are immutable after construction apart from :meth:`resolved`'s
    never-evicted per-precision float64 weights. ``norms`` holds each gain,
    read-only float64 (rounded through float32). Each walk owns its private
    KV block and traces.
    """

    def __init__(self, config: ModelConfig, precisions: PrecisionSet,
                 tensors: dict[str, QuantizedTensor], norms: dict[str, np.ndarray],
                 full_weights: dict[str, np.ndarray] | None = None,
                 init_info: dict | None = None):
        self.config = config
        self.precisions = precisions
        self.tensors = tensors
        self.norms = {k: _readonly(np.asarray(v, dtype=np.float32).astype(np.float64))
                      for k, v in norms.items()}
        self.full_weights = full_weights
        self.init_info = init_info
        self._allowed = frozenset(precisions.precisions) | (
            {FULL_PRECISION} if full_weights is not None else frozenset())
        # precision -> (resolved's tuple, the same arrays by name)
        self._resolved: dict[int, tuple[tuple, dict[str, np.ndarray]]] = {}
        self.rope = _rope_tables(config)
        expected = dict(_weight_shapes(config))
        for name, shape in expected.items():
            t = tensors.get(name)
            if t is None or (t.rows, t.cols) != shape:
                raise ConfigError(f"tensor '{name}' missing or mis-shaped for this config")
        for name in _norm_names(config):
            gain = self.norms.get(name)
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

    def weights(self, name: str, p: int) -> np.ndarray:
        """Read-only float64 weights of tensor ``name``, or of a layer's fused
        ``layers.i.wqkv``, at precision ``p``: a lookup in the arrays
        :meth:`resolved` builds. ``wq``, ``wk`` and ``wv`` are views of ``wqkv``."""
        self.resolved(p)
        return self._resolved[p][1][name]

    def resolved(self, p: int) -> tuple:
        """The arrays a forward pass at ``p`` reads, ``(embed, layers, final_norm,
        head)``, a layer being ``(norm_attn, wqkv, wo, norm_mlp, w_up, w_down)``.
        The one place a precision's weights are made, on first use at ``p``:
        each tensor dequantized once (16 reads the real weights), each layer's
        q|k|v fused into one ``[d, 3d]`` ``wqkv``, and the same arrays kept by
        name for :meth:`weights`, ``wq``/``wk``/``wv`` as views of ``wqkv``."""
        if p not in self._resolved:
            if p == FULL_PRECISION and self.full_weights is None:
                raise ConfigError("full-precision weights unavailable: model was loaded "
                                  "without an init seed and cannot serve precision 16")
            if p not in self._allowed:
                raise ContractViolation(
                    f"precision {p} not in declared set {list(self.precisions)}")
            def read(name: str) -> np.ndarray:
                return (self.full_weights[name].astype(np.float64) if p == FULL_PRECISION
                        else dequantize(self.tensors[name], p))
            # q, k and v are read as they are fused, so one layer's are alive at a time
            named = {name: _readonly(read(name)) for name in self.tensors
                     if name.rpartition(".")[2] not in _QKV}
            d, layers = self.config.d_model, []
            for i in range(self.config.n_layers):
                parts = [f"layers.{i}.{t}" for t in _QKV]
                wqkv = named[f"layers.{i}.wqkv"] = _readonly(
                    np.concatenate([read(name) for name in parts], 1))
                for j, name in enumerate(parts):
                    named[name] = wqkv[:, j * d : (j + 1) * d]
                layers.append(tuple(self.norms[f"layers.{i}.{t}"] if t.startswith("norm")
                                    else named[f"layers.{i}.{t}"] for t in _LAYER))
            self._resolved[p] = ((named["embed"], tuple(layers), self.norms["final_norm"],
                                  named["head"]), named)
        return self._resolved[p][0]

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
            config = ModelConfig(**meta["config"])
            precisions = PrecisionSet(tuple(meta["precisions"]))
            norms = {k: json_floats(v) for k, v in meta["norms"].items()}
            init, full = meta.get("init"), None
            if init is not None and init.get("scheme") == INIT_SCHEME:
                full, _ = random_weights(config, json_int(init["seed"]))
            return cls(config, precisions, tensors, norms, full_weights=full, init_info=init)

    def allowed_precisions(self) -> frozenset[int]:
        """The declared set, plus 16 when the real weights are available."""
        return self._allowed


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class KVCache:
    """Per-layer K/V by head, ``[n_layers, rows, capacity, n_heads, d_head]`` as the
    kernels read it, of a block of ``rows`` sequences (one by default), full
    precision: row ``r`` holds ``lengths[r]`` tokens in ``k``/``v[:, r]``. Positions
    at or past a row's length are never read, so lowering ``lengths[r]`` rolls
    the row back; :meth:`row` is row ``r`` as a one-row cache."""

    def __init__(self, cfg: ModelConfig, capacity: int, rows: int = 1):
        shape = (cfg.n_layers, rows, capacity, cfg.n_heads, cfg.d_head)
        self.k, self.v = np.zeros(shape), np.zeros(shape)
        self.lengths = np.zeros(rows, dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    @property
    def T(self) -> int:
        """Tokens held by a one-row cache."""
        if len(self.lengths) != 1:
            raise ConfigError(f"a cache of {len(self.lengths)} rows has no single length: "
                              "T and layer_kv read a one-row cache")
        return int(self.lengths[0])

    def row(self, r: int) -> "KVCache":
        """Row ``r`` as a one-row cache sharing its K/V and length, no copy."""
        if not 0 <= r < len(self.lengths):
            raise ConfigError(f"row {r} outside the cache's {len(self.lengths)} rows")
        view = object.__new__(KVCache)
        view.k, view.v = self.k[:, r : r + 1], self.v[:, r : r + 1]
        view.lengths = self.lengths[r : r + 1]
        return view

    def layer_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(K, V) of one layer of a one-row cache as ``[T, d_model]`` views, the
        heads side by side; -1 addresses the last block."""
        if not -len(self.k) <= layer < len(self.k):
            raise ConfigError(f"layer {layer} outside the cache's {len(self.k)} layers")
        T, width = self.T, self.k.shape[3] * self.k.shape[4]
        return self.k[layer, 0, :T].reshape(T, width), self.v[layer, 0, :T].reshape(T, width)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

_EPS = 1e-6  # RMSNorm's epsilon


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean is this reduce followed by this divide, minus its wrapper's cost;
    # one row's scale is one float, the same bits: IEEE / and sqrt round
    # correctly in numpy and in math alike
    if x.ndim == 1:
        return x / math.sqrt(float(np.add.reduce(x * x)) / len(x) + _EPS) * gain
    rms = np.sqrt(np.add.reduce(x * x, -1, keepdims=True) / x.shape[-1] + _EPS)
    return x / rms * gain


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, -1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, -1, keepdims=True)


def _rope_tables(cfg: ModelConfig):
    """cos and sign-folded sin per position, ``[max_context, 1, d_head]`` each:
    ``(c, c)`` and ``(-s, s)`` over the two halves of a head."""
    inv_freq = cfg.rope_theta ** (-np.arange(0, cfg.d_head, 2) / cfg.d_head)
    angles = np.arange(cfg.max_context, dtype=np.float64)[:, None, None] * inv_freq
    c, s = np.cos(angles), np.sin(angles)
    return np.concatenate([c, c], axis=-1), np.concatenate([-s, s], axis=-1)


def _apply_rope(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # x: [..., heads, d_head]; c/s: the table rows of x's positions, shaped to
    # broadcast over its other axes. Rotating the halves (x1, x2) is
    # (x1*c - x2*s, x2*c + x1*s); with s sign-folded that is x*c + (x2, x1)*s,
    # bit for bit: x1*c + x2*(-s) == x1*c - x2*s
    half = x.shape[-1] // 2
    return x * c + np.concatenate([x[..., half:], x[..., :half]], axis=-1) * s


# queries per attention block of an n > 1 forward (16 and 64 were slower: sweep
# in CHANGES.md); _CAUSAL masks, keys first, the keys after each query of a block
BLOCK = 32
_CAUSAL = np.tril(np.ones((BLOCK, BLOCK), dtype=bool), -1)


def _key_softmax(scores: np.ndarray, axis: int) -> np.ndarray:
    """Softmax over the key axis ``axis`` (0 or -1), its keys summed in key
    order: the last entry of ``np.add.accumulate``, whatever the memory
    layout. A reduce sums a contiguous axis pairwise."""
    e = np.exp(scores - np.maximum.reduce(scores, axis, keepdims=True))
    total = np.add.accumulate(e, axis)
    return e / (total[-1:] if axis == 0 else total[..., -1:])


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Causal attention, scaled by ``1/sqrt(dh)``, of ``m`` queries ``[b, m, H, dh]``
    at the last ``m`` of the keys ``k``/``v`` ``[b, T, H, dh]``: query ``i`` sees ``0..T-m+i``.

    One query (a decode step, a prefill's last layer) is one einsum pair over
    every row and head. A block of ``m >= 2`` queries is one einsum pair per
    row and head, its scores stored keys first, ``[T, m]``: each call then
    iterates over three axes, numpy's fast einsum loop, not four. Either way
    the softmax sums the keys in order (:func:`_key_softmax`) and the context
    einsum reduces them in sequence, so masked trailing keys add exactly
    nothing: ``exp(-inf)`` is 0 and leaves the max alone.
    """
    m, scale = q.shape[1], 1.0 / math.sqrt(q.shape[-1])
    if m == 1:
        scores = np.einsum("bnhd,bthd->bhnt", q, k)
        scores *= scale
        return np.einsum("bhnt,bthd->bnhd", _key_softmax(scores, -1), v)
    ctx = np.empty(q.shape)
    for b, h in np.ndindex(q.shape[0], q.shape[2]):
        scores = np.einsum("nd,td->tn", q[b, :, h], k[b, :, h])
        scores *= scale
        np.copyto(scores[-m:], -np.inf, where=_CAUSAL[:m, :m])
        ctx[b, :, h] = np.einsum("tn,td->nd", _key_softmax(scores, 0), v[b, :, h])
    return ctx


def _check(model: ModelVariants, p: int, ids: Sequence, cache: KVCache, end: int) -> None:
    """Refuse ``p`` outside the model's set, ``end`` > capacity, or an id that is
    not an ``int`` or numpy integer (a ``bool`` is not) inside the vocabulary."""
    if p not in model.allowed_precisions():
        raise ContractViolation(
            f"precision {p} not in the model's set {sorted(model.allowed_precisions())}")
    cfg = model.config
    limit = min(cache.capacity, cfg.max_context)
    if end > limit:
        raise InputError(f"sequence length {end} exceeds the cache's {limit} "
                         f"positions (max_context {cfg.max_context})")
    for t in ids:
        if not isinstance(t, (int, np.integer)) or type(t) is bool:
            raise InputError(f"token id {t!r} is not an integer")
        if not 0 <= t < cfg.vocab_size:
            raise InputError(f"token id {t} outside vocabulary of size {cfg.vocab_size}")


def _mlp(x: np.ndarray, norm_mlp, w_up, w_down) -> np.ndarray:
    """``x`` plus the SiLU-gated MLP of its RMSNorm (gate and up fused in ``w_up``)."""
    u = _rmsnorm(x, norm_mlp) @ w_up
    return x + (_silu(u[..., : len(w_down)]) * u[..., len(w_down) :]) @ w_down


def _step(model: ModelVariants, p: int, token, cache: KVCache, r: int, T0: int) -> np.ndarray:
    """Append position ``T0``, the length of cache row ``r``, to that row for id
    ``token`` at weight precision ``p``; returns its logits ``[vocab]``.

    The one-row decode step, straight-line and bit-identical to a row of
    :func:`_decode`: the embedding and RoPE rows are basic slices, each
    layer's q|k|v is one gemv whose V goes straight into the cache row and
    whose contiguous ``[2, H, dh]`` q|k is rotated in one go, and every
    vector stays 1-D, so RMSNorm's scale is one float.
    """
    embed, layers, final_norm, head = model.resolved(p)
    H, dh, d = model.config.n_heads, model.config.d_head, model.config.d_model
    x = embed[token]
    cos, sin = (table[T0] for table in model.rope)  # [1, dh]
    for i, (norm_attn, wqkv, wo, norm_mlp, w_up, w_down) in enumerate(layers):
        qkv = (_rmsnorm(x, norm_attn) @ wqkv).reshape(3, H, dh)
        cache.v[i, r, T0] = qkv[2]
        q, cache.k[i, r, T0] = _apply_rope(qkv[:2], cos, sin)
        ctx = _attend(q[None, None], cache.k[i, r : r + 1, : T0 + 1],
                      cache.v[i, r : r + 1, : T0 + 1])
        x = _mlp(x + ctx.reshape(d) @ wo, norm_mlp, w_up, w_down)
    cache.lengths[r] = T0 + 1
    return _rmsnorm(x, final_norm) @ head


def _decode(model: ModelVariants, p: int, tokens, cache: KVCache,
            rows: Sequence[int], starts: Sequence[int]) -> np.ndarray:
    """Append position ``starts[j]``, its length, to each of two or more cache
    rows ``rows[j]`` (strictly increasing) for id ``tokens[j]`` at weight
    precision ``p``; returns their logits ``[b, vocab]``.

    Each row gets exactly the arithmetic of a one-row step (:func:`_step`),
    so a batch of rows is bit-identical to running them one by one. The
    projections, q|k|v fused, are stacked ``[b, 1, d] @ W`` products, which
    numpy evaluates as one gemv per row, never one ``[b, d]`` gemm, whose
    sums differ in the last bits. Attention is one :func:`_attend` per run of
    adjacent rows holding equal lengths, never a padded one: ``-inf``
    padding is exact in einsum's layout too, but was no faster. RMSNorm,
    RoPE, softmax and SiLU work row by row. A row's new position is written
    before it attends over its keys ``[0, T0 + 1)`` only, so nothing at or
    past a row's length reaches the result.
    """
    b = len(rows)
    # runs of adjacent rows at equal length: batch indices [j0, j1), first row, length
    cuts = [j for j in range(1, b) if (rows[j] - rows[j - 1], starts[j]) != (1, starts[j - 1])]
    runs = [(j0, j1, rows[j0], starts[j0]) for j0, j1 in zip([0, *cuts], [*cuts, b])]
    embed, layers, final_norm, head = model.resolved(p)
    H, dh, d = model.config.n_heads, model.config.d_head, model.config.d_model
    x = embed[np.asarray(tokens, dtype=np.int64)[:, None]]  # [b, 1, d]
    cos, sin = (table[starts][:, None] for table in model.rope)  # [b, 1, 1, dh]
    for i, (norm_attn, wqkv, wo, norm_mlp, w_up, w_down) in enumerate(layers):
        qkv = (_rmsnorm(x, norm_attn) @ wqkv).reshape(b, 3, H, dh)
        # [b, 2, H, dh] rotated: q is its [b, 1, H, dh] first slice, one query per row
        qk = _apply_rope(qkv[:, :2], cos, sin)
        q, k, v = qk[:, :1], qk[:, 1], qkv[:, 2]
        ctx = []
        for j0, j1, r0, T0 in runs:
            ck, cv = (a[i, r0 : r0 + j1 - j0, : T0 + 1] for a in (cache.k, cache.v))
            ck[:, T0], cv[:, T0] = k[j0:j1], v[j0:j1]
            ctx.append(_attend(q[j0:j1], ck, cv))
        x = _mlp(x + np.concatenate(ctx).reshape(b, 1, d) @ wo, norm_mlp, w_up, w_down)
    for r, t in zip(rows, starts):
        cache.lengths[r] = t + 1
    return (_rmsnorm(x, final_norm) @ head).reshape(b, -1)


def _extend(model: ModelVariants, p: int, tokens, cache: KVCache,
            last: bool = False) -> np.ndarray:
    """Fill the empty one-row ``cache`` from position 0 with the ``n >= 1`` ids
    ``tokens`` at weight precision ``p``; returns the logits ``[n, vocab]`` of
    every position, or with ``last`` (a prefill) those of the last, ``[vocab]``.

    The positions attend in blocks of :data:`BLOCK` queries: block ``[a, e)``
    over the keys ``[0, e)`` only, never scoring the key blocks wholly above
    the causal diagonal, one head at a time when it holds two or more
    queries. That is bit-identical to scoring every key and masking the
    upper triangle, at any head count, as masked keys trail each query and
    every sum over keys runs in key order (see :func:`_attend`).

    Every product runs at all ``n`` rows, in every layer. With ``last`` the
    final layer's only attention is that of query ``n - 1``, one 1-query
    block over the keys ``[0, n)``; the other rows' context stays zero, and
    nothing reads what those rows carry on. That is bit-identical to the
    full pass because at a fixed row count a row of ``X @ W`` does not
    depend on the other rows' values, whatever the BLAS kernel; a product
    with fewer rows would tile its sums differently.
    """
    n = len(tokens)
    if n == 0 or cache.lengths.tolist() != [0]:
        raise InputError(f"a forward pass fills an empty one-row cache from one or more "
                         f"tokens, got {n} tokens and cache lengths {cache.lengths}")
    _check(model, p, tokens, cache, n)
    embed, layers, final_norm, head = model.resolved(p)
    H, dh, d = model.config.n_heads, model.config.d_head, model.config.d_model
    x = embed[np.asarray(tokens, dtype=np.int64)]
    cos, sin = (table[:n] for table in model.rope)
    for i, (norm_attn, wqkv, wo, norm_mlp, w_up, w_down) in enumerate(layers):
        # q, k and v in one call of three gemms over wqkv's [d, d] blocks: one
        # [n, 3d] gemm sums differently on some kernels (Haswell, Nehalem)
        qkv = _rmsnorm(x, norm_attn) @ wqkv.reshape(d, 3, d).transpose(1, 0, 2)  # [3, n, d]
        cache.v[i, :, :n] = qkv[2].reshape(1, n, H, dh)
        q, cache.k[i, :, :n] = _apply_rope(qkv[:2].reshape(2, 1, n, H, dh), cos, sin)
        ctx = np.zeros((1, n, H, dh))
        # block [a, e) over the keys [0, e); in prefill's last layer query n - 1 only
        for a in range(n - 1 if last and i == len(layers) - 1 else 0, n, BLOCK):
            e = min(a + BLOCK, n)
            ctx[:, a:e] = _attend(q[:, a:e], cache.k[i, :, :e], cache.v[i, :, :e])
        x = _mlp(x + ctx.reshape(n, d) @ wo, norm_mlp, w_up, w_down)
    cache.lengths[0] = n
    logits = _rmsnorm(x, final_norm) @ head
    return logits[-1] if last else logits


def prefill(model: ModelVariants, p: int, prompt: Sequence[int],
            cache: KVCache | None = None) -> tuple[np.ndarray, KVCache]:
    """Causal pass over the non-empty ``prompt`` into an empty one-row
    ``cache`` (a fresh one of ``max_context`` positions by default); returns
    the last-position logits and the cache. Every product runs at all
    positions; only the final layer's attention is the last position's
    alone (see :func:`_extend`)."""
    if cache is None:
        cache = KVCache(model.config, model.config.max_context)
    return _extend(model, p, prompt, cache, last=True), cache


def decode_step(model: ModelVariants, p: int, tokens: Sequence[int], cache: KVCache,
                rows: Sequence[int]) -> np.ndarray:
    """One autoregressive step of the cache rows ``rows`` (strictly
    increasing), row ``rows[j]`` consuming id ``tokens[j]``; appends one
    position per layer to each and returns their logits ``[len(rows), vocab]``.
    The decode path's one gate: it refuses a malformed call, an unprefilled row
    and what :func:`_check` refuses, then runs one row through the straight-line
    :func:`_step`, two or more through the lockstep :func:`_decode`, which only
    compute; a row's bits are the same in both."""
    if np.ndim(tokens) != 1:
        raise InputError(f"decode_step takes a sequence of token ids, got {tokens!r}")
    # at least one row, the rows strictly increasing, each one of the cache's
    if (len(rows) == 0 or len(tokens) != len(rows)
            or list(rows) != sorted({*rows} & {*range(len(cache.lengths))})):
        raise InputError(f"{len(tokens)} tokens for rows {list(rows)} of a {len(cache.lengths)}"
                         "-row cache: one token per row, at least one row, the rows strictly "
                         "increasing")
    starts = [int(cache.lengths[r]) for r in rows]
    if min(starts) < 1:
        raise InputError("decode_step requires a prefilled cache")
    _check(model, p, tokens, cache, max(starts) + 1)
    if len(rows) > 1:
        return _decode(model, p, tokens, cache, rows, starts)
    return _step(model, p, tokens[0], cache, rows[0], starts[0])[None]


def forward_full(model: ModelVariants, p: int, tokens: Sequence[int]) -> np.ndarray:
    """From-scratch causal pass returning logits at every position (the
    consistency oracle for incremental decoding)."""
    cache = KVCache(model.config, len(tokens))
    return _extend(model, p, tokens, cache)


# ---------------------------------------------------------------------------
# sampling & generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    temperature: float | None = None  # None: greedy
    seed: int = 0

    def __post_init__(self):
        if self.temperature is not None and not 0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")


def sample(logits: np.ndarray, cfg: SamplerConfig,
           rng: np.random.Generator | None = None) -> int:
    """Greedy argmax (lowest index on ties) of a float array of logits, or with a
    temperature one draw from ``rng``, a stream seeded once per sequence."""
    if not np.isfinite(logits).all():
        raise InputError("logits contain non-finite values")
    if cfg.temperature is None:
        return int(logits.argmax())
    if rng is None:
        raise ConfigError("a temperature sampler needs the sequence's stream, rng")
    probs = _softmax(logits / cfg.temperature)
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
        sched = PrecisionSchedule.from_json(sched) if sched else None
        if sched is not None and (precisions != list(sched.token_precisions(len(out)))
                                  or p_prefill != sched.p_prefill):
            raise FormatError("malformed trace JSON: its precisions and p_prefill are not "
                              "those its schedule charges")
        return cls(*lists, termination, p_prefill, sched)


# most prompts decoded in lockstep by one decode_schedules wave: each of its
# prefill groups walks one block of up to WAVE rows, a walk's only live KV.
# Wider waves share each decode_step among more rows (sweep in CHANGES.md).
WAVE = 12


class _Walk:
    """Depth-first lockstep decoding of one wave at one prefill precision, for
    :func:`decode_schedules`: a block with one row per prompt, each prefilled
    in place and decoded under its own schedules, the walk's only KV. An
    object rather than a recursive closure: the closure would be a reference
    cycle that keeps the model alive until a full collection."""

    def __init__(self, model, sampler_cfg, eos, max_new):
        self.model = model
        self.sampler_cfg = sampler_cfg
        self.eos = eos
        self.max_new = max_new
        # per row: its schedules, its sampler stream (None for a greedy
        # sampler, which never draws) and each schedule's end
        self.schedules: list[list[PrecisionSchedule]] = []
        self.rngs: list[np.random.Generator | None] = []
        self.ends: list[list] = []

    def decode(self, prompts, pf, schedulers, feature_block):
        """Prefill ``prompts`` (one wave, shortest first) at ``pf`` straight into
        the rows of one block, ``len(prompts[-1]) + max_new - 1`` positions each,
        resolve every scheduler on its prompt's row and walk the block; returns
        per prompt its traces in ``schedulers`` order and copies of its
        prefill's (K, V) rows of layer ``feature_block``."""
        mc, allowed = self.model.config, self.model.allowed_precisions()
        block = KVCache(mc, len(prompts[-1]) + self.max_new - 1, len(prompts))
        tokens, hashes, features = {}, {}, []
        for r, prompt in enumerate(prompts):
            logits, row = prefill(self.model, pf, prompt, block.row(r))
            schedules = [scheduler.resolve(row) for scheduler in schedulers]
            for sched in schedules:
                if self.max_new > sched.horizon:
                    raise InputError(f"max_new {self.max_new} exceeds the schedule horizon "
                                     f"{sched.horizon}")
                for p in sched.precisions:
                    if p not in allowed:
                        raise ContractViolation(f"schedule uses precision {p} outside the "
                                                f"model's set {sorted(allowed)}")
            features.append(None if feature_block is None else
                            tuple(a.copy() for a in row.layer_kv(feature_block)))
            rng = (None if self.sampler_cfg.temperature is None
                   else named_rng(self.sampler_cfg.seed, "sampler"))
            self.schedules.append(schedules)
            self.rngs.append(rng)
            self.ends.append([None] * len(schedules))
            tokens[r] = [sample(logits, self.sampler_cfg, rng)]
            hashes[r] = [logits_hash(logits)]
        self.walk(block, {r: list(range(len(schedulers))) for r in tokens}, tokens, hashes)
        return [([GenerationTrace([int(t) for t in prompt], list(toks),
                                  list(s.token_precisions(len(toks))), list(hs),
                                  "eos" if toks[-1] == self.eos else "length", pf, s)
                  for s, (toks, hs) in zip(scheds, ends)], feats)
                for prompt, scheds, ends, feats in zip(prompts, self.schedules, self.ends,
                                                       features)]

    def advance(self, p, cache, rows, tokens, hashes) -> None:
        """One decode step at ``p`` of the block rows ``rows``; appends each
        row's sampled token and its logits' hash to ``tokens[r]``/``hashes[r]``."""
        logits = decode_step(self.model, p, [tokens[r][-1] for r in rows], cache, rows)
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
                held = cache.lengths.copy()
                t = {r: tokens[r][:] for r in branch}
                h = {r: hashes[r][:] for r in branch}
                self.advance(q, cache, list(branch), t, h)
                self.walk(cache, branch, t, h)
                cache.lengths[:] = held
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
    fixed schedulers return theirs as-is. Each prompt is prefilled straight
    into its row of one block of ``len(prompt) + max_new - 1`` positions per
    row (the wave's longest prompt, within ``max_context`` by the rule
    below), which the scheduler reads through :meth:`KVCache.row` and which
    is then walked in lockstep; a wave of one prompt is a one-row block.

    Token 0 is sampled from the prefill logits, and decode step ``i``
    consumes token ``i`` at ``precision_at(i)``, the precision token ``i`` is
    attributed; EOS (``vocab_size - 1`` by default) or ``max_new`` tokens
    end a schedule. The group's schedules are walked depth first as a trie
    over their precision, every row at once: a shared prefix is decoded once
    per row, each branch where schedules split decodes in the block itself
    and rolls its rows back (see :class:`KVCache`), and every row at the
    same node and precision advances through one ``decode_step`` call. That
    call is exact row by row (see :func:`_decode`), so each trace is
    bit-identical to a walk of its prompt and schedule alone. A prompt whose
    ``len(prompt) + max_new - 1`` positions exceed ``max_context`` is refused
    before the first prefill, EOS or not, and so is an empty prompt.
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
    need = max((len(prompt) + max_new - 1 for prompt in prompts), default=0)
    if need > model.config.max_context:
        raise InputError(f"the longest prompt and max_new {max_new} need {need} positions, "
                         f"more than max_context {model.config.max_context}")
    for j, prompt in enumerate(prompts):
        if len(prompt) == 0:
            raise InputError(f"prompt {j} is empty: decoding starts from a prompt token")
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
