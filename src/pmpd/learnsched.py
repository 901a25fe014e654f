"""Task-agnostic learned precision scheduler.

A learned query vector attends over the prefilled KV cache of one designated
block (the last by default), the pooled value vector feeds a one-hidden-layer
ReLU MLP, and the argmax class picks the switch point for the low precision
from a fixed grid. Training is plain mini-batch gradient descent with
momentum on the cross-entropy, with gradients derived by hand all the way
back through the attention pooling into the query vector.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tinylm
from .errors import ConfigError, FormatError, InputError
# unused, but benchmarks/tracing.py wraps it and tests/test_bench_hooks.py needs it
from .metrics import rouge_l  # noqa: F401
from .quant import PrecisionSet
from .schedule import PrecisionSchedule, SwitchGrid, score_candidates
from .util import (b64_to_f32, canonical_json, f32_to_b64, json_floats, json_int, named_rng,
                   parsing, read_text)

log = logging.getLogger(__name__)

NET_TAG = "pmpd-sched-v1"
LABELS_TAG = "pmpd-labels-v1"
MATCH_GUARD = 1e-9  # float guard on the "matches or exceeds" label rule
PARAMS = ("q", "w1", "b1", "w2", "b2")  # a net's trained arrays, in constructor order


class SchedulerNet:
    """Learned query + MLP classifier over candidate switch points."""

    def __init__(self, q: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                 w2: np.ndarray, b2: np.ndarray, grid: SwitchGrid,
                 p_high: int, p_low: int, feature_block: int = -1):
        self.q = np.asarray(q, dtype=np.float64)
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.grid = grid
        # a strictly descending pair of model precisions
        self.p_high, self.p_low = PrecisionSet((p_high, p_low)).precisions
        self.feature_block = json_int(feature_block)
        if self.q.ndim != 1:
            raise ConfigError(f"query must be a vector, got shape {self.q.shape}")
        if self.w1.shape != (self.hidden, self.d_v) or self.b1.shape != (self.hidden,):
            raise ConfigError("hidden layer shapes are inconsistent")
        if self.w2.shape != (self.n_classes, self.hidden) or self.b2.shape != (self.n_classes,):
            raise ConfigError("output layer shapes are inconsistent")
        if self.n_classes != grid.n:
            raise ConfigError(f"net has {self.n_classes} classes but grid has {grid.n} points")
        for name, arr in self.params().items():
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"parameter {name} contains non-finite values")

    @property
    def d_k(self) -> int:
        return self.q.shape[0]

    @property
    def d_v(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAMS}

    def with_params(self, params: dict[str, np.ndarray]) -> "SchedulerNet":
        """This net's grid, precisions and feature block with ``params``, not copied."""
        return SchedulerNet(**params, grid=self.grid, p_high=self.p_high, p_low=self.p_low,
                            feature_block=self.feature_block)

    @classmethod
    def init(cls, d_k: int, d_v: int, hidden: int, grid: SwitchGrid,
             p_high: int, p_low: int, seed: int = 0,
             feature_block: int = -1) -> "SchedulerNet":
        if hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {hidden}")
        rng = named_rng(seed, "scheduler-init")
        q = rng.normal(0.0, 1.0 / np.sqrt(d_k), d_k)
        w1 = rng.normal(0.0, np.sqrt(2.0 / d_v), (hidden, d_v))
        w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), (grid.n, hidden))
        return cls(q, w1, np.zeros(hidden), w2, np.zeros(grid.n), grid,
                   p_high, p_low, feature_block)

    def to_json(self) -> dict:
        obj = _grid_json(NET_TAG, self.grid, self.p_high, self.p_low, self.feature_block)
        for name, a in self.params().items():
            obj[name] = {"shape": list(a.shape), "data": [float(x) for x in a.ravel()]}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SchedulerNet":
        with parsing("scheduler net JSON"):
            if obj.get("tag") != NET_TAG:
                raise FormatError(f"not a scheduler net artifact (tag {obj.get('tag')!r})")
            return cls(*(json_floats(obj[name]["data"]).reshape(obj[name]["shape"])
                         for name in PARAMS), **_grid_fields(obj))


def _grid_json(tag: str, grid: SwitchGrid, p_high: int, p_low: int,
               feature_block: int) -> dict:
    """The header a net file and a label file share, which :func:`_grid_fields` reads."""
    return {"tag": tag, "grid": {"n": grid.n, "OL": grid.horizon}, "p_high": p_high,
            "p_low": p_low, "feature_block": feature_block}


def _grid_fields(obj: dict) -> dict:
    """The grid, precisions and feature block a net file and a label file's header
    both carry, as keyword arguments of :class:`SchedulerNet` and its ``init``;
    ``p_high`` must lie above ``p_low`` in a label file too."""
    p_high, p_low = PrecisionSet((obj["p_high"], obj["p_low"])).precisions
    return {"grid": SwitchGrid(obj["grid"]["n"], obj["grid"]["OL"]), "p_high": p_high,
            "p_low": p_low, "feature_block": json_int(obj.get("feature_block", -1))}


def _pool_forward(net: SchedulerNet, K: np.ndarray, V: np.ndarray) -> tuple:
    """The one forward pass: the pooling weights, the pooled value vector, the
    hidden layer before and after its ReLU, and the class logits."""
    a = tinylm._softmax((K @ net.q) / np.sqrt(net.d_k))
    pooled = a @ V
    z1 = net.w1 @ pooled + net.b1
    h = np.maximum(z1, 0.0)
    return a, pooled, z1, h, net.w2 @ h + net.b2


def _logsumexp(logits: np.ndarray) -> float:
    top = logits.max()
    return np.log(np.exp(logits - top).sum()) + top


def _checked(net: SchedulerNet, K: np.ndarray, V: np.ndarray):
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if K.ndim != 2 or V.ndim != 2 or K.shape[0] != V.shape[0] or K.shape[0] < 1:
        raise ConfigError(f"K {K.shape} and V {V.shape} must share a non-empty time axis")
    if K.shape[1] != net.d_k or V.shape[1] != net.d_v:
        raise ConfigError(
            f"K width {K.shape[1]} / V width {V.shape[1]} do not match "
            f"net dims ({net.d_k}, {net.d_v})")
    return K, V


def pool_kv(net: SchedulerNet, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Attention-pool the value rows with weights softmax(q·K^T / sqrt(d_k))."""
    return _pool_forward(net, *_checked(net, K, V))[1]


def predict_schedule(net: SchedulerNet, cache,
                     p_prefill: int | None = None) -> PrecisionSchedule:
    """Map a prefilled cache to a valid two-precision schedule: the argmax
    class (lowest index on ties) selects the low precision's switch point."""
    logits = _pool_forward(net, *_checked(net, *cache.layer_kv(net.feature_block)))[-1]
    switch = net.grid.points[int(np.argmax(logits))]
    return PrecisionSchedule.two_phase(net.p_high, net.p_low, switch,
                                       net.grid.horizon, p_prefill)


class LearnedScheduler:
    """Adapter giving the generation loop a per-prompt predicted schedule."""

    def __init__(self, net: SchedulerNet, p_prefill: int | None = None):
        self.net = net
        self.p_prefill = net.p_high if p_prefill is None else json_int(p_prefill)

    def resolve(self, cache) -> PrecisionSchedule:
        return predict_schedule(self.net, cache, self.p_prefill)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

@dataclass
class LabeledExample:
    """Pooling inputs from one prefill plus the minimal adequate grid index."""

    k: np.ndarray  # [T, d_k] float32
    v: np.ndarray  # [T, d_v] float32
    label: int
    scores: list[float] = field(default_factory=list)
    prompt_len: int = 0


def label_from_scores(scores: Sequence[float]) -> int:
    """Smallest grid index whose quality matches or exceeds the all-high
    run's quality (the last grid point), with a small float guard."""
    threshold = scores[-1] - MATCH_GUARD
    for j, s in enumerate(scores):
        if s >= threshold:
            return j


def generate_labels(variants, seed_prompts: Sequence[Sequence[int]], grid: SwitchGrid,
                    p_high: int, p_low: int, *, p_prefill: int | None = None,
                    eos_id: int | None = None, seed: int = 0,
                    feature_block: int = -1) -> tuple[list[LabeledExample], int]:
    """Build the training set: truncate each seed prompt at a random point,
    score the two-phase schedule of every grid switch point with
    :func:`pmpd.schedule.score_candidates`, the static solver's scoring rule,
    and keep the prefill K/V of the designated block as features. Each
    prompt's candidates share one prefill and their common decode prefix;
    the features are copies of that prefill's rows.

    Returns the examples plus the number of prompts skipped for producing an
    empty reference. Bit-identical for a fixed seed.
    """
    if not seed_prompts:
        raise InputError("seed prompt set is empty")
    if any(len(toks) == 0 for toks in seed_prompts):
        raise InputError("a seed prompt is empty; truncation needs at least one token")
    rng = named_rng(seed, "truncation")
    pf = p_high if p_prefill is None else p_prefill
    horizon = grid.horizon
    max_prompt = variants.config.max_context - horizon + 1
    if max_prompt < 1:
        raise ConfigError(
            f"grid horizon {horizon} leaves no room for prompts in a "
            f"max_context of {variants.config.max_context}")
    candidates = [PrecisionSchedule.two_phase(p_high, p_low, point, horizon, pf)
                  for point in grid.points]

    prompts = []
    for toks in seed_prompts:
        toks = list(toks)
        cut = int(rng.integers(1, len(toks) + 1))  # drawn before any skip
        prompts.append(toks[: max(1, min(cut, max_prompt))])
    kept, scores, features = score_candidates(variants, prompts, candidates, horizon,
                                              eos_id, feature_block)
    for n in sorted(set(range(len(prompts))).difference(kept)):
        log.info("label generation skipped prompt %d: empty reference", n)
    examples = []
    for n, row, feats in zip(kept, scores, features):
        K, V = feats[pf]
        examples.append(LabeledExample(K.astype(np.float32), V.astype(np.float32),
                                       label_from_scores(row), row, len(prompts[n])))
    return examples, len(prompts) - len(kept)


def save_labels(path, examples: Sequence[LabeledExample], grid: SwitchGrid,
                p_high: int, p_low: int, feature_block: int = -1) -> None:
    lines = [canonical_json(_grid_json(LABELS_TAG, grid, p_high, p_low, feature_block))]
    for ex in examples:
        lines.append(canonical_json({
            "label": ex.label, "t": int(ex.k.shape[0]),
            "d_k": int(ex.k.shape[1]), "d_v": int(ex.v.shape[1]),
            "k": f32_to_b64(ex.k), "v": f32_to_b64(ex.v),
            "scores": [float(s) for s in ex.scores], "prompt_len": ex.prompt_len,
        }))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path) -> tuple[list[LabeledExample], dict]:
    """The examples of a label file and its header's grid, ``p_high``,
    ``p_low`` and ``feature_block``, as :meth:`SchedulerNet.init` takes them."""
    lines = read_text(path).splitlines()
    if not lines:
        raise FormatError(f"label file {path} is empty")
    with parsing(f"label file {path}"):
        header = json.loads(lines[0])
        if header.get("tag") != LABELS_TAG:
            raise FormatError(f"not a label artifact (tag {header.get('tag')!r})")
        fields = _grid_fields(header)
        examples = []
        for line in lines[1:]:
            if not line.strip():
                continue
            obj = json.loads(line)
            t, d_k, d_v = obj["t"], obj["d_k"], obj["d_v"]
            if min(t, d_k, d_v) < 1:
                raise FormatError(f"label example of {t} rows of widths {d_k}/{d_v} is empty")
            examples.append(LabeledExample(
                b64_to_f32(obj["k"], (t, d_k)), b64_to_f32(obj["v"], (t, d_v)),
                json_int(obj["label"]), json_floats(obj.get("scores", [])).tolist(),
                json_int(obj.get("prompt_len", 0))))
    widths = {(ex.k.shape[1], ex.v.shape[1]) for ex in examples}
    if len(widths) > 1:
        raise FormatError(f"label file {path} mixes K/V widths {sorted(widths)}")
    return examples, fields


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-2
    epochs: int = 100
    batch: int = 16
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not (self.batch >= 1 and self.epochs >= 1 and 0 < self.lr < math.inf
                and 0 <= self.momentum < 1):
            raise ConfigError("training needs batch >= 1, epochs >= 1, a finite lr > 0 and "
                              f"0 <= momentum < 1, got {self}")


@dataclass
class TrainResult:
    net: SchedulerNet
    losses: list[float]
    final_loss: float
    final_accuracy: float


def example_loss_and_grads(net: SchedulerNet, K: np.ndarray, V: np.ndarray,
                           label: int) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy of one example and its gradients for every parameter,
    including the query vector through the pooling softmax."""
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    a, pooled, z1, h, logits = _pool_forward(net, K, V)
    lse = _logsumexp(logits)
    dlogits = np.exp(logits - lse)  # the softmax, minus the one-hot label below
    dlogits[label] -= 1.0
    dw2 = np.outer(dlogits, h)
    db2 = dlogits
    dh = net.w2.T @ dlogits
    dz1 = dh * (z1 > 0)
    dw1 = np.outer(dz1, pooled)
    db1 = dz1
    dpooled = net.w1.T @ dz1
    da = V @ dpooled
    ds = a * (da - float(a @ da))
    dq = (K.T @ ds) / np.sqrt(net.d_k)
    return float(lse - logits[label]), dict(zip(PARAMS, (dq, dw1, db1, dw2, db2)))


def _evaluate(net: SchedulerNet, dataset: Sequence[LabeledExample]) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over ``dataset``, one forward pass
    per example; the loss of each is the one :func:`example_loss_and_grads` returns."""
    loss, hits = 0.0, 0
    for ex in dataset:
        logits = _pool_forward(net, *_checked(net, ex.k, ex.v))[-1]
        loss += float(_logsumexp(logits) - logits[ex.label])
        hits += int(np.argmax(logits)) == ex.label
    return loss / len(dataset), hits / len(dataset)


def train(net: SchedulerNet, dataset: Sequence[LabeledExample],
          cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch gradient descent with momentum on the cross-entropy.

    Deterministic for a fixed seed: batch order comes from one named stream.
    The per-epoch loss curve records the mean of the batch losses seen while
    training, so with a whole-dataset batch it is the pre-update loss.
    """
    if not dataset:
        raise InputError("training set is empty")
    for ex in dataset:
        if not 0 <= ex.label < net.n_classes:
            raise InputError(f"label {ex.label} outside [0, {net.n_classes})")
        _checked(net, ex.k, ex.v)
    rng = named_rng(cfg.seed, "training")
    params = {k: v.copy() for k, v in net.params().items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    work = net.with_params(params)  # shares params, so it sees each update

    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        batch_losses = []
        for start in range(0, len(dataset), cfg.batch):
            batch = [dataset[i] for i in order[start : start + cfg.batch]]
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            total = 0.0
            for ex in batch:
                loss, g = example_loss_and_grads(work, ex.k, ex.v, ex.label)
                total += loss
                for k in grads:
                    grads[k] += g[k]
            batch_losses.append(total / len(batch))
            for k in params:
                velocity[k] = cfg.momentum * velocity[k] - cfg.lr * grads[k] / len(batch)
                params[k] += velocity[k]
        epoch_loss = sum(batch_losses) / len(batch_losses)
        if not np.isfinite(epoch_loss):
            raise ConfigError(
                f"training diverged at epoch {epoch} (loss {epoch_loss}); "
                "lower the learning rate")
        losses.append(epoch_loss)

    trained = net.with_params(params)
    return TrainResult(trained, losses, *_evaluate(trained, dataset))
