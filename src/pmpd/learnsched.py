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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .metrics import rouge_l
from .schedule import PrecisionSchedule, SwitchGrid, decode_candidates, reference_output
from .util import b64_to_f32, f32_to_b64, named_rng, read_text

log = logging.getLogger(__name__)

NET_TAG = "pmpd-sched-v1"
LABELS_TAG = "pmpd-labels-v1"
MATCH_GUARD = 1e-9  # float guard on the "matches or exceeds" label rule


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
        self.p_high = int(p_high)
        self.p_low = int(p_low)
        self.feature_block = int(feature_block)
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
        return {"q": self.q, "w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    @classmethod
    def init(cls, d_k: int, d_v: int, hidden: int, grid: SwitchGrid,
             p_high: int, p_low: int, seed: int = 0,
             feature_block: int = -1) -> "SchedulerNet":
        rng = named_rng(seed, "scheduler-init")
        q = rng.normal(0.0, 1.0 / np.sqrt(d_k), d_k)
        w1 = rng.normal(0.0, np.sqrt(2.0 / d_v), (hidden, d_v))
        w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), (grid.n, hidden))
        return cls(q, w1, np.zeros(hidden), w2, np.zeros(grid.n), grid,
                   p_high, p_low, feature_block)

    def to_json(self) -> dict:
        def arr(a):
            return {"shape": list(a.shape), "data": [float(x) for x in a.ravel()]}
        return {"tag": NET_TAG, "grid": {"n": self.grid.n, "OL": self.grid.horizon},
                "p_high": self.p_high, "p_low": self.p_low,
                "feature_block": self.feature_block,
                "q": arr(self.q), "w1": arr(self.w1), "b1": arr(self.b1),
                "w2": arr(self.w2), "b2": arr(self.b2)}

    @classmethod
    def from_json(cls, obj: dict) -> "SchedulerNet":
        if obj.get("tag") != NET_TAG:
            raise FormatError(f"not a scheduler net artifact (tag {obj.get('tag')!r})")

        def arr(entry):
            return np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])

        try:
            grid = SwitchGrid(int(obj["grid"]["n"]), int(obj["grid"]["OL"]))
            return cls(arr(obj["q"]), arr(obj["w1"]), arr(obj["b1"]),
                       arr(obj["w2"]), arr(obj["b2"]), grid,
                       obj["p_high"], obj["p_low"], obj.get("feature_block", -1))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed scheduler net JSON: {exc}") from exc


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def _pool_forward(net: SchedulerNet, K: np.ndarray, V: np.ndarray) -> dict:
    s = (K @ net.q) / np.sqrt(net.d_k)
    a = _softmax(s)
    pooled = a @ V
    z1 = net.w1 @ pooled + net.b1
    h = np.maximum(z1, 0.0)
    logits = net.w2 @ h + net.b2
    return {"s": s, "a": a, "pooled": pooled, "z1": z1, "h": h, "logits": logits}


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
    K, V = _checked(net, K, V)
    return _pool_forward(net, K, V)["pooled"]


def class_logits(net: SchedulerNet, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    K, V = _checked(net, K, V)
    return _pool_forward(net, K, V)["logits"]


def predict_schedule(net: SchedulerNet, cache,
                     p_prefill: int | None = None) -> PrecisionSchedule:
    """Map a prefilled cache to a valid two-precision schedule: the argmax
    class (lowest index on ties) selects the low precision's switch point."""
    K, V = cache.layer_kv(net.feature_block)
    logits = class_logits(net, K, V)
    cls_idx = int(np.argmax(logits))
    switch = net.grid.points[cls_idx]
    return PrecisionSchedule.two_phase(net.p_high, net.p_low, switch,
                                       net.grid.horizon, p_prefill)


class LearnedScheduler:
    """Adapter giving the generation loop a per-prompt predicted schedule."""

    def __init__(self, net: SchedulerNet, p_prefill: int | None = None):
        self.net = net
        self.p_prefill = net.p_high if p_prefill is None else int(p_prefill)

    @property
    def horizon(self) -> int:
        return self.net.grid.horizon

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
    return len(scores) - 1


def generate_labels(variants, seed_prompts: Sequence[Sequence[int]], grid: SwitchGrid,
                    p_high: int, p_low: int, *, p_prefill: int | None = None,
                    eos_id: int | None = None, seed: int = 0,
                    feature_block: int = -1) -> tuple[list[LabeledExample], int]:
    """Build the training set: truncate each seed prompt at a random point,
    score one generation per grid switch point against the full-precision
    reference, and keep the prefill K/V of the designated block as features.
    The candidates share one prefill and their common decode prefix
    (:func:`pmpd.schedule.decode_candidates`); the features are that
    prefill's rows.

    Returns the examples plus the number of prompts skipped for producing an
    empty reference. Bit-identical for a fixed seed.
    """
    if not seed_prompts:
        raise InputError("seed prompt set is empty")
    rng = named_rng(seed, "truncation")
    eos = variants.config.vocab_size - 1 if eos_id is None else eos_id
    pf = p_high if p_prefill is None else p_prefill
    horizon = grid.horizon
    max_prompt = variants.config.max_context - horizon
    if max_prompt < 1:
        raise ConfigError(
            f"grid horizon {horizon} leaves no room for prompts in a "
            f"max_context of {variants.config.max_context}")
    candidates = [PrecisionSchedule.two_phase(p_high, p_low, point, horizon, pf)
                  for point in grid.points]

    examples: list[LabeledExample] = []
    skipped = 0
    for n, toks in enumerate(seed_prompts):
        toks = list(toks)
        cut = int(rng.integers(1, len(toks) + 1))  # drawn before any skip
        prompt = toks[: max(1, min(cut, max_prompt))]

        ref = reference_output(variants, prompt, horizon, eos)
        if ref is None:
            skipped += 1
            log.info("label generation skipped prompt %d: empty reference", n)
            continue

        traces, roots = decode_candidates(variants, prompt, candidates, horizon, eos)
        scores = [rouge_l(trace.output_tokens, ref).f1 for trace in traces]
        K, V = roots[pf].layer_kv(feature_block)
        t = len(prompt)
        examples.append(LabeledExample(K[:t].astype(np.float32), V[:t].astype(np.float32),
                                       label_from_scores(scores), scores, t))
    return examples, skipped


def save_labels(path, examples: Sequence[LabeledExample], grid: SwitchGrid,
                p_high: int, p_low: int, feature_block: int = -1) -> None:
    header = {"tag": LABELS_TAG, "grid": {"n": grid.n, "OL": grid.horizon},
              "p_high": p_high, "p_low": p_low, "feature_block": feature_block}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for ex in examples:
        lines.append(json.dumps({
            "label": ex.label, "t": int(ex.k.shape[0]),
            "d_k": int(ex.k.shape[1]), "d_v": int(ex.v.shape[1]),
            "k": f32_to_b64(ex.k), "v": f32_to_b64(ex.v),
            "scores": [float(s) for s in ex.scores], "prompt_len": ex.prompt_len,
        }, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path) -> tuple[list[LabeledExample], dict]:
    lines = read_text(path).splitlines()
    if not lines:
        raise FormatError(f"label file {path} is empty")
    try:
        header = json.loads(lines[0])
        if header.get("tag") != LABELS_TAG:
            raise FormatError(f"not a label artifact (tag {header.get('tag')!r})")
        examples = []
        for line in lines[1:]:
            if not line.strip():
                continue
            obj = json.loads(line)
            t = obj["t"]
            examples.append(LabeledExample(
                b64_to_f32(obj["k"], (t, obj["d_k"])), b64_to_f32(obj["v"], (t, obj["d_v"])),
                int(obj["label"]), list(obj.get("scores", [])),
                int(obj.get("prompt_len", 0))))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed label file {path}: {exc}") from exc
    return examples, header


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
    f = _pool_forward(net, K, V)
    logits, a, pooled, z1, h = f["logits"], f["a"], f["pooled"], f["z1"], f["h"]

    shifted = logits - logits.max()
    logsumexp = np.log(np.exp(shifted).sum()) + logits.max()
    loss = logsumexp - logits[label]
    probs = np.exp(logits - logsumexp)

    dlogits = probs.copy()
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
    return float(loss), {"q": dq, "w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def dataset_loss(net: SchedulerNet, dataset: Sequence[LabeledExample]) -> float:
    return sum(example_loss_and_grads(net, ex.k, ex.v, ex.label)[0]
               for ex in dataset) / len(dataset)


def accuracy(net: SchedulerNet, dataset: Sequence[LabeledExample]) -> float:
    hits = sum(int(np.argmax(class_logits(net, ex.k, ex.v))) == ex.label
               for ex in dataset)
    return hits / len(dataset)


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
    rng = named_rng(cfg.seed, "training")
    params = {k: v.copy() for k, v in net.params().items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    work = SchedulerNet(params["q"], params["w1"], params["b1"], params["w2"],
                        params["b2"], net.grid, net.p_high, net.p_low,
                        net.feature_block)

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

    trained = SchedulerNet(params["q"], params["w1"], params["b1"], params["w2"],
                           params["b2"], net.grid, net.p_high, net.p_low,
                           net.feature_block)
    return TrainResult(trained, losses, dataset_loss(trained, dataset),
                       accuracy(trained, dataset))
