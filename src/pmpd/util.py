"""Small shared helpers: seeded sub-streams, canonical JSON, base64 arrays."""
from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError


def named_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator for one named randomness stream.

    All randomness in a run flows from a single seed; each consumer (weights,
    truncation, sampler, training) asks for its own labeled stream so adding
    a consumer never perturbs the others.
    """
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, tag])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def read_text(path) -> str:
    """UTF-8 text of a file; :class:`InputError` if it cannot be read,
    :class:`FormatError` if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def config_hash(mapping: dict) -> str:
    return hashlib.sha256(canonical_json(mapping).encode("utf-8")).hexdigest()


def f32_to_b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")


def b64_to_f32(data: str, shape) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(data), dtype="<f4")
    return flat.reshape(shape).copy()
