"""Small shared helpers: seeded sub-streams, the malformed-input rule, canonical JSON."""
from __future__ import annotations

import base64
import hashlib
import json
import operator
from contextlib import contextmanager
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


def read_bytes(path) -> bytes:
    """Contents of a file; :class:`InputError` if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


@contextmanager
def parsing(what: str):
    """The one rule for reading a file: what Python raises on a value of the wrong
    type, shape or range (``int(1e400)``, ``[].get``, the JSON and UTF-8 decoders'
    ``ValueError``s...) becomes :class:`FormatError`; a ``PmpdError`` passes."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed {what}: {exc}") from exc


def json_bool(value, what: str) -> bool:
    """``value`` if it is a JSON boolean, else :class:`FormatError`: ``bool("false")``
    is ``True``, so a flag is never read with ``bool``."""
    if type(value) is not bool:
        raise FormatError(f"{what} must be true or false, got {value!r}")
    return value


def json_int(value) -> int:
    """``operator.index(value)`` that refuses a boolean (``operator.index(True)``
    is 1); :func:`parsing` reports its ``TypeError`` as a malformed value."""
    if type(value) is bool:
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def read_text(path) -> str:
    """UTF-8 text of a file; :class:`InputError` if it cannot be read,
    :class:`FormatError` if it is not UTF-8."""
    with parsing(f"text file {path}"):
        return read_bytes(path).decode("utf-8")


def read_json(path):
    with parsing(f"JSON file {path}"):
        return json.loads(read_text(path))


def config_hash(mapping: dict) -> str:
    return hashlib.sha256(canonical_json(mapping).encode("utf-8")).hexdigest()


def f32_to_b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")


def b64_to_f32(data: str, shape) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(data), dtype="<f4")
    return flat.reshape(shape).copy()
