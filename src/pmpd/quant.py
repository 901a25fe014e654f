"""Nested multi-precision weight quantization with bit-plane packing.

A matrix is quantized once at its highest precision and stored as MSB-first
bit planes: plane 0 holds the top bit of every code, plane 1 the next bit,
and so on. Reading the first ``p`` planes reconstructs exactly the ``p``-bit
code of every weight (the full code shifted right by ``p_max - p``), so one
stored artifact serves every lower precision with zero extra bytes.
:func:`parse_model` reads every plane of every tensor; :func:`dequantize` at
precision ``p`` then unpacks only the first ``p`` of them.

Quantization is asymmetric and per-group: each row is split into contiguous
segments of ``group_size`` weights and every segment carries its own f32
minimum and f32 step.

Weight file layout (little-endian):

    magic "PMPD" | version u32 | metadata length u32 | metadata JSON (UTF-8)
    then, per tensor in metadata order:
        group mins  f32[rows * groups_per_row]
        group steps f32[rows * groups_per_row]
        p_max bit planes, MSB plane first, each ceil(rows*cols/8) bytes,
        bit-packed row-major, LSB-first within bytes, zero-padded.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .util import canonical_json, json_int, parsing

MAGIC = b"PMPD"
FORMAT_VERSION = 1
FULL_PRECISION = 16  # the unquantized reference weights, not a bit-plane prefix


@dataclass(frozen=True)
class PrecisionSet:
    """Ordered set of integer weight bitwidths, highest first: quantized widths
    1..8 and :data:`FULL_PRECISION` (``4.7`` is refused, not truncated)."""

    precisions: tuple[int, ...]

    def __post_init__(self):
        ps = tuple(json_int(p) for p in self.precisions)
        object.__setattr__(self, "precisions", ps)
        if not ps:
            raise ConfigError("precision set must be non-empty")
        if any(not 1 <= p <= 8 and p != FULL_PRECISION for p in ps):
            raise ConfigError(f"precisions must lie in [1, 8] or be {FULL_PRECISION}, got {ps}")
        if any(a <= b for a, b in zip(ps, ps[1:])):
            raise ConfigError(f"precisions must be strictly descending, got {ps}")

    @property
    def p_max(self) -> int:
        return self.precisions[0]

    @property
    def p_min(self) -> int:
        return self.precisions[-1]

    def __iter__(self):
        return iter(self.precisions)

    def __len__(self):
        return len(self.precisions)

    def __contains__(self, p) -> bool:
        return p in self.precisions


class BitPlaneStore:
    """Bit-packed MSB-first planes of the integer codes of one matrix."""

    def __init__(self, rows: int, cols: int, p_max: int, planes: np.ndarray):
        if planes.shape != (p_max, _plane_bytes(rows, cols)):
            raise ConfigError(
                f"plane array shape {planes.shape} does not match "
                f"{p_max} planes of {_plane_bytes(rows, cols)} bytes"
            )
        self.rows = rows
        self.cols = cols
        self.p_max = p_max
        self.planes = np.ascontiguousarray(planes, dtype=np.uint8)
        self.planes.flags.writeable = False

    @classmethod
    def from_codes(cls, codes: np.ndarray, p_max: int) -> "BitPlaneStore":
        rows, cols = codes.shape
        flat = codes.astype(np.uint8).ravel(order="C")
        planes = np.empty((p_max, _plane_bytes(rows, cols)), dtype=np.uint8)
        for k in range(p_max):
            bits = (flat >> (p_max - 1 - k)) & 1
            planes[k] = np.packbits(bits, bitorder="little")
        return cls(rows, cols, p_max, planes)

    def prefix_codes(self, p: int) -> np.ndarray:
        """Integer codes formed by the top ``p`` planes; reads planes[0:p] only."""
        if not 1 <= p <= self.p_max:
            raise ConfigError(f"precision {p} outside [1, {self.p_max}]")
        n = self.rows * self.cols
        acc = np.zeros(n, dtype=np.uint8)
        for k in range(p):
            bits = np.unpackbits(self.planes[k], count=n, bitorder="little")
            acc = (acc << 1) | bits
        return acc.reshape(self.rows, self.cols)

    @property
    def payload_bytes(self) -> int:
        return self.planes.nbytes


def _plane_bytes(rows: int, cols: int) -> int:
    return (rows * cols + 7) // 8


class QuantizedTensor:
    """One matrix quantized at ``p_max`` with per-group f32 min/step scales."""

    def __init__(self, rows, cols, group_size, p_max, mins, deltas, store: BitPlaneStore):
        self.rows = rows
        self.cols = cols
        self.group_size = group_size
        self.p_max = p_max
        self.mins = np.ascontiguousarray(mins, dtype=np.float32)
        self.deltas = np.ascontiguousarray(deltas, dtype=np.float32)
        self.store = store
        gpr = _groups_per_row(cols, group_size)
        if self.mins.shape != (rows, gpr) or self.deltas.shape != (rows, gpr):
            raise ConfigError(f"scale arrays must have shape ({rows}, {gpr})")
        self.mins.flags.writeable = False
        self.deltas.flags.writeable = False

    @property
    def codes(self) -> np.ndarray:
        return self.store.prefix_codes(self.p_max)


def _groups_per_row(cols: int, group_size: int) -> int:
    return (cols + group_size - 1) // group_size


def _group_starts(cols: int, group_size: int) -> np.ndarray:
    return np.arange(0, cols, group_size)


def _spread(per_group: np.ndarray, cols: int, group_size: int) -> np.ndarray:
    """Broadcast per-group values back to one value per column."""
    starts = _group_starts(cols, group_size)
    counts = np.diff(np.append(starts, cols))
    return np.repeat(per_group, counts, axis=1)


def quantize_tensor(weights: np.ndarray, p_max: int, group_size: int) -> QuantizedTensor:
    """Asymmetric round-to-nearest quantization into a nested bit-plane store.

    Per group: min and step are taken from the group's range, codes are
    ``round((w - min) / step)`` with ties rounded half away from zero and
    clamped to ``[0, 2**p_max - 1]``. Constant groups get step 0 and all-zero
    codes. Codes are computed against the f32-rounded scales that are stored,
    so the reconstruction bound holds for the scales a reader will see.
    """
    if not 1 <= p_max <= 8:
        raise ConfigError(f"p_max must lie in [1, 8], got {p_max}")
    if group_size < 1:
        raise ConfigError(f"group_size must be >= 1, got {group_size}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise InputError(f"expected a 2-D weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InputError("weights contain non-finite values")
    rows, cols = w.shape

    starts = _group_starts(cols, group_size)
    mins = np.minimum.reduceat(w, starts, axis=1)
    maxs = np.maximum.reduceat(w, starts, axis=1)
    levels = (1 << p_max) - 1
    mins32 = mins.astype(np.float32)
    deltas32 = ((maxs - mins) / levels).astype(np.float32)

    min_b = _spread(mins32.astype(np.float64), cols, group_size)
    delta_b = _spread(deltas32.astype(np.float64), cols, group_size)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(delta_b > 0, (w - min_b) / np.where(delta_b > 0, delta_b, 1.0), 0.0)
    # floor(x + 0.5) is round-half-away-from-zero for the non-negative x here
    codes = np.clip(np.floor(x + 0.5), 0, levels).astype(np.uint8)
    store = BitPlaneStore.from_codes(codes, p_max)
    return QuantizedTensor(rows, cols, group_size, p_max, mins32, deltas32, store)


def unpack_prefix(store: BitPlaneStore, p: int) -> np.ndarray:
    """Codes formed by the top ``p`` bits of every weight (full code >> (p_max - p))."""
    return store.prefix_codes(p)


def dequantize(qt: QuantizedTensor, p: int) -> np.ndarray:
    """Reconstruct real weights at precision ``p`` <= ``p_max``.

    At full precision the code maps straight back onto the grid. Below full
    precision a truncated code addresses a bucket of ``2**(p_max - p)`` grid
    points and the bucket center is returned, halving the truncation bias
    relative to the bucket floor. Step-0 groups reconstruct to their min.
    """
    if not 1 <= p <= qt.p_max:
        raise ConfigError(f"precision {p} outside [1, {qt.p_max}]")
    codes = qt.store.prefix_codes(p).astype(np.float64)
    min_b = _spread(qt.mins.astype(np.float64), qt.cols, qt.group_size)
    delta_b = _spread(qt.deltas.astype(np.float64), qt.cols, qt.group_size)
    if p == qt.p_max:
        return min_b + codes * delta_b
    m = qt.p_max - p
    return min_b + (codes * float(1 << m) + float(1 << (m - 1))) * delta_b


def max_reconstruction_error_bound(qt: QuantizedTensor, p: int) -> np.ndarray:
    """Worst-case |w - dequantize(p)| of every weight, shape (rows, cols).

    The arithmetic bound is step/2 at full precision plus the bucket
    truncation radius step * 2**(p_max-p) / 2 below it. Scales are stored as
    f32, so rounding the group min adds up to one f32 ulp of |min| on top
    (the only term left for constant groups, whose step is 0).
    """
    deltas = qt.deltas.astype(np.float64)
    storage = np.abs(qt.mins.astype(np.float64)) * 2.0 ** -23
    if p == qt.p_max:
        per_group = deltas / 2.0 + storage
    else:
        per_group = deltas * float(1 << (qt.p_max - p)) / 2.0 + deltas / 2.0 + storage
    return _spread(per_group, qt.cols, qt.group_size)


# ---------------------------------------------------------------------------
# weight file serialization
# ---------------------------------------------------------------------------

def serialize_model(tensors: dict[str, QuantizedTensor], meta: dict) -> bytes:
    """Pack named tensors plus metadata into the weight file format."""
    if not tensors:
        raise InputError("no tensors to serialize")
    p_maxes = {t.p_max for t in tensors.values()}
    if len(p_maxes) != 1:
        raise InputError(f"tensors disagree on p_max: {sorted(p_maxes)}")
    group_sizes = {t.group_size for t in tensors.values()}
    if len(group_sizes) != 1:
        raise InputError(f"tensors disagree on group_size: {sorted(group_sizes)}")

    meta_out = dict(meta)
    meta_out["p_max"] = p_maxes.pop()
    meta_out["group_size"] = group_sizes.pop()
    meta_out["tensors"] = [
        {"name": name, "rows": t.rows, "cols": t.cols} for name, t in tensors.items()
    ]
    meta_blob = canonical_json(meta_out).encode("utf-8")

    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(meta_blob)), meta_blob]
    for t in tensors.values():
        parts.append(t.mins.astype("<f4").tobytes())
        parts.append(t.deltas.astype("<f4").tobytes())
        parts.append(t.store.planes.tobytes())
    return b"".join(parts)


def parse_model(data: bytes) -> tuple[dict[str, QuantizedTensor], dict]:
    """Inverse of :func:`serialize_model`; validates structure byte by byte."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at offset 0 (expected {MAGIC!r})")
    if len(data) < 12:
        raise FormatError(f"truncated header: {len(data)} bytes")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at offset 4")
    (meta_len,) = struct.unpack_from("<I", data, 8)
    off = 12
    if off + meta_len > len(data):
        raise FormatError(f"truncated metadata: need {meta_len} bytes at offset {off}")
    with parsing(f"weight file metadata at offset {off}"):
        meta = json.loads(data[off : off + meta_len].decode("utf-8"))
        p_max, group_size = json_int(meta["p_max"]), json_int(meta["group_size"])
        entries = meta["tensors"]
    off += meta_len

    if not 1 <= p_max <= 8:
        raise FormatError(f"metadata p_max must be an integer in [1, 8], got {p_max!r}")
    if group_size < 1:
        raise FormatError(f"metadata group_size must be an integer >= 1, got {group_size!r}")
    if not isinstance(entries, list):
        raise FormatError(f"metadata 'tensors' must be a list, got {type(entries).__name__}")

    tensors: dict[str, QuantizedTensor] = {}
    for entry in entries:
        with parsing(f"tensor entry {entry!r} in metadata"):
            name = entry["name"]
            rows, cols = json_int(entry["rows"]), json_int(entry["cols"])
        if not isinstance(name, str) or rows < 0 or cols < 0:
            raise FormatError(f"tensor entry {entry!r} in metadata needs a string name "
                              "and a non-negative shape")
        gpr = _groups_per_row(cols, group_size)
        scale_bytes = rows * gpr * 4

        def take(nbytes: int, what: str) -> bytes:
            nonlocal off
            if off + nbytes > len(data):
                raise FormatError(
                    f"truncated reading {what} of tensor '{name}' at offset {off}"
                )
            chunk = data[off : off + nbytes]
            off += nbytes
            return chunk

        mins = np.frombuffer(take(scale_bytes, "group mins"), dtype="<f4").reshape(rows, gpr)
        deltas = np.frombuffer(take(scale_bytes, "group steps"), dtype="<f4").reshape(rows, gpr)
        pb = _plane_bytes(rows, cols)
        planes = np.empty((p_max, pb), dtype=np.uint8)
        for k in range(p_max):
            planes[k] = np.frombuffer(take(pb, f"plane {k}"), dtype=np.uint8)
        tensors[name] = QuantizedTensor(rows, cols, group_size, p_max, mins, deltas,
                                        BitPlaneStore(rows, cols, p_max, planes))
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after last tensor at offset {off}")
    return tensors, meta
