import json
import struct

import numpy as np
import pytest

from pmpd import quant
from pmpd.errors import ConfigError, FormatError, InputError


def random_tensor(rng, p_max=4, max_dim=64, group_size=None):
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    gs = group_size or int(rng.integers(1, cols + 1))
    w = rng.normal(0, 1, (rows, cols))
    return quant.quantize_tensor(w, p_max, gs), w


def test_exact_grid_points():
    qt = quant.quantize_tensor(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, 4)
    assert qt.mins[0, 0] == 0.0 and qt.deltas[0, 0] == 1.0
    assert qt.codes.tolist() == [[0, 1, 2, 3]]


def test_constant_group_is_exact():
    for p_max in (1, 3, 8):
        qt = quant.quantize_tensor(np.full((1, 3), 5.0), p_max, 4)
        assert qt.deltas[0, 0] == 0.0
        assert qt.codes.tolist() == [[0, 0, 0]]
        assert quant.dequantize(qt, p_max).tolist() == [[5.0, 5.0, 5.0]]
        assert quant.dequantize(qt, 1).tolist() == [[5.0, 5.0, 5.0]]


def test_ties_round_half_away_from_zero():
    # 0.5 sits exactly on a code boundary with step 1; half-away rounds up
    qt = quant.quantize_tensor(np.array([[0.0, 0.5, 1.0]]), 1, 4)
    assert qt.codes.tolist() == [[0, 1, 1]]


def test_round_trip_error_bound():
    rng = np.random.default_rng(0)
    for _ in range(200):
        qt, w = random_tensor(rng, p_max=4)
        err = np.abs(w - quant.dequantize(qt, 4))
        bound = quant.max_reconstruction_error_bound(qt, 4)
        assert np.all(err <= bound * (1 + 1e-9) + 1e-15)


def test_dequantize_identity_at_full_precision():
    qt = quant.quantize_tensor(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, 4)
    assert quant.dequantize(qt, 2).tolist() == [[0.0, 1.0, 2.0, 3.0]]


def test_dequantize_bucket_centers_at_lower_precision():
    qt = quant.quantize_tensor(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, 4)
    # codes [0,1,2,3] truncate to [0,0,1,1]; centers at min + (2c+1)*step
    assert quant.dequantize(qt, 1).tolist() == [[1.0, 1.0, 3.0, 3.0]]


def test_lower_precision_error_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        qt, w = random_tensor(rng, p_max=5)
        for p in range(1, 6):
            err = np.abs(w - quant.dequantize(qt, p))
            bound = quant.max_reconstruction_error_bound(qt, p)
            assert np.all(err <= bound * (1 + 1e-9) + 1e-15), (p, qt.rows, qt.cols)


def test_unpack_prefix_is_code_shift():
    codes = np.array([[0b10, 0b01]], dtype=np.uint8)
    store = quant.BitPlaneStore.from_codes(codes, 2)
    assert quant.unpack_prefix(store, 1).tolist() == [[1, 0]]
    assert quant.unpack_prefix(store, 2).tolist() == [[2, 1]]


def test_unpack_prefix_random_nesting():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_max = int(rng.integers(1, 9))
        codes = rng.integers(0, 1 << p_max, (int(rng.integers(1, 20)),
                                             int(rng.integers(1, 20)))).astype(np.uint8)
        store = quant.BitPlaneStore.from_codes(codes, p_max)
        for p in range(1, p_max + 1):
            assert np.array_equal(store.prefix_codes(p), codes >> (p_max - p))


def test_unpack_prefix_zero_codes():
    store = quant.BitPlaneStore.from_codes(np.zeros((3, 5), dtype=np.uint8), 4)
    for p in range(1, 5):
        assert not store.prefix_codes(p).any()


def test_requantize_is_code_stable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        qt, _ = random_tensor(rng, p_max=4, group_size=8)
        again = quant.quantize_tensor(quant.dequantize(qt, 4), 4, qt.group_size)
        assert np.array_equal(qt.codes, again.codes)


def test_storage_is_exactly_pmax_planes():
    qt = quant.quantize_tensor(np.random.default_rng(4).normal(size=(13, 21)), 3, 8)
    assert qt.store.payload_bytes == 3 * ((13 * 21 + 7) // 8)


def test_monotone_refinement():
    rng = np.random.default_rng(5)
    qt, w = random_tensor(rng, p_max=6, max_dim=32, group_size=16)
    prev = None
    for p in range(1, 7):
        worst = float(np.max(np.abs(w - quant.dequantize(qt, p))))
        bound = float(np.max(quant.max_reconstruction_error_bound(qt, p)))
        assert worst <= bound * (1 + 1e-9) + 1e-15
        if prev is not None:
            assert bound <= prev
        prev = bound


def test_rejects_bad_inputs():
    with pytest.raises(InputError):
        quant.quantize_tensor(np.array([[np.nan, 1.0]]), 4, 2)
    with pytest.raises(InputError):
        quant.quantize_tensor(np.array([[np.inf, 1.0]]), 4, 2)
    with pytest.raises(ConfigError):
        quant.quantize_tensor(np.ones((2, 2)), 0, 2)
    with pytest.raises(ConfigError):
        quant.quantize_tensor(np.ones((2, 2)), 9, 2)
    with pytest.raises(ConfigError):
        quant.quantize_tensor(np.ones((2, 2)), 4, 0)
    qt = quant.quantize_tensor(np.ones((2, 2)), 4, 2)
    with pytest.raises(ConfigError):
        quant.dequantize(qt, 0)
    with pytest.raises(ConfigError):
        quant.dequantize(qt, 5)
    with pytest.raises(ConfigError):
        qt.store.prefix_codes(5)


def test_precision_set_validation():
    ps = quant.PrecisionSet((4, 3, 2))
    assert ps.p_max == 4 and ps.p_min == 2 and 3 in ps
    with pytest.raises(ConfigError):
        quant.PrecisionSet(())
    with pytest.raises(ConfigError):
        quant.PrecisionSet((2, 3))
    with pytest.raises(ConfigError):
        quant.PrecisionSet((9, 2))
    with pytest.raises(ConfigError):
        quant.PrecisionSet((3, 0))
    assert quant.PrecisionSet((16, 4)).p_max == quant.FULL_PRECISION
    for bad in ((9,), (17,), (16, 16)):
        with pytest.raises(ConfigError):
            quant.PrecisionSet(bad)


def test_ragged_group_at_row_end():
    w = np.random.default_rng(6).normal(size=(4, 10))
    qt = quant.quantize_tensor(w, 4, 4)  # groups of 4, 4, 2 per row
    assert qt.mins.shape == (4, 3)
    err = np.abs(w - quant.dequantize(qt, 4))
    bound = quant.max_reconstruction_error_bound(qt, 4)
    assert bound.shape == (4, 10)
    assert np.all(err <= bound * (1 + 1e-9) + 1e-15)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _two_tensors():
    rng = np.random.default_rng(7)
    return {
        "a": quant.quantize_tensor(rng.normal(size=(5, 12)), 3, 4),
        "b": quant.quantize_tensor(rng.normal(size=(8, 8)), 3, 4),
    }


def test_serialize_round_trip():
    tensors = _two_tensors()
    blob = quant.serialize_model(tensors, {"note": "fixture"})
    parsed, meta = quant.parse_model(blob)
    assert meta["note"] == "fixture" and meta["p_max"] == 3
    assert list(parsed) == list(tensors)
    for name in tensors:
        t0, t1 = tensors[name], parsed[name]
        assert (t0.rows, t0.cols, t0.group_size) == (t1.rows, t1.cols, t1.group_size)
        assert np.array_equal(t0.mins, t1.mins)
        assert np.array_equal(t0.deltas, t1.deltas)
        assert np.array_equal(t0.store.planes, t1.store.planes)


def test_parse_rejects_bad_magic():
    blob = bytearray(quant.serialize_model(_two_tensors(), {}))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError, match="bad magic"):
        quant.parse_model(bytes(blob))


def test_parse_rejects_bad_version():
    blob = bytearray(quant.serialize_model(_two_tensors(), {}))
    blob[4] = 99
    with pytest.raises(FormatError, match="version"):
        quant.parse_model(bytes(blob))


def test_parse_truncation_names_tensor():
    blob = quant.serialize_model(_two_tensors(), {})
    with pytest.raises(FormatError, match="tensor 'b'"):
        quant.parse_model(blob[:-10])


def test_parse_rejects_trailing_bytes():
    blob = quant.serialize_model(_two_tensors(), {})
    with pytest.raises(FormatError, match="trailing"):
        quant.parse_model(blob + b"\x00")


def test_serialize_requires_consistent_pmax():
    rng = np.random.default_rng(8)
    tensors = {"a": quant.quantize_tensor(rng.normal(size=(2, 4)), 3, 4),
               "b": quant.quantize_tensor(rng.normal(size=(2, 4)), 4, 4)}
    with pytest.raises(InputError, match="p_max"):
        quant.serialize_model(tensors, {})


def _with_meta(blob: bytes, **changes) -> bytes:
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12 : 12 + meta_len])
    meta.update(changes)
    new = json.dumps(meta).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + meta_len :]


def test_parse_rejects_non_positive_group_size():
    blob = quant.serialize_model(_two_tensors(), {})
    with pytest.raises(FormatError, match="group_size"):
        quant.parse_model(_with_meta(blob, group_size=0))


def test_parse_rejects_non_list_tensors():
    blob = quant.serialize_model(_two_tensors(), {})
    with pytest.raises(FormatError, match="tensors"):
        quant.parse_model(_with_meta(blob, tensors=5))
