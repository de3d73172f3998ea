import json
import struct

import numpy as np
import pytest

from kmerge.adapters import (
    FactorPair,
    LayerKey,
    LoraAdapter,
    delta_map,
    flatten,
    materialize_delta,
    read_adapter,
    write_adapter,
)
from kmerge.errors import FormatError, KeyNotFound, ShapeError

from conftest import make_adapter, naive_matmul, small_random_adapter

K0 = LayerKey(0, "key")


def test_materialize_hand_expansion():
    adapter = make_adapter("t", {K0: ([[0, 1]], [[1], [0]])}, rank=1, scale_numerator=1)
    np.testing.assert_array_equal(materialize_delta(adapter, K0), [[0, 1], [0, 0]])


def test_materialize_zero_b_annihilates():
    a = np.arange(6).reshape(2, 3)
    adapter = make_adapter("t", {K0: (a, np.zeros((4, 2)))}, rank=2, scale_numerator=2)
    np.testing.assert_array_equal(materialize_delta(adapter, K0), np.zeros((4, 3)))


def test_materialize_matches_triple_loop(rng):
    adapter = small_random_adapter("t", rng, rank=2, n_keys=1, width=4)
    fp = adapter.layers[K0]
    expected = adapter.scaling * naive_matmul(fp.b, fp.a)
    np.testing.assert_allclose(materialize_delta(adapter, K0), expected, rtol=1e-12)


def test_materialize_linear_in_b(rng):
    adapter = small_random_adapter("t", rng, rank=2, n_keys=1, width=4)
    fp = adapter.layers[K0]
    # power-of-two scalar so the float32 store stays exact
    scaled = make_adapter("s", {K0: (fp.a, 4.0 * fp.b)}, rank=2, scale_numerator=adapter.scale_numerator)
    np.testing.assert_allclose(
        materialize_delta(scaled, K0), 4.0 * materialize_delta(adapter, K0), rtol=1e-12
    )


def test_materialize_missing_key(rng):
    adapter = small_random_adapter("t", rng, n_keys=1)
    with pytest.raises(KeyNotFound):
        materialize_delta(adapter, LayerKey(5, "query"))


def test_factor_pair_shape_mismatch():
    with pytest.raises(ShapeError):
        FactorPair(a=np.zeros((2, 3), np.float32), b=np.zeros((4, 3), np.float32))


def test_factor_pair_rejects_nan():
    with pytest.raises(ShapeError):
        FactorPair(a=np.full((1, 2), np.nan, np.float32), b=np.zeros((2, 1), np.float32))


def test_flatten_row_major():
    np.testing.assert_array_equal(flatten(np.array([[1, 2], [3, 4]])), [1, 2, 3, 4])


def test_flatten_zeros():
    assert flatten(np.zeros((3, 2))).tolist() == [0.0] * 6


def test_flatten_index_arithmetic(rng):
    mat = rng.standard_normal((5, 3))
    flat = flatten(mat)
    for i in range(5):
        for j in range(3):
            assert flat[i * 3 + j] == mat[i, j]
    # bijection: reshape recovers the matrix exactly
    np.testing.assert_array_equal(flat.reshape(5, 3), mat)


def test_roundtrip_bit_exact(tmp_path, rng):
    adapter = small_random_adapter("round-trip", rng, rank=3, n_keys=5, width=7)
    path = tmp_path / "a.kmrg"
    write_adapter(adapter, path)
    back = read_adapter(path)
    assert back.task_id == adapter.task_id
    assert back.rank == adapter.rank
    assert back.scale_numerator == adapter.scale_numerator
    assert back.key_set() == adapter.key_set()
    for key in adapter.layers:
        np.testing.assert_array_equal(back.layers[key].a, adapter.layers[key].a)
        np.testing.assert_array_equal(back.layers[key].b, adapter.layers[key].b)


def test_corrupted_magic(tmp_path, rng):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_adapter(path)


def test_truncated_payload_names_tensor(tmp_path, rng):
    adapter = small_random_adapter("x", rng, n_keys=2, width=4)
    path = tmp_path / "a.kmrg"
    write_adapter(adapter, path)
    raw = path.read_bytes()
    # drop the last layer's tensors: header still declares 2 layers
    fp = next(iter(adapter.layers.values()))
    per_layer = 4 * (fp.a.size + fp.b.size)
    path.write_bytes(raw[:-per_layer])
    with pytest.raises(FormatError, match="tensor"):
        read_adapter(path)


def test_negative_dimension_rejected(tmp_path, rng):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng), path)
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack("<4sHI", raw[:10])
    header = json.loads(raw[10 : 10 + header_len])
    header["layers"][0]["d_in"] = -header["layers"][0]["d_in"]
    encoded = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sHI", magic, version, len(encoded)) + encoded + raw[10 + header_len :])
    with pytest.raises(FormatError, match="negative dimension"):
        read_adapter(path)


def test_bad_version(tmp_path, rng):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_adapter(path)


def test_rank_disagreement_rejected():
    with pytest.raises(ShapeError):
        LoraAdapter(
            task_id="t",
            problem_type="p",
            language="l",
            rank=4,
            scale_numerator=8,
            layers={K0: FactorPair(a=np.zeros((2, 3), np.float32), b=np.zeros((3, 2), np.float32))},
        )


def test_delta_map_covers_all_keys(rng):
    adapter = small_random_adapter("t", rng, n_keys=3)
    deltas = delta_map(adapter)
    assert set(deltas) == adapter.key_set()
