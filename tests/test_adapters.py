import struct
import tracemalloc

import numpy as np
import pytest

from kmerge.adapters import (
    FactorPair,
    LayerKey,
    LoraAdapter,
    check_compatible,
    delta_map,
    read_adapter,
    write_adapter,
)
from kmerge.errors import FormatError, IncompatibleAdapters, ShapeError

from conftest import (
    make_adapter, naive_matmul, rewrite_header, small_random_adapter, width_mismatched_pair,
)

K0 = LayerKey(0, "key")


def test_layer_key_is_a_validated_tuple_ordered_by_projection():
    keys = [LayerKey(1, "key"), LayerKey(0, "output"), LayerKey(0, "key"), LayerKey(0, "value")]
    assert sorted(keys) == [LayerKey(0, "key"), LayerKey(0, "value"), LayerKey(0, "output"), LayerKey(1, "key")]
    for x in keys:
        for y in keys:
            # Every comparison follows sort_key, not the tuple's string order.
            assert (x < y, x <= y, x > y, x >= y) == (
                x.sort_key() < y.sort_key(), x.sort_key() <= y.sort_key(),
                x.sort_key() > y.sort_key(), x.sort_key() >= y.sort_key(),
            )
    key = LayerKey(layer=2, proj="query")
    assert (key.layer, key.proj, str(key)) == (2, "query", "2.query")
    assert repr(key) == "LayerKey(layer=2, proj='query')"
    assert key == (2, "query") and hash(key) == hash((2, "query"))
    with pytest.raises(ShapeError, match="layer index must be >= 0, got -1"):
        LayerKey(-1, "key")
    with pytest.raises(ShapeError, match="unknown projection 'gate'"):
        LayerKey(0, "gate")


def test_materialize_hand_expansion():
    adapter = make_adapter("t", {K0: ([[0, 1]], [[1], [0]])}, rank=1, scale_numerator=1)
    np.testing.assert_array_equal(delta_map(adapter)[K0], [[0, 1], [0, 0]])


def test_materialize_zero_b_annihilates():
    a = np.arange(6).reshape(2, 3)
    adapter = make_adapter("t", {K0: (a, np.zeros((4, 2)))}, rank=2, scale_numerator=2)
    np.testing.assert_array_equal(delta_map(adapter)[K0], np.zeros((4, 3)))


def test_materialize_matches_triple_loop(rng):
    adapter = small_random_adapter("t", rng, rank=2, n_keys=1, width=4)
    fp = adapter.layers[K0]
    expected = adapter.scaling * naive_matmul(fp.b, fp.a)
    np.testing.assert_allclose(delta_map(adapter)[K0], expected, rtol=1e-12)


def test_materialize_linear_in_b(rng):
    adapter = small_random_adapter("t", rng, rank=2, n_keys=1, width=4)
    fp = adapter.layers[K0]
    # power-of-two scalar so the float32 store stays exact
    scaled = make_adapter("s", {K0: (fp.a, 4.0 * fp.b)}, rank=2, scale_numerator=adapter.scale_numerator)
    np.testing.assert_allclose(
        delta_map(scaled)[K0], 4.0 * delta_map(adapter)[K0], rtol=1e-12
    )


def test_factor_pair_shape_mismatch():
    with pytest.raises(ShapeError):
        FactorPair(a=np.zeros((2, 3), np.float32), b=np.zeros((4, 3), np.float32))


def test_factor_pair_rejects_nan():
    with pytest.raises(ShapeError):
        FactorPair(a=np.full((1, 2), np.nan, np.float32), b=np.zeros((2, 1), np.float32))


def test_roundtrip_bit_exact(tmp_path, rng):
    adapter = small_random_adapter("round-trip", rng, rank=3, n_keys=5, width=7)
    path = tmp_path / "a.kmrg"
    write_adapter(adapter, path)
    back = read_adapter(path)
    assert back.task_id == adapter.task_id
    assert back.rank == adapter.rank
    assert back.scale_numerator == adapter.scale_numerator
    assert set(back.layers) == set(adapter.layers)
    for key in adapter.layers:
        np.testing.assert_array_equal(back.layers[key].a, adapter.layers[key].a)
        np.testing.assert_array_equal(back.layers[key].b, adapter.layers[key].b)


def test_zero_width_layer_roundtrips(tmp_path):
    adapter = make_adapter("z", {K0: (np.zeros((2, 0)), np.zeros((0, 2)))}, rank=2, scale_numerator=2.0)
    path = tmp_path / "z.kmrg"
    write_adapter(adapter, path)
    assert read_adapter(path).layers[K0].a.shape == (2, 0)


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
    rewrite_header(path, lambda h: h["layers"][0].__setitem__("d_in", -h["layers"][0]["d_in"]))
    with pytest.raises(FormatError, match="negative dimension"):
        read_adapter(path)


def _set_layer(name, value):
    return lambda h: h["layers"][0].__setitem__(name, value)


def _huge_rank_zero_widths(h):
    h["rank"] = 2**62
    for entry in h["layers"]:
        entry.update(d_in=0, d_out=0)


DAMAGED_HEADERS = {
    "no-d_in": (lambda h: h["layers"][0].pop("d_in"), "d_in"),
    "no-language": (lambda h: h.pop("language"), "language"),
    "scalar-layers": (lambda h: h.__setitem__("layers", 5), "layers"),
    "text-scale": (lambda h: h.__setitem__("scale_numerator", "abc"), "scale_numerator"),
    "bool-scale": (lambda h: h.__setitem__("scale_numerator", True), "scale_numerator"),
    "zero-scale": (lambda h: h.__setitem__("scale_numerator", 0.0), "scale_numerator"),
    "nan-scale": (lambda h: h.__setitem__("scale_numerator", float("nan")), "scale_numerator"),
    "inf-scale": (lambda h: h.__setitem__("scale_numerator", float("-inf")), "scale_numerator"),
    "fractional-rank": (lambda h: h.__setitem__("rank", 4.9), "rank"),
    "integral-float-rank": (lambda h: h.__setitem__("rank", float(h["rank"])), "rank"),
    "digit-string-rank": (lambda h: h.__setitem__("rank", str(h["rank"])), "rank"),
    "fractional-layer": (_set_layer("layer", 0.5), "layer"),
    "bool-d_out": (_set_layer("d_out", True), "d_out"),
    "null-proj": (_set_layer("proj", None), "proj"),
    "number-task_id": (lambda h: h.__setitem__("task_id", 5), "task_id"),
    "unknown-proj": (_set_layer("proj", "gate"), "projection"),
    "negative-layer": (_set_layer("layer", -1), "layer index"),
    # Same shapes as the entry it replaces, so the payload still fits.
    "repeated-layer": (lambda h: h["layers"].__setitem__(1, dict(h["layers"][0])),
                       r"layer 0\.key is listed twice"),
    # Declared sizes past the file's end are rejected before any allocation.
    "huge-d_in": (_set_layer("d_in", 2**45), "truncated payload while reading A tensor"),
    "huge-d_out": (_set_layer("d_out", 2**62), "truncated payload while reading B tensor"),
    "huge-rank": (lambda h: h.__setitem__("rank", 2**62), "truncated payload while reading A tensor"),
    # Zero widths pass the size check; numpy cannot allocate that many rows.
    "huge-rank-zero-widths": (_huge_rank_zero_widths,
                              r"A tensor of layer 0\.key is too large: shape \(4611686018427387904, 0\)"),
}


@pytest.mark.parametrize("damage, match", DAMAGED_HEADERS.values(), ids=DAMAGED_HEADERS)
def test_damaged_header_field_rejected(tmp_path, rng, damage, match):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng), path)
    rewrite_header(path, damage)
    with pytest.raises(FormatError, match=match):
        read_adapter(path)


def test_huge_header_length_rejected_before_allocating(tmp_path):
    """A 16-byte file whose header claims 0x7FFFFFF0 bytes raises before
    anything of the claimed size is allocated."""
    path = tmp_path / "a.kmrg"
    path.write_bytes(struct.pack("<4sHI", b"KMRG", 1, 0x7FFFFFF0) + b"{}    ")
    assert path.stat().st_size == 16
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"truncated payload while reading JSON header \(at byte offset 10\)"):
            read_adapter(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_integer_scale_numerator_reads_as_float(tmp_path, rng):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng, scale_numerator=4.0), path)
    rewrite_header(path, lambda h: h.__setitem__("scale_numerator", 4))
    back = read_adapter(path).scale_numerator
    assert type(back) is float and back == 4.0


def test_check_compatible_names_layer_and_both_shapes(rng):
    wide, thin = width_mismatched_pair(rng)
    with pytest.raises(ShapeError, match=r"layer 0\.key .*\(8, 8\).*\(1, 8\)"):
        check_compatible(wide, thin)
    with pytest.raises(IncompatibleAdapters):
        check_compatible(wide, small_random_adapter("other", rng, n_keys=2))
    # Ranks may differ.
    check_compatible(wide, make_adapter("r3", {K0: (np.ones((3, 8)), np.ones((8, 3)))}, 3, 3.0))


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


@pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf")])
def test_scale_numerator_must_be_finite_and_nonzero(scale):
    with pytest.raises(ShapeError, match="scale_numerator"):
        make_adapter("t", {K0: (np.ones((2, 3)), np.ones((3, 2)))}, rank=2, scale_numerator=scale)


def test_delta_map_covers_all_keys(rng):
    adapter = small_random_adapter("t", rng, n_keys=3)
    deltas = delta_map(adapter)
    assert set(deltas) == set(adapter.layers)
