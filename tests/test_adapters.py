import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from kmerge.adapters import (
    PROJECTIONS,
    FactorPair,
    LayerKey,
    LoraAdapter,
    check_compatible,
    delta_map,
    parse_adapter,
    read_adapter,
    write_adapter,
)
from kmerge.bench import GeneratorConfig, generate_suite
from kmerge.errors import FormatError, IncompatibleAdapters, ShapeError
from kmerge.lowrank import FOLD_BATCH_BYTES

from conftest import (
    RecordedWrites, assert_same_adapter, make_adapter, naive_matmul, per_tensor_write_adapter,
    poison_tensor, rewrite_header, small_random_adapter, width_mismatched_pair,
    zero_width_adapter,
)

IOV_MAX = os.sysconf("SC_IOV_MAX")

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
    with pytest.raises(ShapeError, match="factor matrices must be finite"):
        FactorPair(a=np.full((1, 2), np.nan, np.float32), b=np.zeros((2, 1), np.float32))
    with pytest.raises(ShapeError, match="factor matrices must be finite"):
        FactorPair(a=np.zeros((1, 2), np.float32), b=np.full((2, 1), np.inf, np.float32))


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


def _repeated_after_truncated(h):
    h["layers"][1]["d_in"] = 2**45
    h["layers"].append(dict(h["layers"][0]))


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
    # JSON ``true`` is no integer, in the first entry or the last.
    "true-layer": (_set_layer("layer", True), "layer"),
    "true-last-d_in": (lambda h: h["layers"][-1].__setitem__("d_in", True), "d_in"),
    # The first fault in entry order is named, not the duplicate after it.
    "repeated-layer-after-truncated": (_repeated_after_truncated,
                                       r"truncated payload while reading A tensor of layer 0\.query"),
}


@pytest.mark.parametrize("damage, match", DAMAGED_HEADERS.values(), ids=DAMAGED_HEADERS)
def test_damaged_header_field_rejected(tmp_path, rng, damage, match):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng), path)
    rewrite_header(path, damage)
    with pytest.raises(FormatError, match=match):
        read_adapter(path)


def _parse_case(name, rng, path):
    """A valid adapter of kind ``name`` and the bytes of its ``.kmrg`` file,
    written at ``path``."""
    if name == "default-grid":
        adapter = generate_suite(GeneratorConfig())[0][0]
    elif name == "zero-width":
        adapter = zero_width_adapter("zero-width", rng)
    else:
        adapter = small_random_adapter("x", rng, rank=3, n_keys=5, width=7)
    write_adapter(adapter, path)
    raw = path.read_bytes()
    if name == "unaligned":
        # Pad the header so that the payload starts 1 byte past a multiple of 4.
        header_len = struct.unpack_from("<I", raw, 6)[0]
        pad = (1 - 10 - header_len) % 4
        head = struct.pack("<4sHI", b"KMRG", 1, header_len + pad)
        raw = head + raw[10 : 10 + header_len] + b" " * pad + raw[10 + header_len :]
    return adapter, raw


@pytest.mark.parametrize("case", ["default-grid", "zero-width", "unaligned"])
def test_parse_round_trips(tmp_path, rng, case):
    """``parse_adapter`` gives back the written adapter from a read-only
    buffer and from a writeable one, whatever the payload's alignment; each
    factor is a view of the buffer, writeable only when the buffer is."""
    adapter, raw = _parse_case(case, rng, tmp_path / "a.kmrg")
    for buffer in (raw, bytearray(raw)):
        back = parse_adapter(buffer)
        assert_same_adapter(back, adapter)
        writeable = {f.flags.writeable for fp in back.layers.values() for f in (fp.a, fp.b)}
        assert writeable == {isinstance(buffer, bytearray)}


def _writer_case(name, rng):
    if name == "zero-width":
        return zero_width_adapter("zero-width", rng)
    if name == "non-contiguous":
        a = rng.standard_normal((3, 10)).astype(np.float32)[:, ::2]
        b = np.asfortranarray(rng.standard_normal((6, 3)).astype(np.float32))
        adapter = make_adapter("strided", {K0: (a, b)}, 3, 3.0)
        assert not (adapter.layers[K0].a.flags.c_contiguous or adapter.layers[K0].b.flags.c_contiguous)
        return adapter
    # More buffers than one call takes: two header parts and two tensors a layer.
    keys = [LayerKey(i // len(PROJECTIONS), PROJECTIONS[i % len(PROJECTIONS)]) for i in range(IOV_MAX // 2 + 1)]
    layers = {key: (rng.standard_normal((1, 2)), rng.standard_normal((3, 1))) for key in keys}
    return make_adapter("many", layers, 1, 1.0)


@pytest.mark.parametrize("limit", [None, 7], ids=["whole-writes", "7-byte-writes"])
@pytest.mark.parametrize("case", ["zero-width", "non-contiguous", "over-iov-max"])
def test_vectored_write_matches_per_tensor_writer(tmp_path, rng, monkeypatch, case, limit):
    """``write_adapter`` writes the per-tensor writer's bytes, whether
    ``os.writev`` takes every byte or at most 7 a call. Every byte goes
    through ``os.writev``, no call takes more than IOV_MAX buffers, and when
    each call takes every byte a file of ``n`` non-empty buffers takes
    ``ceil(n / IOV_MAX)`` calls."""
    adapter = _writer_case(case, rng)
    per_tensor_write_adapter(adapter, tmp_path / "want.kmrg")
    writes = RecordedWrites(os.writev, limit)
    monkeypatch.setattr(os, "writev", writes)
    write_adapter(adapter, tmp_path / "got.kmrg")
    want = (tmp_path / "want.kmrg").read_bytes()
    assert (tmp_path / "got.kmrg").read_bytes() == want
    calls = writes.per_file(tmp_path / "got.kmrg")
    assert sum(written for _, written in calls) == len(want)
    assert max(count for count, _ in calls) <= IOV_MAX
    if limit is None:
        tensors = sum(t.size > 0 for fp in adapter.layers.values() for t in (fp.a, fp.b))
        assert len(calls) == math.ceil((2 + tensors) / IOV_MAX)
    if case == "over-iov-max":
        assert len(calls) > 1


@pytest.mark.parametrize("iov_max", [0, -1])
def test_write_refuses_a_non_positive_iov_max(tmp_path, rng, monkeypatch, iov_max):
    """Where ``sysconf`` reports no IOV_MAX (-1) or 0, the writer raises
    ``OSError`` before any ``os.writev`` call, and leaves neither the file
    nor a temporary one."""
    monkeypatch.setattr(os, "sysconf", lambda name: iov_max)
    writes = RecordedWrites(os.writev)
    monkeypatch.setattr(os, "writev", writes)
    with pytest.raises(OSError, match="SC_IOV_MAX"):
        write_adapter(small_random_adapter("x", rng), tmp_path / "a.kmrg")
    assert writes.calls == [] and list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("tensor", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_non_finite_tensor_names_its_layer(tmp_path, rng, index, tensor, value):
    """The payload is checked finite once per chunk, and a bad chunk's
    layers are walked to name the first bad layer; the message names the
    file. Here the first bad layer is ``index`` and the last layer is bad
    too."""
    adapter = small_random_adapter("x", rng, rank=3, n_keys=5, width=7)
    path = tmp_path / "a.kmrg"
    write_adapter(adapter, path)
    poison_tensor(path, 4, "A", np.nan)
    poison_tensor(path, index, tensor, value)
    key = adapter.sorted_keys()[index]
    with pytest.raises(FormatError) as exc:
        read_adapter(path)
    assert str(exc.value) == f"{path}: invalid tensors for layer {key}: factor matrices must be finite"


def test_payload_check_allocates_a_bounded_chunk(tmp_path):
    """The finite check of a width-2048 rank-32 file of 32 layers (16 MiB of
    factors) allocates at most ``FOLD_BATCH_BYTES`` at a time, where one
    check of the whole payload would allocate a 4 MiB mask."""
    a, b = np.zeros((32, 2048), np.float32), np.zeros((2048, 32), np.float32)
    layers = {LayerKey(i // 4, PROJECTIONS[i % 4]): (a, b) for i in range(32)}
    path = tmp_path / "wide.kmrg"
    write_adapter(make_adapter("wide", layers, 32, 32.0), path)
    buffer = path.read_bytes()
    tracemalloc.start()
    try:
        adapter = parse_adapter(buffer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(adapter.layers) == 32
    assert peak < 2 * FOLD_BATCH_BYTES


def test_integer_scale_numerator_reads_as_float(tmp_path, rng):
    path = tmp_path / "a.kmrg"
    write_adapter(small_random_adapter("x", rng, scale_numerator=4.0), path)
    rewrite_header(path, lambda h: h.__setitem__("scale_numerator", 4))
    back = read_adapter(path).scale_numerator
    assert type(back) is float and back == 4.0


def _shaped(name, shapes, rank=2):
    """An adapter of rank ``rank`` with layer ``key`` of shape ``(d_out,
    d_in)`` for each item of ``shapes``, in that order."""
    layers = {key: (np.ones((rank, d_in)), np.ones((d_out, rank))) for key, (d_out, d_in) in shapes}
    return make_adapter(name, layers, rank, 2.0)


K1, K2 = LayerKey(0, "value"), LayerKey(1, "key")


def test_check_compatible_keeps_its_errors_and_messages():
    """The errors and messages of the per-layer walk: a key-set mismatch is
    :class:`IncompatibleAdapters`; a shape mismatch is :class:`ShapeError`
    naming the first differing layer in the first adapter's order."""
    x = _shaped("x", [(K2, (4, 4)), (K1, (3, 5)), (K0, (6, 6))])
    other_keys = _shaped("y", [(K2, (4, 4)), (LayerKey(0, "query"), (3, 5)), (K0, (6, 6))])
    with pytest.raises(IncompatibleAdapters) as keys:
        check_compatible(x, other_keys)
    assert str(keys.value) == "adapters 'x' and 'y' have different layer key-sets"
    with pytest.raises(IncompatibleAdapters):
        check_compatible(x, _shaped("y", [(K2, (4, 4)), (K1, (3, 5))]))
    two_differ = _shaped("y", [(K0, (6, 7)), (K2, (4, 4)), (K1, (5, 3))])
    with pytest.raises(ShapeError) as shapes:
        check_compatible(x, two_differ)
    assert str(shapes.value) == "layer 0.value shapes disagree: (3, 5) in 'x' vs (5, 3) in 'y'"
    with pytest.raises(ShapeError) as reverse:
        check_compatible(two_differ, x)
    assert str(reverse.value) == "layer 0.key shapes disagree: (6, 7) in 'y' vs (6, 6) in 'x'"


def test_geometry_ignores_rank_and_key_order():
    x = _shaped("x", [(K2, (4, 4)), (K1, (3, 5)), (K0, (6, 6))])
    reordered = _shaped("reordered", [(K0, (6, 6)), (K2, (4, 4)), (K1, (3, 5))], rank=3)
    assert x.geometry == reordered.geometry
    assert dict(x.geometry) == {K2: (4, 4), K1: (3, 5), K0: (6, 6)}
    assert list(x.geometry) == list(x.layers) == [K2, K1, K0]
    check_compatible(x, reordered)
    check_compatible(reordered, x)


def test_adapter_is_immutable():
    """``layers`` and ``geometry`` are read-only, and neither follows the
    dict the adapter was built from, so the geometry cannot go stale."""
    layers = {K0: FactorPair(a=np.ones((2, 3)), b=np.ones((4, 2)))}
    adapter = LoraAdapter("t", "p", "l", 2, 2.0, layers)
    wide = FactorPair(a=np.ones((2, 5)), b=np.ones((4, 2)))
    with pytest.raises(TypeError):
        adapter.layers[K0] = wide
    with pytest.raises(TypeError):
        adapter.layers[K1] = wide
    with pytest.raises(TypeError):
        adapter.geometry[K0] = (4, 5)
    with pytest.raises(AttributeError):
        adapter.layers = {K0: wide}
    with pytest.raises(AttributeError):
        adapter.geometry = {K0: (4, 5)}
    layers[K0] = wide
    assert adapter.layers[K0] is not wide and dict(adapter.geometry) == {K0: (4, 3)}


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
