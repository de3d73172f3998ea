"""Adapter data model: per-layer low-rank factors, the one compatibility
rule for a pair of adapters, dense-update materialization, and the on-disk
``.kmrg`` format.

Stored tensors are float32; all arithmetic on materialized updates is
done in float64.
"""

from __future__ import annotations

import json
import os
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

from . import lowrank
from .errors import FormatError, IncompatibleAdapters, ShapeError
from .jsonfields import json_field

PROJECTIONS = ("key", "query", "value", "output")
_PROJ_ORDER = {p: i for i, p in enumerate(PROJECTIONS)}

FORMAT_MAGIC = b"KMRG"
FORMAT_VERSION = 1


class LayerKey(namedtuple("LayerKey", ["layer", "proj"])):
    """Identifies one adapted projection matrix inside the model.

    A tuple, so it hashes and compares for equality in C: a key equals the
    plain tuple ``(layer, proj)``. Ordering is by ``sort_key``, projections
    in ``PROJECTIONS`` order.
    """

    __slots__ = ()

    def __new__(cls, layer: int, proj: str) -> "LayerKey":
        if layer < 0:
            raise ShapeError(f"layer index must be >= 0, got {layer}")
        if proj not in _PROJ_ORDER:
            raise ShapeError(f"unknown projection {proj!r}; expected one of {PROJECTIONS}")
        return super().__new__(cls, layer, proj)

    def sort_key(self) -> tuple[int, int]:
        return (self.layer, _PROJ_ORDER[self.proj])

    def __lt__(self, other: "LayerKey") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "LayerKey") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "LayerKey") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "LayerKey") -> bool:
        return self.sort_key() >= other.sort_key()

    def __str__(self) -> str:
        return f"{self.layer}.{self.proj}"


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factors for one layer: ``a`` is r x d_in, ``b`` is d_out x r.

    The constructor converts both to float32 and checks them. Pairs built
    from arrays that hold many factors, a stack (:func:`factor_pairs`) or a
    ``.kmrg`` payload (:func:`parse_adapter`), get the same checks once per
    array instead of once per pair."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float32)
        b = np.asarray(self.b, dtype=np.float32)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("factor matrices must be 2-dimensional")
        if a.shape[0] != b.shape[1]:
            raise ShapeError(
                f"inner dimensions disagree: a is {a.shape}, b is {b.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ShapeError("factor matrices must be finite")


def _checked_pair(a: np.ndarray, b: np.ndarray) -> FactorPair:
    """The pair of float32 2-D factors ``a`` and ``b``, of one inner
    dimension, whose finiteness the caller has checked in an array that
    holds them; :class:`FactorPair` without repeating that check."""
    pair = object.__new__(FactorPair)
    object.__setattr__(pair, "a", a)
    object.__setattr__(pair, "b", b)
    return pair


def factor_pairs(a: np.ndarray, b: np.ndarray) -> list[FactorPair]:
    """One :class:`FactorPair` per slice of the float32 stacks ``a`` (n x r x
    d_in) and ``b`` (n x d_out x r), each a view of its slices. Checked as
    the constructor checks one pair, once per stack: a non-finite entry
    anywhere raises its :class:`ShapeError`."""
    if a.dtype != np.float32 or b.dtype != np.float32 or a.ndim != 3 or b.ndim != 3:
        raise ShapeError("factor stacks must be 3-dimensional float32 arrays")
    if len(a) != len(b) or a.shape[1] != b.shape[2]:
        raise ShapeError(f"factor stacks disagree: a is {a.shape}, b is {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ShapeError("factor matrices must be finite")
    return [_checked_pair(fa, fb) for fa, fb in zip(a, b)]


@dataclass(frozen=True)
class LoraAdapter:
    """A task-tagged collection of per-layer factor pairs.

    ``scale_numerator`` is the LoRA scaling numerator, finite and nonzero;
    the update applied for a layer is ``(scale_numerator / rank) * b @ a``.

    An adapter is immutable: ``layers`` is a read-only mapping over a copy of
    the one passed in. ``geometry``, computed once at construction, maps
    each key, in ``layers`` order, to its ``(d_out, d_in)``; two adapters can
    meet when their geometries are equal (:func:`check_compatible`), and
    every stacked pass over an adapter's layers takes its shapes from it.
    """

    task_id: str
    problem_type: str
    language: str
    rank: int
    scale_numerator: float
    layers: Mapping[LayerKey, FactorPair] = field(default_factory=dict)
    geometry: Mapping[LayerKey, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scale_numerator == 0 or not np.isfinite(self.scale_numerator):
            raise ShapeError(f"scale_numerator must be finite and nonzero: {self.scale_numerator}")
        if self.rank < 1:
            raise ShapeError(f"rank must be >= 1, got {self.rank}")
        if not self.layers:
            raise ShapeError("adapter must have at least one layer")
        layers = dict(self.layers)
        geometry = {}
        for key, fp in layers.items():
            rank, d_in = fp.a.shape
            if rank != self.rank:
                raise ShapeError(f"layer {key} has rank {rank}, adapter declares {self.rank}")
            geometry[key] = (fp.b.shape[0], d_in)
        object.__setattr__(self, "layers", MappingProxyType(layers))
        object.__setattr__(self, "geometry", MappingProxyType(geometry))

    @property
    def scaling(self) -> float:
        return self.scale_numerator / self.rank

    def sorted_keys(self) -> list[LayerKey]:
        return sorted(self.layers, key=LayerKey.sort_key)


def check_compatible(x: LoraAdapter, y: LoraAdapter) -> None:
    """Check that ``x`` and ``y`` can meet in a similarity or a merge: they
    adapt the same layers (else :class:`IncompatibleAdapters`) at the same
    ``(d_out, d_in)`` (else :class:`ShapeError`, naming the first such layer
    in ``x``'s order). Ranks may differ. One comparison of the two
    geometries decides; the layers are walked only to name a difference."""
    if x.geometry == y.geometry:
        return
    if x.layers.keys() != y.layers.keys():
        raise IncompatibleAdapters(
            f"adapters {x.task_id!r} and {y.task_id!r} have different layer key-sets"
        )
    for key, shape in x.geometry.items():
        if shape != y.geometry[key]:
            raise ShapeError(
                f"layer {key} shapes disagree: {shape} in {x.task_id!r} "
                f"vs {y.geometry[key]} in {y.task_id!r}"
            )


def delta_map(adapter: LoraAdapter) -> dict[LayerKey, np.ndarray]:
    """Every layer's dense update, ``scaling * b @ a`` in float64."""
    return {
        key: adapter.scaling * (fp.b.astype(np.float64) @ fp.a.astype(np.float64))
        for key, fp in adapter.layers.items()
    }


# --------------------------------------------------------------------------
# Binary file format
#
# magic "KMRG" | version u16 | header_len u32 | UTF-8 JSON header |
# per header layer entry, in (layer, proj) order: A then B, float32
# row-major, little-endian, no padding.
#
# A file is written in one vectored write (``replace_file``): the header and
# every tensor go to ``os.writev`` as they are, at most IOV_MAX buffers a
# call. Linux keeps a file written in large calls in large page-cache folios,
# and ``restore`` maps it with 2 MiB page-table entries (``FilePmdMapped`` in
# smaps): populating a 32 MiB mapping of it took 0.08 ms, against 0.85 ms for
# the file written one 256 KiB tensor per ``write`` (kernel 6.18, ext4).
# Those 2 MiB folios come from free 2 MiB blocks. In a virtual machine whose
# host takes such blocks back (virtio-balloon free page reporting), the host
# must back them again, so a persist soon after a large free, such as the
# first after an ingest, writes more slowly than one tensor per call would.
#
# A file is parsed from one buffer (``parse_adapter``): each factor is a
# float32 view of it at its offset. A tensor's offset need not be a multiple
# of 4, as the header's length is free; every computation copies factors
# into float64 arrays first, so alignment never changes a result. The
# payload is checked finite in chunks of at most
# ``kmerge.lowrank.FOLD_BATCH_BYTES``, not once per tensor.
# --------------------------------------------------------------------------

_HEAD = struct.Struct("<4sHI")
_HEADER_FIELDS = ("task_id", "problem_type", "language", "rank", "scale_numerator")


def _header_dict(fields: Mapping, geometry: Mapping[LayerKey, tuple[int, int]]) -> dict:
    """The JSON header of a ``.kmrg`` file: the ``_HEADER_FIELDS`` of
    ``fields``, then one entry per layer of ``geometry`` (each key's
    ``(d_out, d_in)``) in sorted order."""
    layers = [{"layer": key.layer, "proj": key.proj, "d_in": geometry[key][1], "d_out": geometry[key][0]}
              for key in sorted(geometry, key=LayerKey.sort_key)]
    return {**{name: fields[name] for name in _HEADER_FIELDS}, "layers": layers}


def replace_file(path: str | Path, buffers: Iterable) -> None:
    """Replace ``path`` by a file holding ``buffers`` (C-contiguous bytes-like
    objects) back to back, written by :func:`_write_all`: it is written
    beside ``path`` and renamed over it; if either step fails, the partial
    file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb", buffering=0) as fh:
            _write_all(fh.fileno(), buffers)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_all(fd: int, buffers: Iterable) -> None:
    """Write ``buffers`` to the file descriptor ``fd`` back to back, in
    ``os.writev`` calls of at most IOV_MAX buffers each and without copying
    any; a short write resumes where it stopped. POSIX only."""
    iov_max = os.sysconf("SC_IOV_MAX")
    if iov_max < 1:
        raise OSError(f"SC_IOV_MAX is {iov_max}; os.writev calls cannot be sized")
    views = [view.cast("B") for view in map(memoryview, buffers) if view.nbytes]
    first = 0
    while first < len(views):
        written = os.writev(fd, views[first:first + iov_max])
        while written and written >= views[first].nbytes:
            written -= views[first].nbytes
            first += 1
        if written:
            views[first] = views[first][written:]


def delete_stale(directory: Path, prefix: str, keep: Collection[str]) -> None:
    """Delete each ``<prefix>_<digits>.kmrg`` in ``directory`` not named in ``keep``."""
    for path in directory.glob(f"{prefix}_*.kmrg"):
        if path.name not in keep and path.stem[len(prefix) + 1:].isdigit():
            path.unlink()


def write_adapter(adapter: LoraAdapter, path: str | Path) -> None:
    """Serialize an adapter to ``path`` through :func:`replace_file`, the
    header and every tensor in one vectored write; round-trips bit-exactly."""
    header = json.dumps(_header_dict(vars(adapter), adapter.geometry)).encode("utf-8")
    tensors = [
        np.ascontiguousarray(factor, dtype="<f4")
        for key in adapter.sorted_keys()
        for factor in (adapter.layers[key].a, adapter.layers[key].b)
    ]
    replace_file(path, [_HEAD.pack(FORMAT_MAGIC, FORMAT_VERSION, len(header)), header, *tensors])


def _tensor(buffer, offset: int, shape: tuple[int, int], name: str, key: LayerKey) -> np.ndarray:
    """Tensor ``name`` of layer ``key``: a float32 view of ``buffer`` at
    ``offset``, with no copy. A tensor that would not fit in the rest of
    ``buffer`` is rejected before any array is made for it."""
    if min(shape) < 0:
        raise FormatError(f"negative dimension in {name} tensor of layer {key}: {shape}", offset)
    count = shape[0] * shape[1]
    if 4 * count > len(buffer) - offset:
        raise FormatError(f"truncated payload while reading {name} tensor of layer {key}", offset)
    try:
        return np.frombuffer(buffer, "<f4", count, offset).reshape(shape)
    except ValueError:  # numpy's size limit, reachable when the other dimension is 0
        raise FormatError(f"{name} tensor of layer {key} is too large: shape {shape}", offset) from None


def parse_adapter(buffer) -> LoraAdapter:
    """Parse the ``.kmrg`` bytes in ``buffer`` (``bytes``, ``bytearray`` or
    ``mmap``), validating magic, version, header fields and payload size.
    Every factor is a float32 view of ``buffer``, so the adapter keeps it
    alive; a read-only buffer gives read-only factors."""
    if len(buffer) < _HEAD.size:
        raise FormatError("truncated payload while reading file header", 0)
    magic, version, header_len = _HEAD.unpack_from(buffer)
    if magic != FORMAT_MAGIC:
        raise FormatError(f"bad magic bytes {magic!r}", 0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", 4)
    # Checked before slicing, so a damaged length cannot allocate anything.
    offset = _HEAD.size + header_len
    if offset > len(buffer):
        raise FormatError("truncated payload while reading JSON header", _HEAD.size)
    try:
        header = json.loads(buffer[_HEAD.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unparseable JSON header: {exc}", _HEAD.size) from None
    bad_header = partial(FormatError, offset=_HEAD.size)
    text = {
        name: json_field(header, name, bad_header, str)
        for name in ("task_id", "problem_type", "language")
    }
    rank = json_field(header, "rank", bad_header, int)
    scale_numerator = float(json_field(header, "scale_numerator", bad_header, float))
    payload = offset
    layers: dict[LayerKey, tuple[np.ndarray, np.ndarray]] = {}
    for entry in json_field(header, "layers", bad_header, list):
        layer = json_field(entry, "layer", bad_header, int)
        proj = json_field(entry, "proj", bad_header, str)
        d_in = json_field(entry, "d_in", bad_header, int)
        d_out = json_field(entry, "d_out", bad_header, int)
        try:
            key = LayerKey(layer, proj)
        except ShapeError as exc:
            raise bad_header(f"invalid layer entry: {exc}") from None
        if key in layers:
            raise bad_header(f"layer {key} is listed twice")
        a = _tensor(buffer, offset, (rank, d_in), "A", key)
        offset += a.nbytes
        b = _tensor(buffer, offset, (d_out, rank), "B", key)
        offset += b.nbytes
        layers[key] = a, b
    if not _finite(buffer, payload, offset):
        # Only a damaged file walks its layers, to name the first bad one.
        for key, (a, b) in layers.items():
            try:
                FactorPair(a=a, b=b)
            except ShapeError as exc:
                raise FormatError(f"invalid tensors for layer {key}: {exc}") from None
    if offset < len(buffer):
        raise FormatError("trailing bytes after declared payload", offset)
    pairs = {key: _checked_pair(a, b) for key, (a, b) in layers.items()}
    try:
        return LoraAdapter(rank=rank, scale_numerator=scale_numerator, layers=pairs, **text)
    except ShapeError as exc:
        raise bad_header(f"invalid header: {exc}") from None


def _finite(buffer, start: int, end: int) -> bool:
    """Whether the float32 values in ``buffer[start:end]`` are all finite,
    checked a chunk of at most ``FOLD_BATCH_BYTES`` at a time, so the check
    allocates at most that much at any width."""
    step = max(1, lowrank.FOLD_BATCH_BYTES // 4)
    count = (end - start) // 4
    return all(
        np.isfinite(np.frombuffer(buffer, "<f4", min(step, count - first), start + 4 * first)).all()
        for first in range(0, count, step)
    )


def read_adapter(path: str | Path) -> LoraAdapter:
    """Read the ``.kmrg`` file at ``path`` into one buffer and parse it with
    :func:`parse_adapter`; every factor is a view of that buffer. A
    :class:`FormatError` names ``path``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buffer = bytearray(size)
        read = fh.readinto(buffer)
    if read != size:
        raise FormatError(f"{path}: read {read} of the file's {size} bytes; it changed while being read")
    try:
        return parse_adapter(buffer)
    except FormatError as exc:
        raise exc.in_file(path) from None
