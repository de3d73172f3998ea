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
from typing import BinaryIO, Callable, Collection

import numpy as np

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
    """Low-rank factors for one layer: ``a`` is r x d_in, ``b`` is d_out x r."""

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

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def d_in(self) -> int:
        return self.a.shape[1]

    @property
    def d_out(self) -> int:
        return self.b.shape[0]


@dataclass
class LoraAdapter:
    """A task-tagged collection of per-layer factor pairs.

    ``scale_numerator`` is the LoRA scaling numerator, finite and nonzero;
    the update applied for a layer is ``(scale_numerator / rank) * b @ a``.
    """

    task_id: str
    problem_type: str
    language: str
    rank: int
    scale_numerator: float
    layers: dict[LayerKey, FactorPair] = field(default_factory=dict)

    def __post_init__(self):
        if self.scale_numerator == 0 or not np.isfinite(self.scale_numerator):
            raise ShapeError(f"scale_numerator must be finite and nonzero: {self.scale_numerator}")
        if self.rank < 1:
            raise ShapeError(f"rank must be >= 1, got {self.rank}")
        if not self.layers:
            raise ShapeError("adapter must have at least one layer")
        for key, fp in self.layers.items():
            if fp.rank != self.rank:
                raise ShapeError(
                    f"layer {key} has rank {fp.rank}, adapter declares {self.rank}"
                )

    @property
    def scaling(self) -> float:
        return self.scale_numerator / self.rank

    def sorted_keys(self) -> list[LayerKey]:
        return sorted(self.layers, key=LayerKey.sort_key)


def check_compatible(x: LoraAdapter, y: LoraAdapter) -> None:
    """Check that ``x`` and ``y`` can meet in a similarity or a merge: they
    adapt the same layers (else :class:`IncompatibleAdapters`) at the same
    ``(d_out, d_in)`` (else :class:`ShapeError`). Ranks may differ."""
    if x.layers.keys() != y.layers.keys():
        raise IncompatibleAdapters(
            f"adapters {x.task_id!r} and {y.task_id!r} have different layer key-sets"
        )
    for key, fx in x.layers.items():
        fy = y.layers[key]
        if (fx.d_out, fx.d_in) != (fy.d_out, fy.d_in):
            raise ShapeError(
                f"layer {key} shapes disagree: {(fx.d_out, fx.d_in)} in {x.task_id!r} "
                f"vs {(fy.d_out, fy.d_in)} in {y.task_id!r}"
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
# A file is parsed from one buffer (``parse_adapter``): each factor is a
# float32 view of it at its offset. A tensor's offset need not be a multiple
# of 4, as the header's length is free; every computation copies factors
# into float64 arrays first, so alignment never changes a result.
# --------------------------------------------------------------------------

_HEAD = struct.Struct("<4sHI")


def _header_dict(adapter: LoraAdapter) -> dict:
    layers = []
    for key in adapter.sorted_keys():
        fp = adapter.layers[key]
        layers.append(
            {"layer": key.layer, "proj": key.proj, "d_in": fp.d_in, "d_out": fp.d_out}
        )
    return {
        "task_id": adapter.task_id,
        "problem_type": adapter.problem_type,
        "language": adapter.language,
        "rank": adapter.rank,
        "scale_numerator": adapter.scale_numerator,
        "layers": layers,
    }


def replace_file(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` by a file that ``write`` fills: it is written beside
    ``path`` and renamed over it; if either step fails, the partial file is
    removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def delete_stale(directory: Path, prefix: str, keep: Collection[str]) -> None:
    """Delete each ``<prefix>_<digits>.kmrg`` in ``directory`` not named in ``keep``."""
    for path in directory.glob(f"{prefix}_*.kmrg"):
        if path.name not in keep and path.stem[len(prefix) + 1:].isdigit():
            path.unlink()


def write_adapter(adapter: LoraAdapter, path: str | Path) -> None:
    """Serialize an adapter to ``path`` through :func:`replace_file`;
    round-trips bit-exactly."""
    header = json.dumps(_header_dict(adapter)).encode("utf-8")

    def write(fh):
        fh.write(_HEAD.pack(FORMAT_MAGIC, FORMAT_VERSION, len(header)))
        fh.write(header)
        for key in adapter.sorted_keys():
            fp = adapter.layers[key]
            fh.write(np.ascontiguousarray(fp.a, dtype="<f4"))
            fh.write(np.ascontiguousarray(fp.b, dtype="<f4"))

    replace_file(path, write)


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
    layers: dict[LayerKey, FactorPair] = {}
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
        try:
            layers[key] = FactorPair(a=a, b=b)
        except ShapeError as exc:
            raise FormatError(f"invalid tensors for layer {key}: {exc}") from None
    if offset < len(buffer):
        raise FormatError("trailing bytes after declared payload", offset)
    try:
        return LoraAdapter(rank=rank, scale_numerator=scale_numerator, layers=layers, **text)
    except ShapeError as exc:
        raise bad_header(f"invalid header: {exc}") from None


def read_adapter(path: str | Path) -> LoraAdapter:
    """Read the ``.kmrg`` file at ``path`` into one buffer and parse it with
    :func:`parse_adapter`; every factor is a view of that buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buffer = bytearray(size)
        read = fh.readinto(buffer)
    if read != size:
        raise FormatError(f"read {read} of the file's {size} bytes; it changed while being read")
    return parse_adapter(buffer)
