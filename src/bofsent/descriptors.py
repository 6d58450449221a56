"""Binary storage for per-segment descriptor matrices (shared by both modalities)."""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open

DESCRIPTOR_MAGIC = b"DSC1"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")


@dataclass(eq=False)
class DescriptorSet:
    """Variable-length collection of fixed-dimension descriptors for one segment."""

    segment_id: str
    descriptors: np.ndarray  # (count, dim) float32

    def __post_init__(self):
        arr = np.asarray(self.descriptors, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("descriptors must be a 2-D array")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("descriptors must be finite")
        self.descriptors = arr

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return self.descriptors.shape[0]


def _write_payload(fh, dset: DescriptorSet) -> None:
    seg_id = dset.segment_id.encode("utf-8")
    fh.write(_HEADER.pack(DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, dset.dim, len(dset)))
    fh.write(struct.pack("<I", len(seg_id)))
    fh.write(seg_id)
    fh.write(np.ascontiguousarray(dset.descriptors, dtype="<f4").tobytes())


def write_descriptors(path: str | Path, dset: DescriptorSet) -> None:
    """Write atomically: ``path`` is either absent, its old content or the whole new file."""
    with atomic_open(path) as fh:
        _write_payload(fh, dset)


def read_descriptors(path: str | Path) -> DescriptorSet:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != DESCRIPTOR_MAGIC:
        raise ValueError(f"{path}: not a descriptor file")
    _, version, dim, count = _HEADER.unpack_from(data)
    if version != DESCRIPTOR_VERSION:
        raise ValueError(f"{path}: unsupported descriptor version {version}")
    if dim == 0:
        raise ValueError(f"{path}: descriptor dimension is 0")
    offset = _HEADER.size + 4
    if len(data) < offset:
        raise ValueError(f"{path}: truncated descriptor header")
    (id_len,) = struct.unpack_from("<I", data, _HEADER.size)
    expected = offset + id_len + 4 * count * dim
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(data)}")
    seg_id = data[offset : offset + id_len].decode("utf-8")
    arr = np.frombuffer(data[offset + id_len :], dtype="<f4").reshape(count, dim).copy()
    return DescriptorSet(segment_id=seg_id, descriptors=arr)
