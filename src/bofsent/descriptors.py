"""Binary storage for per-segment descriptor matrices (shared by both modalities)."""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import names_file, read_framed, split_body, write_framed

DESCRIPTOR_MAGIC = b"DSC1"
DESCRIPTOR_VERSION = 2
# magic, version, dim, count, extract hash, media SHA-256, id length; then the UTF-8 id and the float32 rows
_HEADER = struct.Struct("<4sIIQ8s32sI")


@dataclass(eq=False)
class DescriptorSet:
    """Variable-length collection of fixed-dimension descriptors for one segment, with where they came from."""

    segment_id: str
    descriptors: np.ndarray  # (count, dim) float32
    extract_hash: str = "0" * 16  # config.extract_hash the rows were extracted under; zeros when unknown
    media_digest: str = "0" * 64  # SHA-256 of the media bytes they were extracted from; zeros when unknown

    def __post_init__(self):
        arr = np.asarray(self.descriptors, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("descriptors must be a 2-D array")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("descriptors must be finite")
        if len(bytes.fromhex(self.extract_hash)) != 8 or len(bytes.fromhex(self.media_digest)) != 32:
            raise ValueError("extract_hash must be 16 hex digits and media_digest 64")
        self.descriptors = arr

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return self.descriptors.shape[0]


def write_descriptors(path: str | Path, dset: DescriptorSet) -> None:
    seg_id = dset.segment_id.encode("utf-8")
    provenance = bytes.fromhex(dset.extract_hash), bytes.fromhex(dset.media_digest)
    fields = DESCRIPTOR_VERSION, dset.dim, len(dset), *provenance, len(seg_id)
    write_framed(path, DESCRIPTOR_MAGIC, _HEADER, fields, seg_id, dset.descriptors.astype("<f4", copy=False))


@names_file
def read_descriptors(path: str | Path) -> DescriptorSet:
    fields, body = read_framed(Path(path).read_bytes(), DESCRIPTOR_MAGIC, _HEADER)
    version, dim, count, extract_hash, media_digest, id_len = fields
    if version != DESCRIPTOR_VERSION:
        raise ValueError(f"unsupported descriptor version {version}")
    if dim == 0:
        raise ValueError("descriptor dimension is 0")
    seg_id, rows = split_body(body, ("u1", (id_len,)), ("<f4", (count, dim)))
    return DescriptorSet(seg_id.tobytes().decode("utf-8"), rows, extract_hash.hex(), media_digest.hex())
