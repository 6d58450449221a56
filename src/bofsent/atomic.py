"""Artifact files: atomic writes, and the one container of every binary format.

A written file is either absent, its old content or the whole new file. A binary file is a ``struct``
header led by a 4-byte magic, then a body of little-endian arrays whose shapes the header gives.
"""
from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np


@contextmanager
def atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for binary writing and rename it over ``path`` once the block succeeds.

    The directory is made if missing; if the block raises, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def write_framed(path: str | Path, magic: bytes, header, fields: tuple, *parts: bytes | np.ndarray) -> None:
    """Write ``header.pack(magic, *fields)``, then each part: bytes, or a little-endian array in C order."""
    with atomic_open(path) as fh:
        fh.write(header.pack(magic, *fields))
        for part in parts:
            fh.write(part if isinstance(part, bytes) else part.tobytes())


def read_framed(data: bytes, magic: bytes, header) -> tuple[tuple, memoryview]:
    """The header fields after ``magic``, and the body, of a file's ``data``."""
    if data[: len(magic)] != magic:
        raise ValueError(f"not a {magic.decode()} file")
    if len(data) < header.size:
        raise ValueError(f"{len(data)} bytes, shorter than the {header.size}-byte {magic.decode()} header")
    return header.unpack_from(data)[1:], memoryview(data)[header.size :]


def split_body(body: bytes | memoryview, *layouts: tuple[str, tuple[int, ...]]) -> list[np.ndarray]:
    """Writable arrays of the given ``(dtype, shape)`` layouts, in order; ``ValueError`` unless they fill ``body``."""
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layouts]
    if len(body) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} body bytes, got {len(body)}")
    parts = zip(layouts, sizes, accumulate(sizes, initial=0))
    return [np.frombuffer(body[at : at + size], dtype).reshape(shape).copy() for (dtype, shape), size, at in parts]


def names_file(read):
    """Wrap a reader whose first argument is a file's path, so that every ``ValueError`` it raises names the file."""
    @functools.wraps(read)
    def named(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return named
