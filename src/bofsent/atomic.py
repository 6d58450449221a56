"""Atomic artifact writes: a file is either absent, its old content or the whole new file."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for binary writing and rename it over ``path`` once the block succeeds.

    If the block raises, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
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
