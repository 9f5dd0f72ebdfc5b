"""The one durable-write recipe: temp file, ``fsync``, ``os.replace``.

Training checkpoints (:mod:`repro.train.checkpoint`) and warm-up pack
manifests (:mod:`repro.serving.warmup`) must appear on disk atomically
and survive a power cut: a reader sees either the previous file or the
complete new one, never a partial write.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence

__all__ = ["atomic_write"]


def atomic_write(path: "str | os.PathLike", chunks: Sequence[bytes],
                 fault: Callable[[], None] | None = None) -> Path:
    """Durably replace ``path`` with the concatenation of ``chunks``
    (written one by one, so a large payload is never copied to prepend
    a header).

    Writes ``<name>.tmp<pid>`` beside ``path``, fsyncs it, runs
    ``fault`` (tests only: a kill there must leave any previous file at
    ``path`` untouched), renames it over ``path`` and fsyncs the
    directory (best-effort: not every platform supports fsync on a
    directory fd).  When any step raises, the temp file is removed and
    the exception propagates; only a hard kill can leave one behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        if fault is not None:
            fault()
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path
