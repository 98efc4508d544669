"""The correctness gate's own reference for ASH sections.

Pads, permutes and XORs with numpy and hashes with hashlib, chunk by chunk,
so it runs on a 256 MiB file in bounded memory. It imports nothing from
the ``ash`` package: a defect there cannot hide behind shared code here.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable

import numpy as np

from common import PARAMS, pad_suffix

_CHUNK_PAIRS = 1 << 14


def sections(read: Callable[[int, int], bytes], size: int, tag: str, pepper: bytes) -> tuple[bytes, bytes]:
    """Static and dynamic sections of the ``size``-byte message that ``read(offset, count)`` returns."""
    name, block, _ = PARAMS[tag]
    half = block // 2
    tail = pad_suffix(size, tag)
    pairs = (size + len(tail)) // block

    def padded(offset: int, count: int) -> bytes:
        head = read(offset, min(count, size - offset)) if offset < size else b""
        start = max(0, offset - size)
        return head + tail[start : start + count - len(head)]

    pep = np.frombuffer(pepper, np.uint8)
    static, dynamic = hashlib.new(name), hashlib.new(name)
    for k in range(0, pairs, _CHUNK_PAIRS):
        m = min(_CHUNK_PAIRS, pairs - k)
        # Output block j is half j followed by half j + pairs of the padded stream.
        first = np.frombuffer(padded(k * half, m * half), np.uint8).reshape(m, half)
        second = np.frombuffer(padded((pairs + k) * half, m * half), np.uint8).reshape(m, half)
        blocks = np.stack((first, second), axis=1).reshape(m, block)
        static.update(blocks)
        dynamic.update(blocks ^ pep)
    return static.digest(), dynamic.digest()


def of_bytes(message: bytes, tag: str, pepper: bytes) -> tuple[bytes, bytes]:
    return sections(lambda o, n: message[o : o + n], len(message), tag, pepper)


def of_file(path: str, tag: str, pepper: bytes) -> tuple[bytes, bytes]:
    fd = os.open(path, os.O_RDONLY)
    try:
        def read(offset: int, count: int) -> bytes:
            parts = []
            while count > 0:
                piece = os.pread(fd, count, offset)
                if not piece:
                    raise OSError(f"{path} ended early at byte {offset}")
                parts.append(piece)
                offset += len(piece)
                count -= len(piece)
            return b"".join(parts)

        return sections(read, os.fstat(fd).st_size, tag, pepper)
    finally:
        os.close(fd)
