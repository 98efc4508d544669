"""The one digest pipeline, in bounded memory, behind every entry point.

The interleave permutation pairs half-block k with half-block k+N, so the
second half of the padded stream is needed from the very first output
block. Rather than buffering everything, ``_sections`` walks the
first-half region (halves 1..N) and the second-half region (halves
N+1..2N) with two read cursors in lockstep; each pair of runs is zipped,
peppered and fed to the section hashes, so peak memory is a few chunk
buffers whatever the input size. ``digest_stream`` and ``digest_file``
here and ``create``, ``verify`` and ``dynamic_section`` in ``ash.digest``
(and through them the challenge sessions and the CLI) all run through it.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
from typing import BinaryIO, Callable

from . import digest
from .errors import AshError, SizeMismatchError
from .restructure import interleave_runs, pad_suffix
from .seasoning import apply_pepper, generate_pepper
from .variants import AshVariant

DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

# Half-block pairs per chunk; keeps the working set cache-resident.
_CHUNK_HALVES = 8192


class _PaddedView:
    """Random-access reads over file bytes followed by the computed pad suffix."""

    def __init__(self, stream: BinaryIO, size: int, suffix: bytes):
        self._stream = stream
        self._size = size
        self._suffix = suffix

    def read_at(self, offset: int, count: int) -> bytes:
        parts = []
        if offset < self._size:
            take = min(count, self._size - offset)
            self._stream.seek(offset)
            got = 0
            while got < take:
                piece = self._stream.read(take - got)
                if not piece:
                    raise AshError("input shrank while it was being hashed")
                parts.append(piece)
                got += len(piece)
            offset += take
            count -= take
        if count:
            start = offset - self._size
            parts.append(self._suffix[start : start + count])
        return b"".join(parts)


def _sections(
    source: bytes | BinaryIO,
    variant: AshVariant,
    pepper: bytes,
    static: bool = True,
) -> tuple[bytes | None, bytes]:
    """The static and dynamic sections of bytes or a seekable binary stream.

    A stream is hashed from offset 0 whatever its position, and its size
    is taken once at the start. With ``static=False`` the static hash is
    skipped and None stands in for it.
    """
    if len(pepper) != variant.pepper_size:
        raise SizeMismatchError(
            f"pepper is {len(pepper)} bytes, wanted {variant.pepper_size}"
        )
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    size = source.seek(0, os.SEEK_END)
    suffix = pad_suffix(size, variant)
    half = variant.half_size
    pairs = (size + len(suffix)) // variant.block_size
    mid = pairs * half
    view = _PaddedView(source, size, suffix)

    static_hash = variant.base.new() if static else None
    dynamic_hash = variant.base.new()
    for k in range(0, pairs, _CHUNK_HALVES):
        m = min(_CHUNK_HALVES, pairs - k)
        first = view.read_at(k * half, m * half)
        second = view.read_at(mid + k * half, m * half)
        segment = interleave_runs(first, second, half)
        if static_hash is not None:
            static_hash.update(segment)
        dynamic_hash.update(apply_pepper(segment, pepper))
    return (static_hash.digest() if static else None), dynamic_hash.digest()


def digest_stream(
    stream: BinaryIO,
    variant: AshVariant,
    pepper: bytes | None = None,
    rng: Callable[[int], bytes] = os.urandom,
) -> digest.AshDigest:
    """Digest a seekable binary stream with bounded memory.

    Matches ``digest.create`` on the stream's full contents, bit for bit.
    """
    if pepper is None:
        pepper = generate_pepper(variant, rng)
    static, dynamic = _sections(stream, variant, pepper)
    return digest.AshDigest(variant, static, dynamic, pepper)


def digest_file(
    path: str | os.PathLike,
    variant: AshVariant,
    pepper: bytes | None = None,
    rng: Callable[[int], bytes] = os.urandom,
) -> digest.AshDigest:
    with open(path, "rb") as stream:
        return digest_stream(stream, variant, pepper, rng)


def spool_to_seekable(source: BinaryIO, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> BinaryIO:
    """Buffer a non-seekable stream (a pipe, usually) into something seekable.

    Stays in memory up to ``memory_budget`` bytes, then spills to a
    temporary file; the permutation needs random access, so streaming
    straight through is not an option.
    """
    spool = tempfile.SpooledTemporaryFile(max_size=memory_budget)
    shutil.copyfileobj(source, spool, length=1024 * 1024)
    spool.seek(0)
    return spool
