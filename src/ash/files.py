"""The one digest pipeline, in bounded memory, behind every entry point.

The interleave permutation pairs half-block k with half-block k+N, so the
second half of the padded stream is needed from the very first output
block. Rather than buffering everything, ``_sections`` sizes the input
once, builds the pad suffix once, and walks the first-half region (halves
1..N) and the second-half region (halves N+1..2N) in lockstep through one
reader. Bytes-like input (any C-contiguous buffer; anything with ``seek``
is a stream) that fits in one chunk is joined to the suffix once, and both
runs are sliced from that copy. A longer one is sliced through one flat
view, so each run is copied and never the whole input. A stream is read at
the offsets.
Each pair of runs is zipped, peppered with a mask built once per call, and
fed to the section hashes; a whole chunk of zeros skips the zip and the
XOR, whose results it knows. A file read by its descriptor is refused if
its ``fstat`` identity, size or times differ after the digest.
An input longer than one chunk starts one worker thread that owns the
dynamic hash. The calling thread reads and zips each chunk, hands it to
the worker, and then runs the static SHA pass over it, with the
interpreter lock released (hashlib drops it while it hashes); meanwhile the
worker XORs the chunk with the pepper and runs the dynamic SHA pass. With
no static pass (``dynamic_section``) the caller keeps the XOR, and the
worker only hashes. A one-slot hand-off keeps peak memory a
few chunk buffers whatever the input size. ``create``, ``verify`` and
``dynamic_section`` in ``ash.digest`` run through it, and through them the
challenge sessions and the CLI. This module also holds the spool that makes
a pipe seekable; it imports nothing from ``ash.digest``.
"""

from __future__ import annotations

import io
import os
from typing import Any, BinaryIO

from .errors import AshError, SizeMismatchError
from .restructure import interleave_runs, pad_suffix
from .seasoning import apply_pepper
from .variants import AshVariant

DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

# Half-block pairs per chunk: 128 KiB (ASH-1) or 256 KiB (ASH-2) chunks, so
# the few chunk buffers in flight fit in one core's L2 cache.
_CHUNK_HALVES = 2048

# The largest block _keep_chunk_pages has freed in this process.
_kept_block = 0


def _keep_chunk_pages(chunk_bytes: int) -> None:
    """Stop glibc from handing the chunk buffers of a digest back to the OS.

    Each chunk allocates and frees buffers of 64-280 KiB (the runs, the
    zipped segment, the XOR's big integers). glibc gives free heap memory
    back to the OS once more than its trim threshold (a few hundred KiB)
    is free at the top of the heap, so each chunk faulted its pages in
    afresh: 25-60 page faults per chunk, 1-15% of the time, more or fewer
    with every change to the order of the allocations. Freeing one block
    that glibc had to map raises its map threshold to that block's size
    and its trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD).
    A block of six chunks, about what a digest holds at its peak, puts the
    trim threshold above all the chunk buffers in flight, so they are
    reused in place. ``bytes(n)`` gets fresh zeroed pages from calloc and
    never touches them, so this costs no resident memory; under other
    allocators it only frees a block. Each process does it once per
    larger chunk size.
    """
    global _kept_block
    block = 6 * chunk_bytes
    if block > _kept_block:
        _kept_block = block
        bytes(block)


def _read_exactly(stream: BinaryIO, n: int) -> bytes:
    """Read n bytes from a blocking stream; fewer only if the stream ends first."""
    parts = []
    while n:
        piece = stream.read(n)
        if not piece:
            break
        parts.append(piece)
        n -= len(piece)
    return b"".join(parts)


def _sections(
    source: bytes | BinaryIO,
    variant: AshVariant,
    pepper: bytes,
    static: bool = True,
) -> tuple[bytes | None, bytes]:
    """The static and dynamic sections of bytes-like input or a seekable binary stream.

    A stream is hashed from offset 0 whatever its position, and its size
    is taken once at the start; a file read by its descriptor that changes
    meanwhile raises ``AshError``. With ``static=False`` the static hash is
    skipped and None stands in for it.
    """
    if len(pepper) != variant.pepper_size:
        raise SizeMismatchError(
            f"pepper is {len(pepper)} bytes, wanted {variant.pepper_size}"
        )
    flat = before = None
    if source.__class__ is bytes:
        flat = source  # sliced as it is: a view over it costs more than it saves
    elif not hasattr(source, "seek"):
        # any other bytes-like object is read through a flat view of its bytes
        try:
            flat = memoryview(source)
        except TypeError:
            raise TypeError(
                "message must be bytes-like or a seekable binary stream, "
                f"not {type(source).__name__}"
            ) from None
        flat = flat.cast("B")
    if flat is not None:
        size = len(flat)
    else:
        size = source.seek(0, os.SEEK_END)
        # Only a file object is asked for its descriptor: fileno() rolls a
        # SpooledTemporaryFile over to disk.
        if isinstance(source, (io.FileIO, io.BufferedReader, io.BufferedRandom)):
            try:
                fd = source.fileno()
            except io.UnsupportedOperation:  # a buffer over an in-memory stream
                pass
            else:
                before = os.fstat(fd)
    suffix = pad_suffix(size, variant)
    half = variant.half_size
    pairs = (size + len(suffix)) // variant.block_size
    mid = pairs * half
    # comparisons, here and in the loop, not min(): its two calls cost a
    # one-chunk digest 0.3-0.5 us
    step = pairs if pairs < _CHUNK_HALVES else _CHUNK_HALVES

    if flat is not None and pairs == step:
        # One chunk of bytes-like input: both runs are slices of one copy of
        # the padded stream, no longer than the chunk they zip into. A longer
        # input is copied run by run, never whole.
        padded = b"".join((flat, suffix))

        def read_at(offset: int, count: int) -> bytes:
            return padded[offset : offset + count]

    else:

        def read_at(offset: int, count: int) -> bytes:
            # count bytes of the padded stream: the input's, then the suffix's
            end = offset + count
            if offset >= size:
                return suffix[offset - size : end - size]
            stop = min(end, size)
            if flat is not None:
                data = bytes(flat[offset:stop])  # a bytes slice is kept as it is
            else:
                source.seek(offset)
                data = _read_exactly(source, stop - offset)
                if len(data) < stop - offset:
                    raise AshError("input shrank while it was being hashed")
            return data + suffix[: end - stop]

    full = step * variant.block_size
    mask = int.from_bytes(pepper * step, "big")
    static_hash = variant.base.new() if static else None
    dynamic_hash = variant.base.new()
    # A one-chunk input is never all zeros (its second run ends in the length
    # field; the empty message's first run holds 0x80), so only a longer one
    # builds the zero run, which the short last chunk never equals.
    worker = zero = tiled = None
    if pairs > step:
        _keep_chunk_pages(full)
        worker = _HashWorker(dynamic_hash, pepper)
        zero = bytes(step * half)
    # The worker XORs only beside a static pass, which this thread runs
    # meanwhile with the interpreter lock released (hashlib drops it); else
    # this thread XORs and passes the peppered chunk on.
    send = None
    if worker is None:
        send = dynamic_hash.update
    elif not static:
        send = worker.put
    try:
        for k in range(0, pairs, step):
            m = pairs - k if pairs - k < step else step
            first = read_at(k * half, m * half)
            second = read_at(mid + k * half, m * half)
            if first == zero and second == zero:
                # Zipping zeros gives zeros, and XORing zeros with the
                # pepper gives the pepper tiled: only the SHA passes remain.
                if static_hash is not None:
                    static_hash.update(first)
                    static_hash.update(second)
                if tiled is None:
                    tiled = pepper * step
                worker.put(tiled)
                continue
            segment = interleave_runs(first, second, half)
            # the short last chunk takes the leading bytes of the tile; a
            # zero shift would copy the whole mask
            n = len(segment)
            tile = mask if n == full else mask >> 8 * (full - n)
            if send is None:
                worker.put(segment, tile)
            else:
                send(apply_pepper(segment, pepper, mask=tile))
            if static_hash is not None:
                static_hash.update(segment)
    finally:
        # an error raised in the loop takes precedence over the worker's
        failure = worker.close() if worker is not None else None
    if failure is not None:
        raise failure
    if before is not None:
        # best effort: a rewrite within one tick of the file clock goes unseen
        after = os.fstat(fd)
        fields = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
        if any(getattr(before, name) != getattr(after, name) for name in fields):
            raise AshError("input changed while it was being hashed")
    return (static_hash.digest() if static else None), dynamic_hash.digest()


class _HashWorker:
    """One thread that peppers and hashes the chunks given to ``put``, in order.

    ``put(chunk, mask)`` has the thread XOR the chunk with the pepper,
    tiled as the big-endian integer ``mask``, before ``hash_obj.update``;
    ``put(chunk)`` hashes the chunk as it is. At most one chunk waits in
    the hand-off between the threads. An error the thread hits in the XOR
    or the update is raised by the next ``put``. ``close`` must follow the
    last ``put``, also on error: it joins the thread and returns that
    error, if any.
    """

    def __init__(self, hash_obj: Any, pepper: bytes):
        # Imported here: only inputs longer than one chunk start a thread, so
        # a one-chunk call and the CLI's start-up do not load these modules.
        import queue
        import threading

        self._hash = hash_obj
        self._pepper = pepper
        self._handoff: queue.Queue = queue.Queue(1)
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._drain, name="ash-hash", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        # Keeps taking chunks after a failure, so ``put`` never blocks on a
        # full hand-off; ``close`` passes the failure to the calling thread.
        while (item := self._handoff.get()) is not None:
            if self._failure is None:
                chunk, mask = item
                try:
                    if mask is not None:
                        chunk = apply_pepper(chunk, self._pepper, mask=mask)
                    self._hash.update(chunk)
                except BaseException as exc:
                    self._failure = exc

    def put(self, chunk: bytes, mask: int | None = None) -> None:
        if self._failure is not None:
            raise self._failure
        self._handoff.put((chunk, mask))

    def close(self) -> BaseException | None:
        self._handoff.put(None)
        self._thread.join()
        return self._failure


def spool_to_seekable(source: BinaryIO, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> BinaryIO:
    """Buffer a non-seekable stream (a pipe, usually) into something seekable.

    Stays in memory up to ``memory_budget`` bytes, then spills to a
    temporary file; a budget of 0 or less spills at once. The permutation
    needs random access, so streaming straight through is not an option.
    The copy goes through ``shutil``'s default buffer (64 KiB on Linux, a
    pipe's capacity), so the spool holds at most that much beyond the budget.
    """
    # Imported here: a regular file larger than a page never spools, so
    # hashing one and the CLI's start-up do not load tempfile (argparse's
    # help formatter has loaded shutil by then).
    import shutil
    import tempfile

    spool = tempfile.SpooledTemporaryFile(max_size=memory_budget)
    try:
        if memory_budget <= 0:
            spool.rollover()  # a max_size of 0 would mean no limit at all
        shutil.copyfileobj(source, spool)
    except BaseException:
        spool.close()
        raise
    spool.seek(0)
    return spool
