"""The one digest pipeline, in bounded memory, behind every entry point.

The interleave permutation pairs half-block k with half-block k+N, so the
second half of the padded stream is needed from the very first output
block. ``_sections`` sizes the input once (any C-contiguous buffer, an
mmap too, is bytes-like; only an object with no such buffer is asked for
``seek``, as a stream), builds the pad suffix once, and takes the first-half region (halves 1..N) and the second-half
region (halves N+1..2N) as two runs. When the padded stream fits in one
chunk, the calling thread does it in a straight line: both runs are sliced
from one copy of the input joined to the suffix (a stream is read once,
whole), then zipped, peppered and hashed once. A longer input walks both
regions in lockstep, a chunk at a time, slicing bytes-like input through
one flat view (never copying it whole) and reading a stream at the
offsets. Each pair of runs is zipped, peppered with a mask built once per
call, and fed to the section hashes; a whole chunk of zeros skips the zip
and the XOR, whose results it knows. One worker thread owns the dynamic
hash for the life of one ``with`` block around the chunk loop, which joins
it on the way out, also on error: the calling thread zips each chunk, hands it over and runs the
static SHA pass with the interpreter lock released (hashlib drops it while
it hashes), while the worker XORs the chunk with the pepper and runs the
dynamic pass. With no static pass (``dynamic_section``) the caller XORs
and the worker only hashes. A one-slot hand-off keeps peak memory a few
chunk buffers whatever the input size. A file read by its descriptor is
refused if its ``fstat`` identity, size or times differ after the digest.
``create``, ``verify`` and ``dynamic_section`` in ``ash.digest`` run
through it, and through them the challenge sessions and the CLI. This
module also holds the spool that makes a pipe seekable; it imports nothing
from ``ash.digest``.
"""

from __future__ import annotations

import io
import os

from .errors import AshError
from .record import _as_bytes
from .restructure import interleave_runs, pad_suffix
from .seasoning import apply_pepper
from .variants import AshVariant

# A few chunks: a larger pipe spills to a temporary file, so a pipe's peak
# memory does not grow with its size, and the spill costs no measurable time.
DEFAULT_MEMORY_BUDGET = 1024 * 1024

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


def _read_exactly(stream: io.IOBase, n: int) -> bytes:
    """Read n bytes from a stream; fewer only if the stream ends first.

    A read that would block (None, from a non-blocking stream) is not the
    end: it raises BlockingIOError.
    """
    parts = []
    while n:
        piece = stream.read(n)
        if piece is None:
            raise BlockingIOError("a read would block: the stream has no data yet")
        if not piece:
            break
        parts.append(piece)
        n -= len(piece)
    return b"".join(parts)


def _read_span(stream: io.IOBase, offset: int, count: int) -> bytes:
    """count bytes of a seekable stream from offset; AshError if it ends first."""
    stream.seek(offset)
    data = _read_exactly(stream, count)
    if len(data) < count:
        raise AshError("input shrank while it was being hashed")
    return data


def _sections(
    source: bytes | io.IOBase,
    variant: AshVariant,
    pepper: bytes,
    static: bool = True,
) -> tuple[bytes | None, bytes, bytes]:
    """The static and dynamic sections of bytes-like input or a seekable binary stream.

    ``pepper`` is read by ``record._as_bytes``; the pepper hashed is the third
    value. A stream is hashed from offset 0 whatever its position, and its size
    is taken once at the start; a file read by its descriptor that changes
    meanwhile raises ``AshError``. With ``static=False`` the static hash is
    skipped and None stands in for it. A padded stream of one chunk or less is
    permuted, peppered and hashed in one straight line on this thread; only a
    longer one runs the chunk loop, with its worker thread.
    """
    pepper = _as_bytes(pepper, variant.pepper_size, "pepper")
    flat = before = None
    if source.__class__ is bytes:
        flat = source  # sliced as it is: a view over it costs more than it saves
    else:
        # any other C-contiguous buffer, an mmap too, is read through a flat view
        try:
            view = memoryview(source)
        except TypeError:
            if not hasattr(source, "seek"):
                raise TypeError(
                    "message must be bytes-like or a seekable binary stream, "
                    f"not {type(source).__name__}"
                ) from None
        else:
            with view:  # the cast holds the buffer by itself
                if not view.c_contiguous:
                    raise TypeError("a buffer message must be C-contiguous, not strided")
                flat = view.cast("B")
    try:
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
        static_hash = variant.base.new() if static else None
        dynamic_hash = variant.base.new()
        if pairs <= _CHUNK_HALVES:
            # Both runs are slices of one copy of the padded stream, no longer
            # than the chunk they zip into. A stream is read in one read, so the
            # digest is of one snapshot of it.
            if flat is None:
                flat = _read_span(source, 0, size)
            padded = b"".join((flat, suffix))
            segment = interleave_runs(padded[:mid], padded[mid:], half)
            dynamic_hash.update(apply_pepper(segment, pepper))
            if static_hash is not None:
                static_hash.update(segment)
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
                    data = _read_span(source, offset, stop - offset)
                return data + suffix[: end - stop]

            step = _CHUNK_HALVES
            full = step * variant.block_size
            mask = int.from_bytes(pepper * step, "big")
            _keep_chunk_pages(full)
            zero = bytes(step * half)  # the runs of a short last chunk never equal it
            tiled = None
            with _HashWorker(dynamic_hash, pepper) as worker:
                for k in range(0, pairs, step):
                    m = min(pairs - k, step)
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
                    # beside a static pass the worker XORs, else this thread does
                    if static_hash is None:
                        worker.put(apply_pepper(segment, pepper, mask=tile))
                    else:
                        worker.put(segment, tile)
                        static_hash.update(segment)
    finally:
        # a traceback keeps this frame, which must not keep the caller's buffer pinned
        if flat.__class__ is memoryview:
            flat.release()
    if before is not None:
        # best effort: a rewrite within one tick of the file clock goes unseen
        after = os.fstat(fd)
        fields = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
        if any(getattr(before, name) != getattr(after, name) for name in fields):
            raise AshError("input changed while it was being hashed")
    return (static_hash.digest() if static else None), dynamic_hash.digest(), pepper


class _HashWorker:
    """One thread that peppers and hashes the chunks given to ``put``, in order.

    ``put(chunk, mask)`` has the thread XOR the chunk with the pepper,
    tiled as the big-endian integer ``mask``, before ``hash_obj.update``;
    ``put(chunk)`` hashes the chunk as it is. At most one chunk waits in
    the hand-off between the threads. An error the thread hits in the XOR
    or the update is raised by the next ``put``. The worker runs only as
    ``with _HashWorker(...) as worker:``; leaving the block joins the
    thread and raises that error, unless the block raised one of its own.
    """

    def __init__(self, hash_obj: object, pepper: bytes):
        # Imported here: only inputs longer than one chunk start a thread, so
        # a one-chunk call and the CLI's start-up do not load these modules.
        import queue
        import threading

        self._hash = hash_obj
        self._pepper = pepper
        self._handoff: queue.Queue = queue.Queue(1)
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._drain, name="ash-hash", daemon=True)
        try:
            self._thread.start()
        except RuntimeError as exc:  # out of threads or memory: exit 2, not a mismatch
            raise AshError(f"cannot start a hashing thread: {exc}") from None

    def _drain(self) -> None:
        # Keeps taking chunks after a failure, so ``put`` never blocks on a
        # full hand-off; ``__exit__`` passes the failure to the calling thread.
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

    def __enter__(self) -> _HashWorker:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._handoff.put(None)
        self._thread.join()
        if exc is None and self._failure is not None:
            raise self._failure


def spool_to_seekable(source: io.IOBase, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> io.IOBase:
    """Buffer a non-seekable stream (a pipe, usually) into something seekable.

    Stays in memory up to ``memory_budget`` bytes, then spills to a
    temporary file; a budget of 0 or less spills at once. The permutation
    needs random access, so streaming straight through is not an option.
    The copy reads 64 KiB at a time (a pipe's capacity), so the spool holds
    at most that much beyond the budget. A read that would block raises
    BlockingIOError, as it does for every reader of ``_read_exactly``.
    """
    # Imported here: a regular file larger than a page never spools, so
    # hashing one and the CLI's start-up do not load tempfile.
    import tempfile

    spool = tempfile.SpooledTemporaryFile(max_size=memory_budget)
    try:
        if memory_budget <= 0:
            spool.rollover()  # a max_size of 0 would mean no limit at all
        while piece := _read_exactly(source, 64 << 10):
            spool.write(piece)
    except BaseException:
        spool.close()
        raise
    spool.seek(0)
    return spool
