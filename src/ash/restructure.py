"""Padding and the interleave permutation.

A message is padded to whole base-hash blocks, the padded stream is read
as 2N half-blocks, and half k is paired with half k+N (1-based), so output
block k is ``h_k || h_{k+N}``. Ten halves therefore leave in the order
1,6,2,7,3,8,4,9,5,10. Appending data to the message changes N and with it
every pairing, which is what stops a single-block collision from surviving
an appended suffix.

``interleave_runs`` is the one implementation of the permutation: the
digest pipeline in ``ash.files`` reads a run of first-half and a run of
second-half halves per chunk and zips them with it.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from .errors import MessageTooLongError, SizeMismatchError
from .record import _as_bytes
from .variants import AshVariant


def pad_suffix(message_length: int, variant: AshVariant) -> bytes:
    """Bytes appended to a message of the given length.

    0x80, then the fewest zero bytes that make the total a whole number of
    blocks with the big-endian bit length in the final ``length_field_size``
    bytes. Injective in the message: two different messages never pad to
    the same stream.
    """
    bits = message_length * 8
    field = variant.length_field_size
    if bits >= 1 << (8 * field):
        raise MessageTooLongError(
            f"{message_length}-byte message does not fit a {field}-byte length field"
        )
    zeros = -(message_length + 1 + field) % variant.block_size
    return b"\x80" + bytes(zeros) + bits.to_bytes(field, "big")


def pad_message(message: bytes, variant: AshVariant) -> bytes:
    """Pad a bytes-like message to a positive multiple of the variant's block size."""
    message = _as_bytes(message)
    return message + pad_suffix(len(message), variant)


def interleave(halves: Sequence[bytes]) -> bytes:
    """Reorder 2N half-blocks as h1, h(N+1), h2, h(N+2), ... and rejoin.

    With one block (N=1) the order is unchanged. An odd half count, an
    empty half, or halves of more than one byte length are rejected.
    """
    halves = [_as_bytes(half) for half in halves]
    size = len(halves[0]) if halves else 0
    if not size or len(halves) % 2 or any(len(half) != size for half in halves):
        raise SizeMismatchError(
            f"cannot interleave {len(halves)} halves: need an even count of one non-zero size"
        )
    n = len(halves) // 2
    return interleave_runs(b"".join(halves[:n]), b"".join(halves[n:]), size)


def interleave_runs(first: bytes, second: bytes, half_size: int) -> bytes:
    """Zip two equal-length runs of half-blocks into bytes: f0 s0 f1 s1 ...

    Each output block takes one half from each run. One pair is joined as
    it stands. Longer runs are either split into halves by one
    ``struct.unpack`` per run and joined in turn, or, for halves of whole
    8-byte words, copied by strided slices, one per word of a half-block.
    With struct's format cache warm, as it is for a file's repeated chunks,
    the split costs about 70 ns per pair, and the strided copy about 13 ns
    per pair plus 0.8 us per call for each of a half's ``width`` words
    (timeit minima, x86-64, Python 3.11). So the strided copy wins only
    when ``pairs * (70 - 13 * width) > 800 * width``: for ASH-1's 32-byte
    halves from 178 pairs on, and for ASH-2's 64-byte halves never. A seam of
    the chunk loop, it takes ``bytes`` and skips ``record._as_bytes``, as
    ``seasoning.apply_pepper`` does and for the same reason.
    """
    if len(first) != len(second) or len(first) % half_size != 0:
        raise SizeMismatchError("half-block runs must be equal block-aligned lengths")
    pairs = len(first) // half_size
    if pairs == 1:
        return b"".join((first, second))
    width = half_size // 8
    if half_size % 8 or pairs * (70 - 13 * width) <= 800 * width:
        layout = f"{half_size}s" * pairs
        halves = [b""] * (2 * pairs)
        halves[::2] = struct.unpack(layout, first)
        halves[1::2] = struct.unpack(layout, second)
        return b"".join(halves)
    seg = bytearray(2 * len(first))
    out, a, b = (memoryview(x).cast("Q") for x in (seg, first, second))
    step = 2 * width
    for j in range(width):
        out[j::step] = a[j::width]
        out[width + j :: step] = b[j::width]
    return bytes(seg)
