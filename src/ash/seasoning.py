"""Pepper and salt material: generation, XOR application, share combination.

A pepper is one block of random data XORed across every block of the
restructured stream, so a single block of randomness peppers bit changes
through the whole input of the dynamic hash. A salt is one block appended
to the message itself before the pipeline runs.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from .errors import SizeMismatchError
from .record import _as_bytes
from .variants import AshVariant


def generate_pepper(variant: AshVariant) -> bytes:
    """Draw one block of randomness from the operating system source."""
    return os.urandom(variant.pepper_size)


def apply_pepper(stream: bytes, pepper: bytes, *, mask: int | None = None) -> bytes:
    """XOR the pepper across every block: out[i] = stream[i] ^ pepper[i mod block].

    Length-preserving involution; applying the same pepper twice gives the
    stream back. One big-integer XOR over the whole input: the digest
    pipeline calls it once per chunk, so that integer stays chunk-sized.
    ``mask``, if given, is the pepper tiled to the stream's length as one
    big-endian integer, so a caller that XORs many chunks builds it once;
    a chunk ``d`` bytes shorter takes ``mask >> 8 * d``. A seam of the chunk
    loop, it takes ``bytes`` and skips ``record._as_bytes``: in two probes the
    intake on both arguments slowed a 128 B ``create`` in 17 of 20 process
    pairs (ASH-1) and 15-16 of 20 (ASH-2; timeit, 2-core VM, Python 3.11).
    """
    block = len(pepper)
    if block == 0:
        raise SizeMismatchError("pepper is empty")
    if len(stream) % block != 0:
        raise SizeMismatchError(
            f"stream of {len(stream)} bytes is not a multiple of the {block}-byte pepper"
        )
    if mask is None:
        mask = int.from_bytes(pepper * (len(stream) // block), "big")
    return (int.from_bytes(stream, "big") ^ mask).to_bytes(len(stream), "big")


def combine_shares(shares: Iterable[bytes]) -> bytes:
    """Bytewise XOR of all shares, each read by ``record._as_bytes``; order never matters.

    One uniformly random share makes the result uniformly random, the same
    argument that makes a one-time pad work.
    """
    acc, size = 0, None
    for share in shares:
        share = _as_bytes(share, size, "share")  # the first share sets the size
        size = len(share)
        acc ^= int.from_bytes(share, "big")
    if size is None:
        raise ValueError("at least one share is required")
    return acc.to_bytes(size, "big")


def make_salt(half_a: bytes, half_b: bytes, variant: AshVariant) -> bytes:
    """One block of salt from two half-block contributions: half_a || half_b."""
    size = variant.half_size
    return _as_bytes(half_a, size, "salt half_a") + _as_bytes(half_b, size, "salt half_b")
