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
    a chunk ``d`` bytes shorter takes ``mask >> 8 * d``.
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
    """Bytewise XOR of all shares; order never matters.

    One uniformly random share makes the result uniformly random, the same
    argument that makes a one-time pad work.
    """
    shares = iter(shares)
    first = next(shares, None)
    if first is None:
        raise ValueError("at least one share is required")
    size = len(first)
    acc = int.from_bytes(first, "big")
    for share in shares:
        if len(share) != size:
            raise SizeMismatchError(
                f"share of {len(share)} bytes among shares of {size} bytes"
            )
        acc ^= int.from_bytes(share, "big")
    return acc.to_bytes(size, "big")


def make_salt(half_a: bytes, half_b: bytes, variant: AshVariant) -> bytes:
    """One block of salt from two half-block contributions: half_a || half_b."""
    if len(half_a) != variant.half_size or len(half_b) != variant.half_size:
        raise SizeMismatchError(
            f"salt halves must be {variant.half_size} bytes each, "
            f"got {len(half_a)} and {len(half_b)}"
        )
    return half_a + half_b
