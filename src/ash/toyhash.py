"""A deliberately weak iterated hash with collisions you can write down.

Never use this for real data. The compression step sees each 8-byte block
only through the 32-bit sum of its two words, so any two blocks with equal
word sums collide from every chaining state; ``collide`` exploits that by
construction. That is exactly the premise needed to show, quickly and
deterministically, how a single-block collision survives any appended
suffix under plain iterated hashing and how the half-block interleave
breaks the effect.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import SizeMismatchError
from .hashes import BlockHashFunction
from .restructure import interleave_runs
from .variants import AshVariant

BLOCK_SIZE = 8
DIGEST_SIZE = 4

_MASK = 0xFFFFFFFF
_INIT = 0x6A09E667
_MULT = 0x9E3779B1


def _word_sum(block: bytes) -> int:
    return (int.from_bytes(block[:4], "big") + int.from_bytes(block[4:], "big")) & _MASK


def _mix(state: int, block: bytes) -> int:
    # Depends on the block only through its word sum: that is the back door.
    x = (state * _MULT) & _MASK
    x = ((x << 13) | (x >> 19)) & _MASK
    return (x + _word_sum(block)) & _MASK


class _ToyHasher:
    """hashlib-style incremental interface over the toy compression."""

    def __init__(self) -> None:
        self._state = _INIT
        self._tail = b""
        self._length = 0

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buf = self._tail + data
        whole = len(buf) - len(buf) % BLOCK_SIZE
        for i in range(0, whole, BLOCK_SIZE):
            self._state = _mix(self._state, buf[i : i + BLOCK_SIZE])
        self._tail = buf[whole:]

    def digest(self) -> bytes:
        bits = self._length * 8
        suffix = b"\x80"
        suffix += bytes(-(self._length + 1 + 4) % BLOCK_SIZE)
        suffix += (bits & _MASK).to_bytes(4, "big")
        state = self._state
        buf = self._tail + suffix
        for i in range(0, len(buf), BLOCK_SIZE):
            state = _mix(state, buf[i : i + BLOCK_SIZE])
        return state.to_bytes(DIGEST_SIZE, "big")


def toy_hash() -> BlockHashFunction:
    """The toy hash behind the same interface as the real base hashes."""
    return BlockHashFunction("toyhash", BLOCK_SIZE, DIGEST_SIZE, _ToyHasher)


def toy_variant() -> AshVariant:
    """A full variant over the toy hash, for running the whole pipeline on it."""
    return AshVariant(name="TOY", tag="toy", base=toy_hash(), length_field_size=4)


def collide(block: bytes) -> bytes:
    """A different 8-byte block with the same compression output for every state.

    Adds one to the first word and subtracts one from the second, preserving
    the word sum the compression actually consumes.
    """
    if len(block) != BLOCK_SIZE:
        raise SizeMismatchError(f"toy blocks are {BLOCK_SIZE} bytes, got {len(block)}")
    w1 = (int.from_bytes(block[:4], "big") + 1) & _MASK
    w2 = (int.from_bytes(block[4:], "big") - 1) & _MASK
    return w1.to_bytes(4, "big") + w2.to_bytes(4, "big")


CascadeReport = namedtuple("CascadeReport", ("naive_collides", "ash_collides"))


def demonstrate_cascade(prefix: bytes, suffix: bytes) -> CascadeReport:
    """Show the appendable cascade and its defeat, on whole toy blocks.

    Builds a twin of ``prefix`` whose first block is replaced by a colliding
    one, appends ``suffix`` to both, and hashes both messages two ways:
    naively (straight into the toy hash) and through the interleave
    permutation first. The naive digests always collide; the permuted ones
    stop colliding as soon as the stream spans more than one block, because
    the twin's two changed halves land in different output blocks whose word
    sums no longer cancel.

    Input streams are whole blocks already, matching the block diagrams the
    construction is usually drawn with, so no padding layer is applied here.
    """
    if not prefix or len(prefix) % BLOCK_SIZE != 0 or len(suffix) % BLOCK_SIZE != 0:
        raise SizeMismatchError("prefix and suffix must be whole toy blocks")
    twin = collide(prefix[:BLOCK_SIZE]) + prefix[BLOCK_SIZE:]
    message, forged = prefix + suffix, twin + suffix
    toy = toy_hash()

    def permuted(stream: bytes) -> bytes:
        mid = len(stream) // 2
        return interleave_runs(stream[:mid], stream[mid:], BLOCK_SIZE // 2)

    naive = toy.compute(message) == toy.compute(forged)
    ash = toy.compute(permuted(message)) == toy.compute(permuted(forged))
    return CascadeReport(naive_collides=naive, ash_collides=ash)
