"""Black-box interface over iterated hash functions.

The construction never looks inside the base hash; anything with a block
size, a digest size and a hashlib-style ``new()`` (incremental ``update``
calls, then ``digest``) can serve, so stronger functions can be swapped in.

``BlockHashFunction`` stays a dataclass while the benchmark's tracer
(``perfbench/spans.py``) swaps in a timed base hash through
``dataclasses.replace``; dropping ``dataclasses`` here waits on a change to
the benchmark (ROADMAP items 1 and 2).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class BlockHashFunction:
    """An iterated hash treated as a black box.

    ``new`` returns a hashlib-style object (``update``/``digest``);
    ``compute`` is the one-shot form. The two are bit-identical.
    """

    name: str
    block_size: int
    digest_size: int
    new: Callable[[], object]

    def compute(self, data: bytes) -> bytes:
        h = self.new()
        h.update(data)
        return h.digest()


def sha256() -> BlockHashFunction:
    """SHA-256: 64-byte input blocks, 32-byte digest."""
    return BlockHashFunction("sha256", 64, 32, hashlib.sha256)


def sha512() -> BlockHashFunction:
    """SHA-512: 128-byte input blocks, 64-byte digest."""
    return BlockHashFunction("sha512", 128, 64, hashlib.sha512)
