"""Parameter bundles distinguishing the members of the ASH family.

``AshVariant`` stays a dataclass while the benchmark's tracer
(``perfbench/spans.py``) builds traced variants through
``dataclasses.replace``; dropping ``dataclasses`` here waits on a change to
the benchmark (ROADMAP items 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AshError
from .hashes import BlockHashFunction, sha256, sha512


@dataclass(frozen=True)
class AshVariant:
    """Sizes and base hash for one ASH variant. All sizes are in bytes.

    The derived sizes are fixed by the base hash: the pepper is one input
    block, each digest section is one output digest, half-blocks are half
    an input block, and the serialized digest is static + dynamic + pepper.
    ``length_field_size`` is the width of the big-endian bit-length field
    written by the padding layer. The five derived sizes are set when the
    variant is built, as read-only attributes outside equality, hashing
    and repr; ``dataclasses.replace`` builds a new variant, which sets
    them from its own base.
    """

    name: str
    tag: str
    base: BlockHashFunction
    length_field_size: int

    def __post_init__(self) -> None:
        if self.base.block_size % 2 != 0:
            raise AshError(f"{self.name}: base block size must be even")
        if self.length_field_size < 1:
            raise AshError(f"{self.name}: length field must be at least one byte")
        # Set past the frozen guard, as plain attributes rather than fields,
        # so equality, hashing and repr leave them out.
        block, digest = self.base.block_size, self.base.digest_size
        object.__setattr__(self, "block_size", block)
        object.__setattr__(self, "half_size", block // 2)
        object.__setattr__(self, "section_size", digest)
        object.__setattr__(self, "pepper_size", block)
        object.__setattr__(self, "total_size", 2 * digest + block)


ASH1 = AshVariant(name="ASH-1", tag="ash1", base=sha256(), length_field_size=8)
ASH2 = AshVariant(name="ASH-2", tag="ash2", base=sha512(), length_field_size=16)

_REGISTRY = {v.tag: v for v in (ASH1, ASH2)}


def get_variant(name: str) -> AshVariant:
    """Look up a standard variant by its tag, "ash1" or "ash2", in any case."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AshError(f"unknown variant {name!r}; expected ash1 or ash2") from None
