"""Parameter bundles distinguishing the members of the ASH family.

``AshVariant`` stays a dataclass while the benchmark's tracer
(``perfbench/spans.py``) builds traced variants through
``dataclasses.replace``; dropping ``dataclasses`` here waits on a change to
the benchmark (ROADMAP items 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AshError
from .hashes import BlockHashFunction, sha256, sha512


@dataclass(frozen=True)
class AshVariant:
    """Sizes and base hash for one ASH variant. All sizes are in bytes.

    Derived quantities are fixed by the base hash: the pepper is one input
    block, each digest section is one output digest, half-blocks are half
    an input block, and the serialized digest is static + dynamic + pepper.
    ``length_field_size`` is the width of the big-endian bit-length field
    written by the padding layer. Each derived size is computed on first
    use and kept on the instance, out of equality, hashing and repr, so a
    digest looks it up as a plain attribute; ``dataclasses.replace`` builds
    a new instance, which derives its sizes from its own base.
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

    @cached_property
    def block_size(self) -> int:
        return self.base.block_size

    @cached_property
    def half_size(self) -> int:
        return self.base.block_size // 2

    @cached_property
    def section_size(self) -> int:
        return self.base.digest_size

    @cached_property
    def pepper_size(self) -> int:
        return self.base.block_size

    @cached_property
    def total_size(self) -> int:
        return 2 * self.section_size + self.pepper_size


ASH1 = AshVariant(name="ASH-1", tag="ash1", base=sha256(), length_field_size=8)
ASH2 = AshVariant(name="ASH-2", tag="ash2", base=sha512(), length_field_size=16)

_REGISTRY = {v.tag: v for v in (ASH1, ASH2)}


def get_variant(name: str) -> AshVariant:
    """Look up a standard variant by its tag, "ash1" or "ash2", in any case."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AshError(f"unknown variant {name!r}; expected ash1 or ash2") from None
