"""Seasoned hash constructions over black-box iterated hashes.

ASH-1 wraps SHA-256 and ASH-2 wraps SHA-512. The wrapper pads a message,
reads it as half-blocks, interleaves half k with half k+N, and hashes
the result twice: once plain (the static section) and once XORed with one
block of random pepper (the dynamic section). Digest = static section,
dynamic section, then the pepper itself, so any holder of the digest can
verify it while every creation is freshly seasoned.

>>> import ash
>>> d = ash.create(b"hello")
>>> ash.verify(b"hello", d)
True
>>> ash.decode(ash.encode(d)) == d
True
"""

from .digest import (
    AshDigest,
    create,
    create_pair,
    decode,
    dynamic_section,
    encode,
    sections_match,
    verify,
)
from .errors import (
    AshError,
    BadFrameTypeError,
    BadMagicError,
    BadVersionError,
    DigestFormatError,
    FrameError,
    MessageTooLongError,
    ProtocolError,
    SizeMismatchError,
    TruncatedFrameError,
)
from .hashes import BlockHashFunction, sha256, sha512
from .restructure import interleave, pad_message
from .seasoning import (
    apply_pepper,
    combine_shares,
    generate_pepper,
    make_salt,
)
from .variants import ASH1, ASH2, AshVariant, get_variant

__version__ = "0.1.0"

__all__ = [
    "ASH1",
    "ASH2",
    "AshDigest",
    "AshError",
    "AshVariant",
    "BadFrameTypeError",
    "BadMagicError",
    "BadVersionError",
    "BlockHashFunction",
    "DigestFormatError",
    "FrameError",
    "MessageTooLongError",
    "ProtocolError",
    "SizeMismatchError",
    "TruncatedFrameError",
    "apply_pepper",
    "combine_shares",
    "create",
    "create_pair",
    "decode",
    "dynamic_section",
    "encode",
    "generate_pepper",
    "get_variant",
    "interleave",
    "make_salt",
    "pad_message",
    "sections_match",
    "sha256",
    "sha512",
    "verify",
]
