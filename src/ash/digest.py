"""The composite ASH digest: creation, verification, pairing, encoding.

Serialized layout, sizes in bytes for ASH-1 / ASH-2:

    offset 0        static section   32 / 64    base hash of the restructured stream
    offset 32 / 64  dynamic section  32 / 64    base hash of the stream XOR pepper
    offset 64 / 128 pepper           64 / 128   embedded so verifiers can recompute

Total 128 bytes (1024 bits) for ASH-1, 256 bytes (2048 bits) for ASH-2.

The static section is the same for a message no matter the pepper; the
dynamic section binds the digest to one pepper value. Creation draws a
fresh random pepper; verification must reuse the pepper embedded in the
digest it is checking, which is why the two modes are separate.

Both sections come from the chunked pipeline in ``ash.files``, so memory
stays flat whatever the message size.
"""

from __future__ import annotations

import hmac
import io

from .errors import DigestFormatError, SizeMismatchError
from .files import _sections
from .record import Record
from .seasoning import generate_pepper
from .variants import ASH1, ASH2, AshVariant

_FORMS = ("binary", "hex", "tagged")
_HEX_TEXT = b"0123456789abcdefABCDEF \t\n\r\x0b\x0c"


class AshDigest(Record):
    """One composite digest; construction enforces the section sizes.

    The sections and the pepper are held as ``bytes``: any other bytes-like
    field is copied, so a digest hashes, encodes and verifies whatever it
    was built from, and a buffer changed later leaves it as it was.
    """

    __slots__ = ()
    _fields = ("variant", "static_section", "dynamic_section", "pepper")

    def __new__(
        cls, variant: AshVariant, static_section: bytes, dynamic_section: bytes, pepper: bytes
    ) -> AshDigest:
        # only a field that is not bytes is copied, so create's cost nothing here
        if static_section.__class__ is not bytes:
            static_section = memoryview(static_section).tobytes()
        if dynamic_section.__class__ is not bytes:
            dynamic_section = memoryview(dynamic_section).tobytes()
        if pepper.__class__ is not bytes:
            pepper = memoryview(pepper).tobytes()
        if len(static_section) != variant.section_size:
            raise SizeMismatchError(
                f"static section is {len(static_section)} bytes, wanted {variant.section_size}"
            )
        if len(dynamic_section) != variant.section_size:
            raise SizeMismatchError(
                f"dynamic section is {len(dynamic_section)} bytes, wanted {variant.section_size}"
            )
        if len(pepper) != variant.pepper_size:
            raise SizeMismatchError(f"pepper is {len(pepper)} bytes, wanted {variant.pepper_size}")
        return tuple.__new__(cls, (variant, static_section, dynamic_section, pepper))


def create(
    message: bytes | io.IOBase, variant: AshVariant = ASH1, pepper: bytes | None = None
) -> AshDigest:
    """Hash a message, drawing a fresh random pepper unless one is supplied.

    ``message`` is bytes-like or a seekable binary stream, hashed from offset 0.
    A stream's size is taken once, at the start. A file read by its
    descriptor (``open(path, "rb")``) that grows, shrinks or is rewritten
    while it is hashed raises ``AshError``; the check compares ``fstat``
    before and after, so it is best effort. A stream with no descriptor
    is hashed at that snapshot: bytes appended are left out, and one that
    shrinks below it raises ``AshError``. A bytes-like ``pepper`` is copied
    to ``bytes``, so the digest keeps it whatever the caller does with theirs.
    """
    if pepper is None:
        pepper = generate_pepper(variant)
    return AshDigest(variant, *_sections(message, variant, pepper))


def dynamic_section(message: bytes | io.IOBase, variant: AshVariant, pepper: bytes) -> bytes:
    """Just the pepper-bound section, for protocols that exchange it alone.

    ``message`` is bytes-like or a seekable binary stream, hashed from offset 0,
    and ``pepper`` is bytes-like.
    """
    return _sections(message, variant, pepper, static=False)[1]


def _match(static: bytes, dynamic: bytes, claimed: AshDigest) -> bool:
    # both comparisons always run, so the time says nothing of which failed
    ok_static = hmac.compare_digest(static, claimed.static_section)
    ok_dynamic = hmac.compare_digest(dynamic, claimed.dynamic_section)
    return ok_static and ok_dynamic


def sections_match(computed: AshDigest, claimed: AshDigest) -> bool:
    """Constant-time comparison of both sections (pepper travels in clear)."""
    return _match(computed.static_section, computed.dynamic_section, claimed)


def verify(message: bytes | io.IOBase, claimed: AshDigest) -> bool:
    """Recompute with the embedded pepper; both sections must match.

    ``message`` is read as ``create`` reads it, stream size snapshot included.
    The recomputed sections are compared as they come, with no digest built.
    """
    static, dynamic, _ = _sections(message, claimed.variant, claimed.pepper)
    return _match(static, dynamic, claimed)


def create_pair(message: bytes, variant: AshVariant = ASH1) -> tuple[AshDigest, AshDigest]:
    """A public digest and a second one to store somewhere safe.

    Same static section, independent peppers. Keeping the second digest
    private lets the holder authenticate future copies of the message even
    if the published digest is ever matched by forged data, since matching
    data cannot be pre-created without knowing the private pepper.
    """
    return create(message, variant), create(message, variant)


def encode(digest: AshDigest, form: str = "tagged") -> bytes | str:
    """Serialize a digest.

    binary: static || dynamic || pepper, exactly ``total_size`` bytes.
    hex: lowercase hex of binary (256 chars for ASH-1, 512 for ASH-2).
    tagged: "ash1:" or "ash2:" prefix plus the hex form.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {_FORMS}")
    raw = digest.static_section + digest.dynamic_section + digest.pepper
    if form == "binary":
        return raw
    if form == "hex":
        return raw.hex()
    return f"{digest.variant.tag}:{raw.hex()}"


def _from_binary(raw: bytes, variant: AshVariant) -> AshDigest:
    s = variant.section_size
    return AshDigest(variant, raw[:s], raw[s : 2 * s], raw[2 * s :])


def decode(encoded: bytes | str) -> AshDigest:
    """Parse any of the three encodings, inferring the variant.

    Raw bytes of exactly 128 or 256 are binary ASH-1 / ASH-2, unless they
    are all hex digits and whitespace and parse as text (256 bytes of ASH-1
    hex); other bytes are ASCII text. Text with a "tag:" prefix names its
    variant; bare hex is sized 256 or 512 characters.
    """
    if isinstance(encoded, str):
        return _decode_text(encoded)
    raw = memoryview(encoded).tobytes()
    # ASH1 and ASH2 are looked up on each call: the benchmark's tracer replaces them
    binary = next((v for v in (ASH1, ASH2) if len(raw) == v.total_size), None)
    if binary is not None and raw.translate(None, _HEX_TEXT):
        return _from_binary(raw, binary)
    try:
        return _decode_text(raw.decode("ascii"))
    except UnicodeDecodeError:
        raise DigestFormatError(
            f"bad length: {len(raw)} bytes is not a binary digest size (128 or 256)"
        ) from None
    except DigestFormatError:
        if binary is None:
            raise
    # a binary digest whose bytes all happen to be hex digits or whitespace
    return _from_binary(raw, binary)


def _decode_text(text: str) -> AshDigest:
    text = text.strip()

    if ":" in text:
        tag, _, hexpart = text.partition(":")
        variant = {v.tag: v for v in (ASH1, ASH2)}.get(tag.lower())
        if variant is None:
            raise DigestFormatError(f"unknown tag {tag!r}")
    else:
        hexpart = text
        by_hex_len = {2 * v.total_size: v for v in (ASH1, ASH2)}
        variant = by_hex_len.get(len(hexpart))
        if variant is None:
            raise DigestFormatError(
                f"bad length: {len(hexpart)} hex characters is not a digest size (256 or 512)"
            )
    if len(hexpart) != 2 * variant.total_size:
        raise DigestFormatError(
            f"bad length: {variant.name} needs {2 * variant.total_size} hex characters, "
            f"got {len(hexpart)}"
        )
    try:
        raw = bytes.fromhex(hexpart)
    except ValueError:
        raw = b""
    # fromhex skips whitespace, so hex with spaces inside comes out short
    if len(raw) < variant.total_size:
        raise DigestFormatError("bad hex: digest contains non-hexadecimal characters")
    return _from_binary(raw, variant)
