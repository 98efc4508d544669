"""Framed messages and the two pepper procedures between machines.

Wire format, binary, big-endian:

    magic   4 bytes  "ASHP"
    version 1 byte   0x01
    type    1 byte   0x01 pepper share, 0x02 challenge, 0x03 response,
                     0x04 verdict
    length  4 bytes  payload byte count
    payload

The module is transport-agnostic: it turns frames into bytes and back,
and drives per-session state machines; pipes or sockets are the caller's
business.

Pepper agreement: every party contributes one block and all blocks are
XORed together (``seasoning.combine_shares``), so a single honestly random
participant makes the shared pepper random. Challenge-response: the
challenger sends a fresh pepper and accepts only a responder who can
produce the matching dynamic section, which requires actually holding the
data.
"""

from __future__ import annotations

import hmac
import io
import struct
from enum import Enum, IntEnum

from .digest import dynamic_section
from .errors import (
    BadFrameTypeError,
    BadMagicError,
    BadVersionError,
    FrameError,
    ProtocolError,
    TruncatedFrameError,
)
from .files import _read_exactly
from .record import Record, _as_bytes
from .seasoning import generate_pepper
from .variants import ASH2, AshVariant

MAGIC = b"ASHP"
VERSION = 0x01
_HEADER = struct.Struct(">4sBBI")  # magic, version, type, payload length
HEADER_SIZE = _HEADER.size


class FrameType(IntEnum):
    PEPPER_SHARE = 0x01
    CHALLENGE = 0x02
    RESPONSE = 0x03
    VERDICT = 0x04


# Wire byte or bare int -> member, looked up only by ``_frame_type``.
_FRAME_TYPES = {int(t): t for t in FrameType}

# Largest payload of each frame type in either variant (ASH-2 has the larger
# pepper and sections). Building and parsing refuse a longer one through
# ``_check_length``, so a frame that can be encoded can be decoded.
_MAX_PAYLOAD = {
    FrameType.PEPPER_SHARE: ASH2.pepper_size,
    FrameType.CHALLENGE: ASH2.pepper_size,
    FrameType.RESPONSE: ASH2.section_size,
    FrameType.VERDICT: 1,
}


class ProtocolFrame(Record):
    """One frame; a bare int type becomes its member. ``encode_frame`` caps the payload.

    The payload goes through ``record._as_bytes``, as ``AshDigest``'s fields do.
    """

    __slots__ = ()
    _fields = ("frame_type", "payload")

    def __new__(cls, frame_type: int, payload: bytes) -> ProtocolFrame:
        return tuple.__new__(cls, (_frame_type(frame_type), _as_bytes(payload)))


def _frame_type(value: int) -> FrameType:
    """The member for a wire byte or plain int; refuse any other value."""
    # checked by class first: 2.0 and True would match an int key
    if value.__class__ is not int and value.__class__ is not FrameType:
        raise TypeError(f"frame type must be an int, not {type(value).__name__}")
    frame_type = _FRAME_TYPES.get(value)
    if frame_type is None:
        raise BadFrameTypeError(f"unknown frame type {value:#x}")
    return frame_type


def _check_length(frame_type: FrameType, length: int) -> None:
    """Refuse a payload longer than its frame type can carry."""
    if length > _MAX_PAYLOAD[frame_type]:
        raise FrameError(
            f"{frame_type.name} frame declares {length} payload bytes, "
            f"at most {_MAX_PAYLOAD[frame_type]} allowed"
        )


def encode_frame(frame: ProtocolFrame) -> bytes:
    """The wire bytes of a frame; a payload the parser would refuse is refused here."""
    payload = frame.payload
    _check_length(frame.frame_type, len(payload))
    return _HEADER.pack(MAGIC, VERSION, frame.frame_type, len(payload)) + payload


def _check_header(data: bytes) -> tuple[FrameType, int]:
    """Check magic, version, type, then the length cap; return the type and length."""
    magic, version, type_byte, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version:#x}")
    frame_type = _frame_type(type_byte)
    _check_length(frame_type, length)
    return frame_type, length


def decode_frame(data: bytes) -> tuple[ProtocolFrame, bytes]:
    """Consume one frame of ``data``, read by ``record._as_bytes``; return it and the rest."""
    data = _as_bytes(data)
    if len(data) < HEADER_SIZE:
        raise TruncatedFrameError(f"{len(data)} bytes is shorter than a frame header")
    frame_type, length = _check_header(data)
    end = HEADER_SIZE + length
    if len(data) < end:
        raise TruncatedFrameError(
            f"{length}-byte payload has only {len(data) - HEADER_SIZE} bytes present"
        )
    return ProtocolFrame(frame_type, data[HEADER_SIZE:end]), data[end:]


def read_frame(stream: io.IOBase) -> ProtocolFrame | None:
    """Read one frame from a stream; None on clean end-of-stream.

    A non-blocking stream with no data yet raises BlockingIOError instead.

    The header is checked before its length is trusted for the payload read;
    ``decode_frame`` then parses what was read, a short read included.
    """
    raw = _read_exactly(stream, HEADER_SIZE)
    if not raw:
        return None
    if len(raw) == HEADER_SIZE:
        raw += _read_exactly(stream, _check_header(raw)[1])
    return decode_frame(raw)[0]


def _expect(frame: ProtocolFrame, frame_type: FrameType, size: int | None = None) -> None:
    """Refuse a frame of another type or, given a size, another payload size."""
    if frame.frame_type is not frame_type:
        raise ProtocolError(
            f"expected a {frame_type.name.lower()} frame, got {frame.frame_type.name}"
        )
    if size is not None and len(frame.payload) != size:
        raise ProtocolError(
            f"{frame_type.name.lower()} carries {len(frame.payload)} bytes, wanted {size}"
        )


class Phase(Enum):
    IDLE = "idle"
    AWAITING_CHALLENGE = "awaiting_challenge"
    AWAITING_RESPONSE = "awaiting_response"
    DONE = "done"


class Challenger:
    """Issues a fresh pepper and checks the response against a local copy.

    Phases move strictly forward: idle -> awaiting_response -> done. A frame
    that cannot be accepted raises ProtocolError and leaves the phase (and
    everything else) untouched. One instance is one session; never reuse a
    pepper across sessions, and drive an instance from one thread at a time.
    """

    def __init__(self, variant: AshVariant):
        self.variant = variant
        self.phase = Phase.IDLE
        self.pepper: bytes | None = None
        self.accepted: bool | None = None

    def issue(self) -> ProtocolFrame:
        """Produce the challenge frame carrying a fresh pepper."""
        if self.phase is not Phase.IDLE:
            raise ProtocolError(f"cannot issue a challenge in phase {self.phase.value}")
        pepper = generate_pepper(self.variant)
        self.pepper = pepper
        self.phase = Phase.AWAITING_RESPONSE
        return ProtocolFrame(FrameType.CHALLENGE, pepper)

    def check(self, response: ProtocolFrame, message: bytes | io.IOBase) -> ProtocolFrame:
        """Compare the response against the local copy; emit the verdict frame."""
        if self.phase is not Phase.AWAITING_RESPONSE:
            raise ProtocolError(f"cannot check a response in phase {self.phase.value}")
        _expect(response, FrameType.RESPONSE, self.variant.section_size)
        expected = dynamic_section(message, self.variant, self.pepper)
        accepted = hmac.compare_digest(expected, response.payload)
        self.accepted = accepted
        self.phase = Phase.DONE
        return ProtocolFrame(FrameType.VERDICT, b"\x01" if accepted else b"\x00")


class Responder:
    """Proves possession of the message under whatever pepper arrives.

    Phases: awaiting_challenge -> done; rejected frames change nothing.
    """

    def __init__(self, variant: AshVariant):
        self.variant = variant
        self.phase = Phase.AWAITING_CHALLENGE

    def answer(self, challenge: ProtocolFrame, message: bytes | io.IOBase) -> ProtocolFrame:
        if self.phase is not Phase.AWAITING_CHALLENGE:
            raise ProtocolError(f"cannot answer a challenge in phase {self.phase.value}")
        _expect(challenge, FrameType.CHALLENGE, self.variant.pepper_size)
        section = dynamic_section(message, self.variant, challenge.payload)
        self.phase = Phase.DONE
        return ProtocolFrame(FrameType.RESPONSE, section)


def verdict_accepted(frame: ProtocolFrame) -> bool:
    """Read a verdict frame; True means the challenger accepted."""
    _expect(frame, FrameType.VERDICT)
    if frame.payload == b"\x01":
        return True
    if frame.payload == b"\x00":
        return False
    raise ProtocolError(f"malformed verdict payload {frame.payload!r}")
