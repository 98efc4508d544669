"""Frame codec and the challenge-response / pepper-agreement machinery."""

import io
import pickle
import random

import pytest

import ash.protocol
from ash.errors import (
    BadFrameTypeError,
    BadMagicError,
    BadVersionError,
    FrameError,
    ProtocolError,
    TruncatedFrameError,
)
from ash.protocol import (
    HEADER_SIZE,
    Challenger,
    FrameType,
    Phase,
    ProtocolFrame,
    Responder,
    decode_frame,
    encode_frame,
    read_frame,
    verdict_accepted,
)
from ash.seasoning import combine_shares
from ash.variants import ASH1, ASH2

# Largest payload of each frame type: an ASH-2 pepper, an ASH-2 section, one byte.
PAYLOAD_LIMITS = {
    FrameType.PEPPER_SHARE: 128,
    FrameType.CHALLENGE: 128,
    FrameType.RESPONSE: 64,
    FrameType.VERDICT: 1,
}


def _raw_frame(frame_type, payload):
    """Wire bytes built by hand, so a payload over the cap can reach the parsers."""
    return b"ASHP\x01" + bytes((frame_type,)) + len(payload).to_bytes(4, "big") + payload


def _read_one_frame(raw):
    """read_frame over raw bytes, as decode_frame's twin: the frame and the unread rest."""
    stream = io.BytesIO(raw)
    return read_frame(stream), stream.read()


PARSERS = {"decode_frame": decode_frame, "read_frame": _read_one_frame}


def test_empty_payload_frame_is_ten_bytes():
    raw = encode_frame(ProtocolFrame(FrameType.VERDICT, b""))
    assert len(raw) == HEADER_SIZE == 10
    assert raw[:4] == b"ASHP" and raw[4] == 0x01 and raw[5] == 0x04
    # one known answer: the length field is big-endian, the payload follows
    assert encode_frame(ProtocolFrame(FrameType.VERDICT, b"\x01")) == (
        b"ASHP\x01\x04\x00\x00\x00\x01\x01"
    )


def test_codec_round_trip_with_remainder():
    rng = random.Random(50)
    types = [rng.choice(list(FrameType)) for _ in range(20)]
    frames = [
        ProtocolFrame(t, rng.randbytes(rng.randrange(0, PAYLOAD_LIMITS[t] + 1))) for t in types
    ]
    buffer = b"".join(encode_frame(f) for f in frames) + b"tail"
    for expected in frames:
        frame, buffer = decode_frame(buffer)
        assert frame == expected
    assert buffer == b"tail"


def test_codec_round_trip_large_payloads():
    # the largest payload of each type decodes; 64 KiB and 1 MiB are refused
    rng = random.Random(51)
    for frame_type, limit in PAYLOAD_LIMITS.items():
        frame = ProtocolFrame(frame_type, rng.randbytes(limit))
        decoded, rest = decode_frame(encode_frame(frame))
        assert decoded == frame and rest == b""
        for size in (65535, 1 << 20):
            with pytest.raises(FrameError, match=f"declares {size} payload bytes"):
                decode_frame(encode_frame(ProtocolFrame(frame_type, rng.randbytes(size))))


def test_decode_errors_are_distinct():
    good = encode_frame(ProtocolFrame(FrameType.CHALLENGE, b"abc"))
    with pytest.raises(BadMagicError):
        decode_frame(b"JUNK" + good[4:])
    with pytest.raises(BadVersionError):
        decode_frame(good[:4] + b"\x02" + good[5:])
    with pytest.raises(BadFrameTypeError):
        decode_frame(good[:5] + b"\x09" + good[6:])
    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:-1])
    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:HEADER_SIZE - 1])


def test_declared_length_must_be_present():
    # header says 5 payload bytes, only 4 on the wire
    raw = b"ASHP\x01\x01" + (5).to_bytes(4, "big") + b"abcd"
    with pytest.raises(TruncatedFrameError):
        decode_frame(raw)


class _RecordingStream:
    """A readable stream that records every read size it is asked for."""

    def __init__(self, data: bytes):
        self._data = data
        self.requests = []

    def read(self, n):
        self.requests.append(n)
        out, self._data = self._data[:n], self._data[n:]
        return out


def test_read_frame_refuses_oversized_length_before_reading_payload():
    header = b"ASHP\x01\x02" + (0xFFFFFFFF).to_bytes(4, "big")
    stream = _RecordingStream(header + b"x" * 64)
    with pytest.raises(FrameError, match="4294967295"):
        read_frame(stream)
    assert stream.requests == [HEADER_SIZE]


@pytest.mark.parametrize("frame_type,limit", PAYLOAD_LIMITS.items())
def test_read_frame_bounds_each_frame_type(frame_type, limit):
    largest = encode_frame(ProtocolFrame(frame_type, bytes(limit)))
    assert read_frame(_RecordingStream(largest)) == ProtocolFrame(frame_type, bytes(limit))
    too_long = _raw_frame(frame_type, bytes(limit + 1))
    stream = _RecordingStream(too_long)
    with pytest.raises(FrameError):
        read_frame(stream)
    assert stream.requests == [HEADER_SIZE]


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("frame_type", PAYLOAD_LIMITS, ids=lambda t: t.name.lower())
def test_both_parsers_share_one_payload_bound(frame_type, parser):
    # a frame that declares and carries one byte more than its type allows
    # is refused by either parser, with the same error
    limit = PAYLOAD_LIMITS[frame_type]
    largest = encode_frame(ProtocolFrame(frame_type, bytes(limit)))
    assert PARSERS[parser](largest + b"tail") == (ProtocolFrame(frame_type, bytes(limit)), b"tail")
    too_long = _raw_frame(frame_type, bytes(limit + 1))
    with pytest.raises(FrameError) as caught:
        PARSERS[parser](too_long)
    assert type(caught.value) is FrameError
    assert str(caught.value) == (
        f"{frame_type.name} frame declares {limit + 1} payload bytes, at most {limit} allowed"
    )


@pytest.mark.parametrize("frame_type", PAYLOAD_LIMITS, ids=lambda t: t.name.lower())
def test_both_parsers_refuse_every_truncated_prefix_alike(frame_type):
    # every proper prefix of a frame: the same error type and message from
    # both parsers, except the empty one, a clean end of stream for read_frame
    raw = encode_frame(ProtocolFrame(frame_type, bytes(range(PAYLOAD_LIMITS[frame_type]))))
    assert read_frame(io.BytesIO(b"")) is None
    for end in range(1, len(raw)):
        with pytest.raises(TruncatedFrameError) as decoded:
            decode_frame(raw[:end])
        with pytest.raises(TruncatedFrameError) as read:
            read_frame(io.BytesIO(raw[:end]))
        assert type(read.value) is type(decoded.value)
        assert str(read.value) == str(decoded.value), end


@pytest.mark.parametrize("frame_type", PAYLOAD_LIMITS, ids=lambda t: t.name.lower())
def test_encode_frame_refuses_what_the_parsers_refuse(frame_type):
    # building applies the parsers' cap: a frame that encodes also decodes
    limit = PAYLOAD_LIMITS[frame_type]
    largest = ProtocolFrame(frame_type, bytes(limit))
    assert encode_frame(largest) == _raw_frame(frame_type, bytes(limit))
    with pytest.raises(FrameError) as built:
        encode_frame(ProtocolFrame(frame_type, bytes(limit + 1)))
    with pytest.raises(FrameError) as parsed:
        decode_frame(_raw_frame(frame_type, bytes(limit + 1)))
    assert type(built.value) is FrameError
    assert str(built.value) == str(parsed.value) == (
        f"{frame_type.name} frame declares {limit + 1} payload bytes, at most {limit} allowed"
    )


def test_read_frame_assembles_a_payload_from_short_reads():
    class Trickle(_RecordingStream):
        def read(self, n):
            return super().read(min(n, 3))

    frame = ProtocolFrame(FrameType.CHALLENGE, bytes(range(64)))
    stream = Trickle(encode_frame(frame))
    assert read_frame(stream) == frame
    with pytest.raises(TruncatedFrameError):
        read_frame(Trickle(encode_frame(frame)[:-1]))


def test_every_type_byte_is_checked_against_the_frame_types():
    for type_byte in range(256):
        raw = b"ASHP\x01" + bytes((type_byte,)) + (1).to_bytes(4, "big") + b"\x01"
        stream = _RecordingStream(raw)
        if 1 <= type_byte <= 4:
            member = FrameType(type_byte)
            decoded, rest = decode_frame(raw)
            assert decoded.frame_type is member and rest == b""
            assert read_frame(stream).frame_type is member
            assert ProtocolFrame(type_byte, b"\x01").frame_type is member
            assert ProtocolFrame(type_byte, b"\x01") == ProtocolFrame(member, b"\x01")
            continue
        message = f"^unknown frame type {type_byte:#x}$"
        with pytest.raises(BadFrameTypeError, match=message):
            decode_frame(raw)
        with pytest.raises(BadFrameTypeError, match=message):
            read_frame(stream)
        assert stream.requests == [HEADER_SIZE]  # refused before any payload byte
        with pytest.raises(BadFrameTypeError, match=message):
            ProtocolFrame(type_byte, b"\x01")


def test_frame_checks_run_in_wire_order():
    # magic, version, type, length bound, truncation: each raw header breaks
    # every later check too, so only the earliest one may report
    cases = [
        (b"JUNK\x02\x09" + (999).to_bytes(4, "big"), BadMagicError),
        (b"ASHP\x02\x09" + (999).to_bytes(4, "big"), BadVersionError),
        (b"ASHP\x01\x09" + (999).to_bytes(4, "big"), BadFrameTypeError),
    ]
    for raw, error in cases:
        with pytest.raises(error):
            decode_frame(raw)
        with pytest.raises(error):
            read_frame(_RecordingStream(raw))
    too_long = b"ASHP\x01\x04" + (2).to_bytes(4, "big")
    with pytest.raises(FrameError) as caught:
        read_frame(_RecordingStream(too_long))
    assert type(caught.value) is FrameError and "VERDICT" in str(caught.value)
    with pytest.raises(TruncatedFrameError):
        read_frame(_RecordingStream(too_long[:-2] + (1).to_bytes(2, "big")))


def test_frame_constructor_validates():
    with pytest.raises(BadFrameTypeError, match="^unknown frame type 0x7$"):
        ProtocolFrame(0x07, b"")


def test_frame_equals_only_a_frame_with_the_same_fields():
    frame = ProtocolFrame(FrameType.CHALLENGE, b"pepper")
    same = ProtocolFrame(frame_type=2, payload=b"pepper")
    assert same == frame and not same != frame and hash(same) == hash(frame)
    assert same.frame_type is FrameType.CHALLENGE
    assert {frame: 1}[same] == 1 and pickle.loads(pickle.dumps(frame)) == frame
    fields = (FrameType.CHALLENGE, b"pepper")
    assert frame != fields and fields != frame and not frame == fields
    assert frame != ProtocolFrame(FrameType.PEPPER_SHARE, b"pepper")
    assert repr(frame) == "ProtocolFrame(frame_type=<FrameType.CHALLENGE: 2>, payload=b'pepper')"
    for name in ("frame_type", "payload", "extra"):
        with pytest.raises(AttributeError):
            setattr(frame, name, b"")


@pytest.mark.parametrize("kind", [bytearray, memoryview], ids=["bytearray", "memoryview"])
@pytest.mark.parametrize("built_by", ["constructor", "decode_frame"])
def test_a_bytes_like_payload_is_held_as_bytes(kind, built_by):
    payload = bytes(range(64))
    expected = ProtocolFrame(FrameType.CHALLENGE, payload)
    if built_by == "constructor":
        buffer = bytearray(payload)
        frame = ProtocolFrame(FrameType.CHALLENGE, kind(buffer))
    else:
        buffer = bytearray(encode_frame(expected))
        frame, rest = decode_frame(kind(buffer))
        assert rest == b""
    assert frame.payload.__class__ is bytes
    assert frame == expected and hash(frame) == hash(expected)
    buffer[-1] ^= 0xFF  # the caller's buffer changes; the frame keeps what it was given
    assert frame == expected and frame.payload == payload


def test_a_payload_that_is_not_bytes_like_is_refused_when_the_frame_is_built():
    with pytest.raises(TypeError):
        ProtocolFrame(FrameType.CHALLENGE, "abc")
    # the frame type is checked before the payload
    with pytest.raises(BadFrameTypeError):
        ProtocolFrame(0x07, "abc")
    # a frame type that is not an int is refused by its type, not formatted;
    # one that only equals a known int, a bool included, is not taken for it
    for frame_type in ("x", 2.5, None, 2.0, True, False):
        with pytest.raises(TypeError, match=f"not {type(frame_type).__name__}$"):
            ProtocolFrame(frame_type, b"")


def test_pepper_agreement_two_parties():
    rng = random.Random(52)
    a, b = rng.randbytes(64), rng.randbytes(64)
    ours = combine_shares([a, b])
    theirs = combine_shares([b, a])
    assert ours == theirs == bytes(x ^ y for x, y in zip(a, b))


def test_pepper_agreement_alone_returns_own_share():
    share = random.Random(53).randbytes(64)
    assert combine_shares([share]) == share


def test_pepper_agreement_order_invariant():
    rng = random.Random(54)
    shares = [rng.randbytes(64) for _ in range(4)]
    assert combine_shares(shares) == combine_shares([shares[3], *shares[2::-1]])


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_challenge_response_accepts_identical_data(variant):
    message = b"the very same bytes on both ends"
    challenger, responder = Challenger(variant), Responder(variant)
    challenge = challenger.issue()
    response = responder.answer(challenge, message)
    verdict = challenger.check(response, message)
    assert challenger.accepted is True
    assert verdict_accepted(verdict) is True
    assert challenger.phase is Phase.DONE and responder.phase is Phase.DONE


def test_challenge_response_rejects_corrupted_data():
    rng = random.Random(55)
    for _ in range(50):
        message = bytearray(rng.randbytes(rng.randrange(1, 300)))
        challenger, responder = Challenger(ASH1), Responder(ASH1)
        challenge = challenger.issue()
        corrupted = bytearray(message)
        corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
        response = responder.answer(challenge, bytes(corrupted))
        verdict = challenger.check(response, bytes(message))
        assert challenger.accepted is False
        assert verdict_accepted(verdict) is False


def test_replayed_response_fails_new_session():
    message = b"replay target"
    first = Challenger(ASH1)
    old_response = Responder(ASH1).answer(first.issue(), message)

    second = Challenger(ASH1)
    second.issue()
    second.check(old_response, message)
    assert second.accepted is False


def test_fresh_pepper_per_session():
    peppers = set()
    for _ in range(50):
        challenger = Challenger(ASH1)
        peppers.add(challenger.issue().payload)
    assert len(peppers) == 50


def _snapshot(machine):
    return dict(vars(machine))


def test_challenger_rejects_out_of_phase_frames():
    challenger = Challenger(ASH1)
    response = ProtocolFrame(FrameType.RESPONSE, bytes(32))

    before = _snapshot(challenger)
    with pytest.raises(ProtocolError):
        challenger.check(response, b"data")  # no challenge issued yet
    assert _snapshot(challenger) == before

    challenger.issue()
    before = _snapshot(challenger)
    with pytest.raises(ProtocolError):
        challenger.issue()  # cannot issue twice
    assert _snapshot(challenger) == before

    with pytest.raises(ProtocolError):
        challenger.check(ProtocolFrame(FrameType.CHALLENGE, bytes(64)), b"data")
    assert _snapshot(challenger) == before

    with pytest.raises(ProtocolError):
        challenger.check(ProtocolFrame(FrameType.RESPONSE, bytes(31)), b"data")
    assert _snapshot(challenger) == before

    challenger.check(response, b"data")
    before = _snapshot(challenger)
    with pytest.raises(ProtocolError):
        challenger.check(response, b"data")  # session finished
    assert _snapshot(challenger) == before


def test_responder_rejects_out_of_phase_frames():
    responder = Responder(ASH1)
    challenge = ProtocolFrame(FrameType.CHALLENGE, bytes(64))

    before = _snapshot(responder)
    with pytest.raises(ProtocolError):
        responder.answer(ProtocolFrame(FrameType.VERDICT, b"\x01"), b"data")
    assert _snapshot(responder) == before

    with pytest.raises(ProtocolError):
        responder.answer(ProtocolFrame(FrameType.CHALLENGE, bytes(63)), b"data")
    assert _snapshot(responder) == before

    responder.answer(challenge, b"data")
    before = _snapshot(responder)
    with pytest.raises(ProtocolError):
        responder.answer(challenge, b"data")
    assert _snapshot(responder) == before


def test_state_machines_ignore_fuzzed_frames():
    rng = random.Random(56)
    challenger = Challenger(ASH1)
    challenger.issue()
    before = _snapshot(challenger)
    for _ in range(200):
        frame_type = rng.choice(list(FrameType))
        if frame_type is FrameType.RESPONSE:
            payload = rng.randbytes(rng.choice([0, 1, 31, 33, 64]))
        else:
            payload = rng.randbytes(rng.randrange(0, 70))
        with pytest.raises(ProtocolError):
            challenger.check(ProtocolFrame(frame_type, payload), b"data")
        assert _snapshot(challenger) == before


def test_verdict_parsing():
    assert verdict_accepted(ProtocolFrame(FrameType.VERDICT, b"\x01")) is True
    assert verdict_accepted(ProtocolFrame(FrameType.VERDICT, b"\x00")) is False
    with pytest.raises(ProtocolError):
        verdict_accepted(ProtocolFrame(FrameType.VERDICT, b"\x02"))
    with pytest.raises(ProtocolError):
        verdict_accepted(ProtocolFrame(FrameType.RESPONSE, b"\x01"))


def test_frames_built_from_bare_ints_are_refused_as_protocol_errors():
    # a bare int type used to stay an int, and the error message read .name
    with pytest.raises(ProtocolError, match="got RESPONSE"):
        Responder(ASH1).answer(ProtocolFrame(3, bytes(64)), b"x")
    challenger = Challenger(ASH1)
    challenger.issue()
    with pytest.raises(ProtocolError, match="got CHALLENGE"):
        challenger.check(ProtocolFrame(2, bytes(32)), b"x")
    with pytest.raises(ProtocolError, match="got PEPPER_SHARE"):
        verdict_accepted(ProtocolFrame(1, b"\x01"))


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_frames_built_from_bare_ints_are_answered_like_members(variant, monkeypatch):
    message = b"the same bytes on both ends"
    pepper = bytes(range(variant.pepper_size))
    by_int = Responder(variant).answer(ProtocolFrame(2, pepper), message)
    by_member = Responder(variant).answer(ProtocolFrame(FrameType.CHALLENGE, pepper), message)
    assert by_int == by_member and by_int.frame_type is FrameType.RESPONSE

    monkeypatch.setattr(ash.protocol, "generate_pepper", lambda _variant: pepper)
    challenger = Challenger(variant)
    challenger.issue()
    verdict = challenger.check(ProtocolFrame(3, by_int.payload), message)
    assert challenger.accepted is True
    assert verdict_accepted(ProtocolFrame(4, verdict.payload)) is True
    assert verdict_accepted(ProtocolFrame(4, b"\x00")) is False
