"""Acceptance suite: one test per release criterion, full stated sample sizes.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The large-file criterion builds a sparse 1 GiB file and takes
a couple of minutes; everything else is fast.
"""

import os
import random

import pytest

from ash.digest import AshDigest, create, encode, verify
from ash.protocol import (
    Challenger,
    FrameType,
    ProtocolFrame,
    Responder,
    decode_frame,
    encode_frame,
    read_frame,
    verdict_accepted,
)
from ash.errors import FrameError, ProtocolError
from ash.restructure import interleave
from ash.seasoning import apply_pepper, combine_shares
from ash.toyhash import collide, demonstrate_cascade
from ash.variants import ASH1, ASH2

from oracle import oracle_ash1, oracle_ash2


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_format_exactness():
    for variant, offsets in ((ASH1, (0, 32, 64, 128)), (ASH2, (0, 64, 128, 256))):
        d = create(b"format", variant)
        raw = encode(d, "binary")
        assert len(raw) * 8 == variant.total_size * 8 == {ASH1: 1024, ASH2: 2048}[variant]
        start_s, start_d, start_p, end = offsets
        assert raw[start_s:start_d] == d.static_section
        assert raw[start_d:start_p] == d.dynamic_section
        assert raw[start_p:end] == d.pepper
    _report(1, "ASH-1 digest is 1024 bits (offsets 0/32/64), ASH-2 is 2048 bits (0/64/128)")


def test_criterion_2_permutation_known_answer():
    halves = [bytes([i]) * 32 for i in range(1, 11)]
    out = interleave(halves)
    observed = [out[i : i + 32][0] for i in range(0, 320, 32)]
    assert observed == [1, 6, 2, 7, 3, 8, 4, 9, 5, 10]
    _report(2, "ten half-blocks reorder to 1,6,2,7,3,8,4,9,5,10 exactly")


def test_criterion_3_base_hash_conformance():
    # delegated to the frozen published vectors in test_hashes.py; rerun the
    # module here so the acceptance suite is self-contained
    import test_hashes

    for message, expected in test_hashes.SHA256_VECTORS:
        assert test_hashes.sha256().compute(message).hex() == expected
    for message, expected in test_hashes.SHA512_VECTORS:
        assert test_hashes.sha512().compute(message).hex() == expected
    _report(3, "SHA-256/SHA-512 match the published vectors (empty, abc, 1-block, 2-block)")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(0xA5)
    for _ in range(1000):
        message = rng.randbytes(rng.randrange(0, 4097))
        pepper1, pepper2 = rng.randbytes(64), rng.randbytes(128)
        assert encode(create(message, ASH1, pepper1), "binary") == oracle_ash1(message, pepper1)
        assert encode(create(message, ASH2, pepper2), "binary") == oracle_ash2(message, pepper2)
    _report(4, "1000 random messages per variant match the straight-line oracle bit-exactly")


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_criterion_5_round_trip_and_bit_flips():
    rng = random.Random(0xB6)
    for _ in range(1000):
        message = rng.randbytes(rng.randrange(0, 600))
        assert verify(message, create(message, ASH1))
    for _ in range(500):
        message = rng.randbytes(rng.randrange(1, 600))
        d = create(message, ASH1)
        assert not verify(_flip_bit(message, rng.randrange(len(message) * 8)), d)
        tampered_pepper = AshDigest(
            d.variant, d.static_section, d.dynamic_section,
            _flip_bit(d.pepper, rng.randrange(512)),
        )
        assert not verify(message, tampered_pepper)
        tampered_static = AshDigest(
            d.variant, _flip_bit(d.static_section, rng.randrange(256)),
            d.dynamic_section, d.pepper,
        )
        assert not verify(message, tampered_static)
        tampered_dynamic = AshDigest(
            d.variant, d.static_section,
            _flip_bit(d.dynamic_section, rng.randrange(256)), d.pepper,
        )
        assert not verify(message, tampered_dynamic)
    _report(5, "1000 round trips match; 500x4 single-bit flips all mismatch")


def test_criterion_6_zero_pepper_degeneracy():
    rng = random.Random(0xC7)
    for variant in (ASH1, ASH2):
        for _ in range(10):
            d = create(rng.randbytes(rng.randrange(0, 500)), variant, bytes(variant.pepper_size))
            assert d.static_section == d.dynamic_section
    _report(6, "all-zero pepper makes dynamic section equal static section, both variants")


def test_criterion_7_cascade_demonstration():
    rng = random.Random(0xD8)
    naive_hits = ash_hits = 0
    trials = 1000
    for _ in range(trials):
        prefix = rng.randbytes(8)
        suffix = rng.randbytes(8 * rng.randrange(1, 8))  # stream spans >= 2 blocks
        report = demonstrate_cascade(prefix, suffix)
        naive_hits += report.naive_collides
        ash_hits += report.ash_collides
    assert naive_hits == trials
    assert ash_hits <= trials // 1000  # separation >= 99.9%
    _report(
        7,
        f"naive iterated hashing collides {naive_hits}/{trials}; "
        f"restructured pipeline collides {ash_hits}/{trials}",
    )


def test_criterion_8_xor_algebra():
    rng = random.Random(0xE9)
    for _ in range(1000):
        share = rng.randbytes(64)
        assert combine_shares([share]) == share
        assert combine_shares([share, share]) == bytes(64)
        others = [rng.randbytes(64) for _ in range(rng.randrange(2, 5))]
        shuffled = others[:]
        rng.shuffle(shuffled)
        assert combine_shares(others) == combine_shares(shuffled)
        stream = rng.randbytes(64 * rng.randrange(1, 5))
        pepper = rng.randbytes(64)
        assert apply_pepper(apply_pepper(stream, pepper), pepper) == stream
    _report(8, "share identities and pepper involution hold on 1000 random instances")


def test_criterion_9_protocol_fuzz():
    rng = random.Random(0xFA)

    # codec round trip, 10,000 random frames up to each type's largest
    # payload (an ASH-2 pepper or section, or a verdict byte); the first five
    # declare 1 MiB and are refused from the header
    limits = {
        FrameType.PEPPER_SHARE: 128,
        FrameType.CHALLENGE: 128,
        FrameType.RESPONSE: 64,
        FrameType.VERDICT: 1,
    }
    for i in range(10_000):
        frame_type = rng.choice(list(FrameType))
        size = (1 << 20) if i < 5 else rng.randrange(0, limits[frame_type] + 1)
        frame = ProtocolFrame(frame_type, rng.randbytes(size))
        if i < 5:
            with pytest.raises(FrameError, match="declares 1048576 payload bytes"):
                decode_frame(encode_frame(frame))
            continue
        decoded, rest = decode_frame(encode_frame(frame))
        assert decoded == frame and rest == b""

    # state machines reject junk without changing state
    challenger = Challenger(ASH1)
    challenger.issue()
    before = dict(vars(challenger))
    for _ in range(500):
        frame_type = rng.choice([FrameType.CHALLENGE, FrameType.VERDICT, FrameType.PEPPER_SHARE])
        with pytest.raises(ProtocolError):
            challenger.check(ProtocolFrame(frame_type, rng.randbytes(rng.randrange(0, 70))), b"x")
        assert dict(vars(challenger)) == before

    # piped challenger/responder over real file descriptors, 200 + 200 trials
    def send(stream, frame: ProtocolFrame) -> None:
        stream.write(encode_frame(frame))
        stream.flush()

    def run_session(message_c: bytes, message_r: bytes) -> bool:
        c2r_read, c2r_write = os.pipe()
        r2c_read, r2c_write = os.pipe()
        with open(c2r_read, "rb") as rx_r, open(c2r_write, "wb") as tx_c, \
             open(r2c_read, "rb") as rx_c, open(r2c_write, "wb") as tx_r:
            challenger, responder = Challenger(ASH1), Responder(ASH1)
            send(tx_c, challenger.issue())
            send(tx_r, responder.answer(read_frame(rx_r), message_r))
            send(tx_c, challenger.check(read_frame(rx_c), message_c))
            assert verdict_accepted(read_frame(rx_r)) is challenger.accepted
            return challenger.accepted

    accepts = rejects = 0
    for _ in range(200):
        message = rng.randbytes(rng.randrange(1, 400))
        accepts += run_session(message, message)
        corrupted = bytearray(message)
        corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
        rejects += not run_session(message, bytes(corrupted))
    assert accepts == 200 and rejects == 200
    _report(
        9,
        "10k frames round-trip; fuzzed frames never change state; "
        "200/200 piped accepts and 200/200 rejects",
    )


def test_criterion_10_large_file_equivalence(tmp_path):
    budget = 256 * 1024 * 1024
    size = 1024 * 1024 * 1024 + 7  # odd tail so the pad suffix is exercised
    path = tmp_path / "sparse.bin"
    with open(path, "wb") as handle:
        handle.truncate(size)
        handle.seek(512 * 1024 * 1024)
        handle.write(b"landmark")
    assert path.stat().st_size > budget

    pepper = random.Random(0x0B).randbytes(64)
    with open(path, "rb") as handle:
        streamed = create(handle, ASH1, pepper)
    in_memory = create(path.read_bytes(), ASH1, pepper)
    assert encode(streamed, "tagged") == encode(in_memory, "tagged")
    _report(10, "two-cursor and in-memory paths agree on a sparse 1 GiB file (256 MiB budget)")
