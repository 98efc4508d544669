"""Padding, splitting into half-blocks, and the interleave permutation.

``restructure`` below records what the digest pipeline actually feeds its
base hash, through the black-box hash seam, so the restructuring tests
check the chunked pipeline itself rather than a separate implementation.
"""

import dataclasses
import importlib
import random
import types

import pytest

from ash.digest import create
from ash.errors import MessageTooLongError, SizeMismatchError
from ash.restructure import interleave, interleave_runs, pad_message
from ash.toyhash import toy_hash
from ash.variants import ASH1, ASH2, AshVariant

from oracle import oracle_pad, oracle_permute


def split_halves(stream: bytes, variant: AshVariant) -> list[bytes]:
    h = variant.half_size
    return [stream[i : i + h] for i in range(0, len(stream), h)]


def restructure(message: bytes, variant: AshVariant) -> bytes:
    """The stream the digest pipeline hashes for ``message``."""
    fed = []

    class Recorder:
        def __init__(self):
            self.data = bytearray()
            fed.append(self.data)

        def update(self, chunk):
            self.data += chunk

        def digest(self):
            return bytes(variant.section_size)

    recording = dataclasses.replace(variant, base=dataclasses.replace(variant.base, new=Recorder))
    create(message, recording, bytes(variant.pepper_size))
    static, dynamic = fed
    assert static == dynamic  # the zero pepper leaves the dynamic input unchanged
    return bytes(static)


def test_restructure_is_a_module_attribute_of_the_package():
    module = importlib.import_module("ash.restructure")
    import ash.restructure

    assert isinstance(ash.restructure, types.ModuleType) and ash.restructure is module
    assert ash.restructure.pad_message(b"", ASH1) == oracle_pad(b"", 64, 8)


def test_pad_empty_message():
    padded = pad_message(b"", ASH1)
    assert padded == b"\x80" + bytes(55) + (0).to_bytes(8, "big")


def test_pad_abc():
    padded = pad_message(b"abc", ASH1)
    assert padded == b"abc\x80" + bytes(52) + (24).to_bytes(8, "big")


def test_pad_56_bytes_spills_into_second_block():
    # 0x80 plus the length field no longer fit after 56 message bytes
    assert len(pad_message(b"m" * 56, ASH1)) == 128
    assert len(pad_message(b"m" * 55, ASH1)) == 64


def test_pad_ash2_sizes():
    assert len(pad_message(b"", ASH2)) == 128
    assert len(pad_message(b"m" * 111, ASH2)) == 128
    assert len(pad_message(b"m" * 112, ASH2)) == 256


def test_pad_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        message = rng.randbytes(rng.randrange(0, 300))
        assert pad_message(message, ASH1) == oracle_pad(message, 64, 8)
        assert pad_message(message, ASH2) == oracle_pad(message, 128, 16)


def test_pad_injective_on_prefix_pairs():
    rng = random.Random(8)
    seen = {}
    for _ in range(500):
        message = rng.randbytes(rng.randrange(0, 200))
        for candidate in (message, message + b"\x00", message + b"\x80"):
            padded = pad_message(candidate, ASH1)
            assert seen.setdefault(padded, candidate) == candidate
    assert pad_message(b"", ASH1) != pad_message(b"\x00", ASH1)


def test_pad_length_overflow():
    tiny = AshVariant(name="tiny", tag="tiny", base=toy_hash(), length_field_size=1)
    pad_message(b"x" * 31, tiny)  # 248 bits still fits one byte
    with pytest.raises(MessageTooLongError):
        pad_message(b"x" * 32, tiny)


def test_split_one_block():
    # one block is one pair of halves, which the pipeline feeds in order
    for variant in (ASH1, ASH2):
        message = b"m" * (variant.block_size - variant.length_field_size - 1)
        padded = pad_message(message, variant)
        assert len(padded) == variant.block_size
        assert restructure(message, variant) == padded


def test_split_five_blocks_gives_ten_halves():
    message = random.Random(9).randbytes(5 * 64 - 9)  # pads to exactly five blocks
    halves = split_halves(pad_message(message, ASH1), ASH1)
    fed = split_halves(restructure(message, ASH1), ASH1)
    assert len(fed) == 10
    assert fed == [halves[i - 1] for i in (1, 6, 2, 7, 3, 8, 4, 9, 5, 10)]


def test_split_concatenation_round_trip():
    # regrouping the fed halves (even positions, then odd) rebuilds the padded stream
    rng = random.Random(9)
    for variant in (ASH1, ASH2):
        message = rng.randbytes(variant.block_size * 7 - 20)
        fed = split_halves(restructure(message, variant), variant)
        assert b"".join(fed[0::2] + fed[1::2]) == pad_message(message, variant)


def test_split_rejects_misaligned_stream():
    # runs are cut at half-block granularity; a partial half is refused
    with pytest.raises(SizeMismatchError):
        interleave_runs(bytes(31), bytes(31), 32)
    with pytest.raises(SizeMismatchError):
        interleave_runs(bytes(63), bytes(63), 32)


def test_interleave_ten_halves_known_order():
    halves = [bytes([i]) * 32 for i in range(1, 11)]
    expected = b"".join(halves[i - 1] for i in (1, 6, 2, 7, 3, 8, 4, 9, 5, 10))
    assert interleave(halves) == expected


def test_interleave_five_block_pairing_table():
    # halves A1 A2 B1 B2 C1 C2 D1 D2 E1 E2 regroup as (1&6)(2&7)(3&8)(4&9)(5&10)
    labels = ["A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2", "E1", "E2"]
    halves = [label.encode() * 16 for label in labels]
    out = interleave(halves)
    blocks = [out[i : i + 64] for i in range(0, len(out), 64)]
    expected_pairs = [("A1", "C2"), ("A2", "D1"), ("B1", "D2"), ("B2", "E1"), ("C1", "E2")]
    for block, (left, right) in zip(blocks, expected_pairs):
        assert block == left.encode() * 16 + right.encode() * 16


def test_interleave_single_block_is_identity():
    halves = [b"a" * 32, b"b" * 32]
    assert interleave(halves) == b"a" * 32 + b"b" * 32


def test_interleave_two_blocks():
    halves = [bytes([i]) * 32 for i in (1, 2, 3, 4)]
    assert interleave(halves) == b"".join(bytes([i]) * 32 for i in (1, 3, 2, 4))


def test_interleave_rejects_odd_count():
    with pytest.raises(SizeMismatchError):
        interleave([b"a" * 32] * 3)
    with pytest.raises(SizeMismatchError):
        interleave([])


def test_interleave_rejects_halves_of_unequal_or_zero_length():
    # the documented order of these four would be h1 h3 h2 h4 = ab gh cdef ijkl
    for halves in ([b"ab", b"cdef", b"gh", b"ijkl"], [b"ab", b"cd", b"ef", b"g"], [b"", b""]):
        with pytest.raises(SizeMismatchError):
            interleave(halves)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_interleave_round_trip(variant):
    rng = random.Random(10)
    for blocks in (1, 2, 3, 8, 33):
        stream = rng.randbytes(blocks * variant.block_size)
        permuted = split_halves(interleave(split_halves(stream, variant)), variant)
        assert len(b"".join(permuted)) == len(stream)
        assert b"".join(permuted[0::2] + permuted[1::2]) == stream
        assert sorted(permuted) == sorted(split_halves(stream, variant))


def test_restructure_composition_and_oracle():
    rng = random.Random(11)
    for _ in range(200):
        message = rng.randbytes(rng.randrange(0, 600))
        for variant, block, field in ((ASH1, 64, 8), (ASH2, 128, 16)):
            out = restructure(message, variant)
            assert out == interleave(split_halves(pad_message(message, variant), variant))
            assert out == oracle_permute(oracle_pad(message, block, field), block // 2)


def test_restructure_empty_message_is_single_padded_block():
    assert restructure(b"", ASH1) == pad_message(b"", ASH1)


def test_restructure_64_byte_message_order():
    message = bytes(range(64))
    padded = pad_message(message, ASH1)
    halves = split_halves(padded, ASH1)
    assert restructure(message, ASH1) == halves[0] + halves[2] + halves[1] + halves[3]


def test_restructure_length_preservation():
    rng = random.Random(12)
    for _ in range(100):
        message = rng.randbytes(rng.randrange(0, 1000))
        assert len(restructure(message, ASH1)) == len(pad_message(message, ASH1))


def test_appending_data_breaks_the_prefix():
    # once the padded stream grows and N >= 2, the reordered stream no
    # longer starts with the reordered original
    rng = random.Random(13)
    checked = 0
    for _ in range(300):
        message = rng.randbytes(rng.randrange(64, 400))
        suffix = rng.randbytes(rng.randrange(1, 200))
        before = pad_message(message, ASH1)
        after = pad_message(message + suffix, ASH1)
        if len(after) <= len(before) or len(before) < 128:
            continue
        checked += 1
        assert not restructure(message + suffix, ASH1).startswith(
            restructure(message, ASH1)
        )
    assert checked > 100


def test_fast_path_matches_list_interleave():
    rng = random.Random(14)
    for blocks in (1, 2, 3, 17, 9000):  # 9000 blocks crosses the pipeline's chunk length
        message = rng.randbytes(blocks * 64 - 9)  # pads to exactly `blocks` blocks
        padded = pad_message(message, ASH1)
        assert restructure(message, ASH1) == interleave(split_halves(padded, ASH1))


def test_interleave_runs_zips_half_blocks():
    first = b"\x01" * 32 + b"\x02" * 32
    second = b"\x03" * 32 + b"\x04" * 32
    assert interleave_runs(first, second, 32) == (
        b"\x01" * 32 + b"\x03" * 32 + b"\x02" * 32 + b"\x04" * 32
    )
    with pytest.raises(SizeMismatchError):
        interleave_runs(first, second[:32], 32)


@pytest.mark.parametrize("half_size", [4, 12, 32, 64, 68])
def test_interleave_runs_word_and_byte_copies_agree_with_the_oracle(half_size):
    # 32 and 64 copy 8-byte words once there are at least 16 times as many
    # pairs as words per half (64 and 128 pairs); fewer are split by struct.
    # Halves that are not whole words (the toy variant's 4, 12, 68) are
    # split by struct at every count, up to a full 2048-pair chunk.
    rng = random.Random(15)
    for pairs in (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 23, 24, 63, 64, 127, 128, 2048):
        first, second = rng.randbytes(pairs * half_size), rng.randbytes(pairs * half_size)
        assert interleave_runs(first, second, half_size) == oracle_permute(
            first + second, half_size
        )


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("half_size", [4, 32, 64])
def test_interleave_runs_returns_bytes_for_any_bytes_like_runs(half_size, kind):
    # one pair is joined as it stands; up to 63 pairs of 32-byte halves and
    # 127 of 64-byte halves are split by struct, and 64 and 128 pairs take
    # the word copy, whose memoryview casts must accept each kind of run
    rng = random.Random(16)
    for pairs in (1, 2, 11, 12, 23, 24, 63, 64, 127, 128):
        first, second = rng.randbytes(pairs * half_size), rng.randbytes(pairs * half_size)
        out = interleave_runs(kind(first), kind(second), half_size)
        assert type(out) is bytes
        assert out == oracle_permute(first + second, half_size)
