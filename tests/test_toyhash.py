"""The weak demonstration hash and the cascade experiment."""

import hashlib
import random
from array import array

import pytest

from ash.digest import create
from ash.errors import SizeMismatchError
from ash.toyhash import (
    BLOCK_SIZE,
    DIGEST_SIZE,
    _mix,
    collide,
    demonstrate_cascade,
    toy_hash,
    toy_variant,
)


def test_interface_conformance():
    toy = toy_hash()
    assert toy.block_size == BLOCK_SIZE == 8
    assert toy.digest_size == DIGEST_SIZE == 4
    for message in (b"", b"x", b"12345678", b"y" * 100):
        digest = toy.compute(message)
        assert len(digest) == 4
        assert toy.compute(message) == digest


def test_incremental_updates_match_one_shot():
    toy = toy_hash()
    rng = random.Random(60)
    for _ in range(50):
        message = rng.randbytes(rng.randrange(0, 200))
        h = toy.new()
        cut = rng.randrange(0, len(message) + 1)
        h.update(message[:cut])
        h.update(message[cut:])
        assert h.digest() == toy.compute(message)


@pytest.mark.parametrize("typecode", ["I", "Q"])
def test_a_buffer_is_hashed_as_its_bytes_as_hashlib_does(typecode):
    data = random.Random(65).randbytes(48)
    items = array(typecode, data)
    assert hashlib.sha256(items).digest() == hashlib.sha256(data).digest()
    assert toy_hash().compute(items) == toy_hash().compute(data)
    assert collide(array(typecode, data[:8])) == collide(data[:8])


def test_length_is_hashed():
    toy = toy_hash()
    assert toy.compute(b"") != toy.compute(b"\x00")
    assert toy.compute(b"\x00" * 8) != toy.compute(b"\x00" * 16)


def test_collide_returns_distinct_block():
    rng = random.Random(61)
    for _ in range(200):
        block = rng.randbytes(8)
        twin = collide(block)
        assert twin != block and len(twin) == 8


def test_collide_preserves_compression_for_all_states():
    rng = random.Random(62)
    for _ in range(10_000):
        block = rng.randbytes(8)
        twin = collide(block)
        for _ in range(16):
            state = rng.randrange(1 << 32)
            assert _mix(state, block) == _mix(state, twin)


def test_collide_rejects_wrong_size():
    with pytest.raises(SizeMismatchError):
        collide(b"short")


def test_single_block_messages_collide_end_to_end():
    toy = toy_hash()
    rng = random.Random(63)
    for _ in range(100):
        block = rng.randbytes(8)
        assert toy.compute(block) == toy.compute(collide(block))


def test_cascade_naive_collision_survives_any_suffix():
    rng = random.Random(64)
    for _ in range(100):
        prefix = rng.randbytes(8)
        suffix = rng.randbytes(8 * rng.randrange(1, 6))
        report = demonstrate_cascade(prefix, suffix)
        assert report.naive_collides is True


def test_cascade_restructuring_separates_the_twins():
    rng = random.Random(65)
    separated = 0
    for _ in range(200):
        prefix = rng.randbytes(8)
        suffix = rng.randbytes(8 * rng.randrange(1, 6))
        if not demonstrate_cascade(prefix, suffix).ash_collides:
            separated += 1
    assert separated == 200


def test_cascade_degenerate_single_block_is_a_fixed_point():
    # with nothing appended the stream is one block, the permutation is the
    # identity, and the equal word sums still collide on both paths
    report = demonstrate_cascade(b"AAAABBBB", b"")
    assert report.naive_collides is True
    assert report.ash_collides is True


def test_cascade_rejects_partial_blocks():
    with pytest.raises(SizeMismatchError):
        demonstrate_cascade(b"odd", b"")
    with pytest.raises(SizeMismatchError):
        demonstrate_cascade(b"AAAABBBB", b"odd")
    with pytest.raises(SizeMismatchError):
        demonstrate_cascade(b"", b"AAAABBBB")


def test_full_pipeline_with_toy_base_separates_twins():
    # the padded create() path pairs the twins' changed halves with padding
    # halves, so the sections diverge there as well
    variant = toy_variant()
    rng = random.Random(66)
    pepper = rng.randbytes(variant.pepper_size)
    for _ in range(100):
        block = rng.randbytes(8)
        ours = create(block, variant, pepper)
        forged = create(collide(block), variant, pepper)
        assert ours.static_section != forged.static_section
