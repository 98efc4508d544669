"""XOR algebra for peppers, shares, and salts."""

import random

import pytest

from ash.digest import create
from ash.errors import SizeMismatchError
from ash.seasoning import apply_pepper, combine_shares, generate_pepper, make_salt
from ash.variants import ASH1, ASH2


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_generate_pepper_size(variant):
    assert len(generate_pepper(variant)) == variant.pepper_size


def test_generated_peppers_are_independent():
    seen = {generate_pepper(ASH1) for _ in range(1000)}
    assert len(seen) == 1000


def test_zero_pepper_is_identity():
    stream = random.Random(20).randbytes(64 * 5)
    assert apply_pepper(stream, bytes(64)) == stream


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_apply_pepper_is_involution(variant):
    rng = random.Random(21)
    for _ in range(50):
        blocks = rng.randrange(1, 20)
        stream = rng.randbytes(variant.block_size * blocks)
        pepper = rng.randbytes(variant.pepper_size)
        seasoned = apply_pepper(stream, pepper)
        assert len(seasoned) == len(stream)
        assert apply_pepper(seasoned, pepper) == stream


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_apply_pepper_with_a_prebuilt_mask_matches(variant):
    rng = random.Random(23)
    pepper = rng.randbytes(variant.pepper_size)
    full = 7  # blocks in a whole chunk
    mask = int.from_bytes(pepper * full, "big")
    stream = rng.randbytes(variant.block_size * full)
    assert apply_pepper(stream, pepper, mask=mask) == apply_pepper(stream, pepper)
    for blocks in (1, 3, 6):  # a short final chunk takes the mask's leading bytes
        short = stream[: variant.block_size * blocks]
        shifted = mask >> 8 * variant.block_size * (full - blocks)
        assert apply_pepper(short, pepper, mask=shifted) == apply_pepper(short, pepper)


def test_apply_pepper_bitwise_example():
    assert apply_pepper(b"\xff" * 64, b"\x0f" * 64) == b"\xf0" * 64


def test_pepper_tiles_across_every_block():
    pepper = bytes(range(64))
    stream = bytes(64 * 3)
    out = apply_pepper(stream, pepper)
    assert out == pepper * 3


def test_apply_pepper_rejects_misaligned_stream():
    with pytest.raises(SizeMismatchError):
        apply_pepper(bytes(65), bytes(64))
    with pytest.raises(SizeMismatchError):
        apply_pepper(bytes(64), b"")


def test_combine_single_share_is_identity():
    share = random.Random(22).randbytes(64)
    assert combine_shares([share]) == share


def test_combine_share_with_itself_is_zero():
    share = random.Random(23).randbytes(64)
    assert combine_shares([share, share]) == bytes(64)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_combine_is_order_invariant(variant):
    rng = random.Random(24)
    shares = [rng.randbytes(variant.pepper_size) for _ in range(5)]
    expected = combine_shares(shares)
    for _ in range(10):
        rng.shuffle(shares)
        assert combine_shares(shares) == expected


def test_one_random_share_masks_the_rest():
    # combine(shares + [r]) == combine(shares) XOR r: whoever contributes a
    # uniform share makes the output uniform
    rng = random.Random(25)
    for _ in range(100):
        shares = [rng.randbytes(64) for _ in range(rng.randrange(1, 6))]
        mask = rng.randbytes(64)
        combined = combine_shares(shares + [mask])
        assert combined == bytes(
            a ^ b for a, b in zip(combine_shares(shares), mask)
        )


def test_combine_over_a_generator_matches_a_list():
    rng = random.Random(27)
    shares = [rng.randbytes(64) for _ in range(5)]
    assert combine_shares(share for share in shares) == combine_shares(shares)
    with pytest.raises(ValueError):
        combine_shares(share for share in ())


def test_combine_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        combine_shares([])
    with pytest.raises(SizeMismatchError):
        combine_shares([bytes(64), bytes(63)])


def test_make_salt_concatenates_in_order():
    salt = make_salt(b"\xaa" * 32, b"\xbb" * 32, ASH1)
    assert salt[:32] == b"\xaa" * 32 and salt[32:] == b"\xbb" * 32
    assert len(make_salt(bytes(64), bytes(64), ASH2)) == 128


def test_make_salt_rejects_wrong_half_size():
    with pytest.raises(SizeMismatchError):
        make_salt(bytes(31), bytes(32), ASH1)
    with pytest.raises(SizeMismatchError):
        make_salt(bytes(32), bytes(33), ASH1)


def test_append_salt_lengths():
    # a salted message is message + salt: the salt alone for an empty
    # message, one block more than the message otherwise
    salt = make_salt(bytes(32), bytes(32), ASH1)
    assert b"" + salt == salt
    message = b"payload"
    assert len(message + salt) == len(message) + ASH1.block_size
    assert (message + salt)[len(message) :] == salt


def test_salted_comparison_between_two_parties():
    # both parties append the jointly built salt and hash with the same
    # pepper: equal files agree, different files do not
    rng = random.Random(26)
    for _ in range(20):
        message = rng.randbytes(rng.randrange(0, 500))
        half_a, half_b = rng.randbytes(32), rng.randbytes(32)
        salt = make_salt(half_a, half_b, ASH1)
        salted = message + salt
        # the salt is one block, laid out after the message, half_a first
        assert len(salted) == len(message) + ASH1.block_size
        assert salted[len(message) :] == half_a + half_b
        pepper = rng.randbytes(64)
        ours = create(salted, ASH1, pepper)
        theirs = create(message + salt, ASH1, pepper)
        assert ours == theirs
        tampered = create(message + b"!" + salt, ASH1, pepper)
        assert tampered.static_section != ours.static_section
