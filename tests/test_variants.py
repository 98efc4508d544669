"""Variant sizes, derived from the base hash when a variant is built."""

import dataclasses

import pytest

from ash.errors import AshError
from ash.hashes import sha256
from ash.toyhash import toy_hash, toy_variant
from ash.variants import ASH1, ASH2, get_variant

SIZES = ("block_size", "half_size", "section_size", "pepper_size", "total_size")


def sizes(variant):
    return tuple(getattr(variant, name) for name in SIZES)


def sizes_of_base(base):
    block, digest = base.block_size, base.digest_size
    return block, block // 2, digest, block, 2 * digest + block


def test_standard_variant_sizes():
    assert sizes(ASH1) == (64, 32, 32, 64, 128)
    assert sizes(ASH2) == (128, 64, 64, 128, 256)


@pytest.mark.parametrize(
    "variant, other", [(ASH1, toy_hash()), (toy_variant(), sha256())], ids=["ash1", "toy"]
)
def test_replace_takes_every_size_from_the_new_base(variant, other):
    before = sizes(variant)
    swapped = dataclasses.replace(variant, base=other)
    assert sizes(swapped) == sizes_of_base(other) != before
    assert sizes(variant) == before == sizes_of_base(variant.base)
    back = dataclasses.replace(swapped, base=variant.base)
    assert sizes(back) == before


def test_kept_sizes_stay_out_of_equality_hashing_and_repr():
    fresh = dataclasses.replace(ASH1)
    assert fresh is not ASH1
    sizes(ASH1)  # both hold their sizes from construction, outside the fields
    assert fresh == ASH1 and hash(fresh) == hash(ASH1)
    assert repr(fresh) == repr(ASH1)
    assert "half_size" not in repr(ASH1) and "total_size" not in repr(ASH1)
    assert [f.name for f in dataclasses.fields(ASH1)] == [
        "name", "tag", "base", "length_field_size"
    ]


def test_sizes_are_read_only():
    for name in SIZES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ASH2, name, 1)


def test_a_variant_needs_an_even_block_and_a_length_field():
    odd = dataclasses.replace(sha256(), block_size=63)
    with pytest.raises(AshError, match="ASH-1: base block size must be even"):
        dataclasses.replace(ASH1, base=odd)
    with pytest.raises(AshError, match="ASH-1: length field must be at least one byte"):
        dataclasses.replace(ASH1, length_field_size=0)


def test_get_variant_takes_either_tag_in_any_case():
    assert get_variant("ash1") is ASH1 and get_variant("ASH2") is ASH2
    with pytest.raises(AshError, match="unknown variant 'sha3'; expected ash1 or ash2"):
        get_variant("sha3")
