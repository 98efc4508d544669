"""Variant sizes, derived from the base hash and kept per instance."""

import dataclasses

import pytest

from ash.hashes import sha256
from ash.toyhash import toy_hash, toy_variant
from ash.variants import ASH1, ASH2

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
    before = sizes(variant)  # derived and kept on ``variant`` first
    swapped = dataclasses.replace(variant, base=other)
    assert sizes(swapped) == sizes_of_base(other) != before
    assert sizes(variant) == before == sizes_of_base(variant.base)
    back = dataclasses.replace(swapped, base=variant.base)
    assert sizes(back) == before


def test_kept_sizes_stay_out_of_equality_hashing_and_repr():
    fresh = dataclasses.replace(ASH1)
    assert fresh is not ASH1
    sizes(ASH1)  # ASH1 now keeps its sizes; ``fresh`` has derived none yet
    assert fresh == ASH1 and hash(fresh) == hash(ASH1)
    assert repr(fresh) == repr(ASH1)
    assert "half_size" not in repr(ASH1) and "total_size" not in repr(ASH1)
    assert [f.name for f in dataclasses.fields(ASH1)] == [
        "name", "tag", "base", "length_field_size"
    ]


def test_sizes_are_read_only():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ASH2.block_size = 1
