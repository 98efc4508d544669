"""Streaming file digests against the in-memory pipeline."""

import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ash.digest import create, dynamic_section, encode
from ash.errors import AshError
from ash.files import (
    _CHUNK_HALVES,
    DEFAULT_MEMORY_BUDGET,
    digest_file,
    digest_stream,
    spool_to_seekable,
)
from ash.toyhash import toy_hash, toy_variant
from ash.variants import ASH1, ASH2

from oracle import oracle_digest, oracle_pad

TOY = toy_variant()


class _ToyOracleHash:
    """hashlib-style constructor over the toy hash, for the oracle."""

    def __init__(self, data: bytes):
        self._h = toy_hash().new()
        self._h.update(data)

    def digest(self) -> bytes:
        return self._h.digest()


ORACLE_HASH = {ASH1: hashlib.sha256, ASH2: hashlib.sha512, TOY: _ToyOracleHash}

# sizes around block, half-chunk, and chunk boundaries
BOUNDARY_SIZES = [0, 1, 31, 32, 55, 56, 63, 64, 65, 127, 128, 129, 4096, 262143, 262144, 600000]


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_stream_matches_in_memory_at_boundaries(variant):
    rng = random.Random(70)
    pepper = rng.randbytes(variant.pepper_size)
    for size in BOUNDARY_SIZES:
        data = rng.randbytes(size)
        assert digest_stream(io.BytesIO(data), variant, pepper) == create(
            data, variant, pepper
        ), f"size {size}"


def test_stream_matches_in_memory_random_sizes():
    rng = random.Random(71)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 5000))
        pepper = rng.randbytes(64)
        assert digest_stream(io.BytesIO(data), ASH1, pepper) == create(data, ASH1, pepper)


def test_digest_file_round_trip(tmp_path):
    rng = random.Random(72)
    data = rng.randbytes(100_000)
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    pepper = rng.randbytes(64)
    assert digest_file(path, ASH1, pepper) == create(data, ASH1, pepper)


def test_digest_file_random_pepper_verifies(tmp_path):
    data = b"file with a random pepper"
    path = tmp_path / "f.bin"
    path.write_bytes(data)
    d = digest_file(path, ASH1)
    assert create(data, ASH1, d.pepper) == d


def test_stream_ignores_current_position():
    data = random.Random(73).randbytes(1000)
    pepper = bytes(64)
    handle = io.BytesIO(data)
    handle.seek(500)
    assert digest_stream(handle, ASH1, pepper) == create(data, ASH1, pepper)


class _Unseekable(io.RawIOBase):
    def __init__(self, data: bytes):
        self._inner = io.BytesIO(data)

    def readable(self):
        return True

    def read(self, n=-1):
        return self._inner.read(n)

    def seekable(self):
        return False


def test_spool_within_memory_budget():
    data = random.Random(74).randbytes(10_000)
    spool = spool_to_seekable(_Unseekable(data), memory_budget=DEFAULT_MEMORY_BUDGET)
    assert spool.read() == data
    spool.seek(0)
    assert digest_stream(spool, ASH1, bytes(64)) == create(data, ASH1, bytes(64))


def test_spool_spills_to_disk_below_budget():
    data = random.Random(75).randbytes(100_000)
    spool = spool_to_seekable(_Unseekable(data), memory_budget=1024)
    assert spool._rolled  # SpooledTemporaryFile went to disk
    assert digest_stream(spool, ASH1, bytes(64)) == create(data, ASH1, bytes(64))


def test_tagged_encoding_identical_between_paths(tmp_path):
    rng = random.Random(76)
    data = rng.randbytes(300_000)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    pepper = rng.randbytes(64)
    assert encode(digest_file(path, ASH1, pepper), "tagged") == encode(
        create(data, ASH1, pepper), "tagged"
    )


def _check_against_oracle(variant, message, pepper):
    expected = oracle_digest(
        message, pepper, ORACLE_HASH[variant], variant.block_size, variant.length_field_size
    )
    assert encode(create(message, variant, pepper), "binary") == expected
    assert encode(digest_stream(io.BytesIO(message), variant, pepper), "binary") == expected
    s = variant.section_size
    assert dynamic_section(io.BytesIO(message), variant, pepper) == expected[s : 2 * s]


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from([ASH1, ASH2, TOY]),
    blocks=st.integers(0, 40),
    offset=st.sampled_from([-1, 0, 1]),
    data=st.data(),
)
def test_core_matches_oracle_at_block_boundaries(variant, blocks, offset, data):
    length = max(0, blocks * variant.block_size + offset)
    message = data.draw(st.binary(min_size=length, max_size=length))
    pepper = data.draw(st.binary(min_size=variant.pepper_size, max_size=variant.pepper_size))
    _check_against_oracle(variant, message, pepper)


@settings(max_examples=6, deadline=None)
@given(
    variant=st.sampled_from([ASH1, ASH2]),
    pairs=st.sampled_from([_CHUNK_HALVES - 1, _CHUNK_HALVES, _CHUNK_HALVES + 1]),
    slack=st.integers(0, 63),
    seed=st.integers(0, 2**32 - 1),
)
def test_core_matches_oracle_around_the_chunk_length(variant, pairs, slack, seed):
    # the longest message that pads to `pairs` blocks, shortened by `slack`
    length = pairs * variant.block_size - variant.length_field_size - 1 - slack
    rng = random.Random(seed)
    message = rng.randbytes(length)
    assert len(oracle_pad(message, variant.block_size, variant.length_field_size)) == (
        pairs * variant.block_size
    )
    _check_against_oracle(variant, message, rng.randbytes(variant.pepper_size))


@settings(max_examples=40, deadline=None)
@given(message=st.binary(max_size=200), pepper=st.binary(min_size=8, max_size=8))
def test_core_matches_oracle_on_the_toy_variant(message, pepper):
    _check_against_oracle(TOY, message, pepper)


class _Shrinking(io.BytesIO):
    """A stream that loses its tail after the first read, as a truncated file does."""

    def read(self, n=-1):
        out = super().read(n)
        self.truncate(1)
        return out


@pytest.mark.parametrize("size", [200, 3 * 2 * 32 * _CHUNK_HALVES])
def test_input_that_shrinks_mid_read_raises(size):
    stream = _Shrinking(random.Random(77).randbytes(size))
    with pytest.raises(AshError, match="shrank"):
        digest_stream(stream, ASH1, bytes(64))
