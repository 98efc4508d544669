"""Digest assembly, verification, pairing, and the three encodings."""

import io
import mmap
import pickle
import random
import tempfile
from array import array

import pytest

from ash.digest import (
    AshDigest,
    create,
    create_pair,
    decode,
    dynamic_section,
    encode,
    sections_match,
    verify,
)
from ash.errors import DigestFormatError, SizeMismatchError
from ash.variants import ASH1, ASH2

from oracle import oracle_ash1, oracle_ash2

ZERO1, ZERO2 = bytes(64), bytes(128)

# Frozen vectors computed with the straight-line oracle before the library
# existed; see oracle.py.
ABC_ASH1_SECTION = "3305b5693152f4854c6f30163b5c22215d2003cc363b0d59c3b641a92451f375"
EMPTY_ASH1_SECTION = "a9e8913b13864096b9ea592f9548c87654aaf8df24e3437645fac174d1036e1c"
ABC_ASH2_SECTION = (
    "9361b60a90024f84c4f391ceedc889d7aefd40be78f9d2095640770bd8c904c7"
    "3f95615e549b69e8e2d625d776996d25d419a8cf333fa81c52ed0e1017167c07"
)

MSG300 = bytes(range(256)) + bytes((i * 7 + 3) % 256 for i in range(44))
PEP300_1 = bytes((i * 13 + 5) % 256 for i in range(64))
PEP300_2 = bytes((i * 13 + 5) % 256 for i in range(128))
MSG300_ASH1_STATIC = "869332e645be5cd5ec609cac9271dedbcb4a5fadf8432c2291c79a7eeacf84e8"
MSG300_ASH1_DYNAMIC = "d6e5211dda2c612a7eea5d148cf2b8c5488cb49785543720c04afa659ddd9d71"
MSG300_ASH2_STATIC = (
    "7c75d7e9d43a051714d7fad951befdc703a5e8470a7c94206e5062c7485e2c78"
    "b3360d4782f0024b93e3c7487f050059ccbcdb21651fd171bc7f829ec041ec6d"
)
MSG300_ASH2_DYNAMIC = (
    "fb9a3e017a82255311c806c4fac5658c5a14a4ab7f4888dc1e48fc5a91f017fc"
    "bf32c5ab0543fbebd3e3a06056de188b62b6c9252c368fbe75916c68898208c5"
)


def test_known_answer_abc_ash1():
    d = create(b"abc", ASH1, ZERO1)
    assert d.static_section.hex() == ABC_ASH1_SECTION
    assert d.dynamic_section.hex() == ABC_ASH1_SECTION


def test_known_answer_empty_ash1():
    d = create(b"", ASH1, ZERO1)
    assert d.static_section.hex() == EMPTY_ASH1_SECTION


def test_known_answer_abc_ash2():
    d = create(b"abc", ASH2, ZERO2)
    assert d.static_section.hex() == ABC_ASH2_SECTION


def test_known_answer_multi_block_both_variants():
    d1 = create(MSG300, ASH1, PEP300_1)
    assert d1.static_section.hex() == MSG300_ASH1_STATIC
    assert d1.dynamic_section.hex() == MSG300_ASH1_DYNAMIC
    d2 = create(MSG300, ASH2, PEP300_2)
    assert d2.static_section.hex() == MSG300_ASH2_STATIC
    assert d2.dynamic_section.hex() == MSG300_ASH2_DYNAMIC


def _chunk_message(length: int, tail: int) -> bytes:
    """Zeros, then ``tail`` bytes counting 0..250 over and over (a period prime to both blocks)."""
    return bytes(length - tail) + (bytes(range(251)) * (tail // 251 + 1))[:tail]


# Known answers over several pipeline chunks of 2048 half-block pairs: the
# lengths pad to exactly one chunk, to two with a short last chunk, to six,
# and to three whose first two chunks are all zeros (only a 4 KiB tail is
# not), which takes the zero-chunk path. Made with the oracle and
# cross-checked against the benchmark's numpy reference.
# (variant, length, tail, static section hex, dynamic section hex)
CHUNK_KNOWN_ANSWERS = [
    (
        ASH1, 131063, 131063,
        "b1eb7d95fd3d3ea35b8f0fe7151e6f446c1dd26b18e641b07621621e8a732d41",
        "61f9830d09af32628d6a852187568d76cf13789462540f37731fb4d5e59c7bc1",
    ),
    (
        ASH1, 132072, 132072,
        "ea0282f911beb6e7dd526789b4d08e722f4fd6c845823fff55d48273658f90c2",
        "7b343d3880b60efcb18c6d0335a49483726ea55e909d1e35e12fef3f87b5eaed",
    ),
    (
        ASH1, 786332, 786332,
        "c3e737261607b2523042d9cf326842b6061c00734ee566d97993ae31ddba236a",
        "462766dc79494c82182ae73dd17400f0af22e034d57932df5f075bb62df5f049",
    ),
    (
        ASH1, 388216, 4096,
        "661f42821102e49c3455a9709321f5796a01f82b66812bfaa8ae86a7dce33b62",
        "b75da853007b8d1b6ab0e94f87546b66891ac6eb516e71de21b68e5a5899b8ee",
    ),
    (
        ASH2, 262127, 262127,
        (
            "466485e95f0d3dde35f46b7c38ed96939f38fc2b1c599361b4772bc5390e8d9e"
            "4250646f65c0ee3dbeb11d8eb4c35a0c52c2de9ee429984d85469c65ee0fe2e5"
        ),
        (
            "2bcec72d727bfb2eb2b456259281f3d60c7ecf18a48b9edc2d8b1de272f91971"
            "0827b48dba872de4e64c9e433c341a79971f175dde9ead0d3013091f9f1fb6e6"
        ),
    ),
    (
        ASH2, 263144, 263144,
        (
            "baea95a379531d8ec14df81a0022c1c184f925e705c7bc86b75a5002482d2e13"
            "a83c51a55772df98afb916133262b289dd7f5cb38598693a6e441789c7277fd5"
        ),
        (
            "434d2c4c0929e81f0c9dcf2d46c25e24491804d4160ddb516e7edad9a87cce69"
            "6a3fb80a96a37f874e46c249d65d5fe47c4bcfa68613faaf7a5d1ba670a3df37"
        ),
    ),
    (
        ASH2, 1572764, 1572764,
        (
            "d7673572b6c7508f5cabf2fa8819ef737d73b071742d8396b31ac38f2c6f8ff8"
            "41b580005e84567456a428e4d484d2b847d1d641a30658285e46af82f403840a"
        ),
        (
            "5c37d8f342e8ed9e8552a5b9bb9d8d786d1fced0207ff7362a301a7fbd5a82bc"
            "1e6e58f2d5ca55d2496e25b118c8b268915d51b3c9689a6d31c87169ad820071"
        ),
    ),
    (
        ASH2, 781432, 4096,
        (
            "abcad0607ad74bfe5806f28109bf73e89150098cbf530f78e4a9d1f5e8cd4a13"
            "d940f182606bd125a903959cfa8005c5e679bccc2333e8eb4f1286992d542e76"
        ),
        (
            "f4566e39595042f3c9cda398102bf908edeaa02382395436d3d5cb66ed6101dd"
            "6d179ff62838564f88398d9f2e76b657d92636f939c90b162027b588b3ebe2d8"
        ),
    ),
]
CHUNK_KNOWN_ANSWER_IDS = [
    "ash1-1-chunk",
    "ash1-2-chunks",
    "ash1-6-chunks",
    "ash1-zero-chunks",
    "ash2-1-chunk",
    "ash2-2-chunks",
    "ash2-6-chunks",
    "ash2-zero-chunks",
]


@pytest.mark.parametrize(
    "variant,length,tail,static,dynamic", CHUNK_KNOWN_ANSWERS, ids=CHUNK_KNOWN_ANSWER_IDS
)
def test_known_answers_over_several_chunks(variant, length, tail, static, dynamic, tmp_path):
    message = _chunk_message(length, tail)
    pepper = PEP300_1 if variant is ASH1 else PEP300_2
    path = tmp_path / "message.bin"
    path.write_bytes(message)
    with open(path, "rb") as handle:
        for source in (message, handle):
            d = create(source, variant, pepper)
            assert (d.static_section.hex(), d.dynamic_section.hex()) == (static, dynamic)
            assert verify(source, d)
            assert dynamic_section(source, variant, pepper).hex() == dynamic


def test_create_matches_oracle_on_random_messages():
    rng = random.Random(30)
    for _ in range(100):
        message = rng.randbytes(rng.randrange(0, 2000))
        p1, p2 = rng.randbytes(64), rng.randbytes(128)
        assert encode(create(message, ASH1, p1), "binary") == oracle_ash1(message, p1)
        assert encode(create(message, ASH2, p2), "binary") == oracle_ash2(message, p2)


@pytest.mark.parametrize("variant,zero", [(ASH1, ZERO1), (ASH2, ZERO2)], ids=["ash1", "ash2"])
def test_zero_pepper_degeneracy(variant, zero):
    rng = random.Random(31)
    for _ in range(20):
        d = create(rng.randbytes(rng.randrange(0, 500)), variant, zero)
        assert d.static_section == d.dynamic_section


def test_static_section_ignores_pepper():
    rng = random.Random(32)
    message = rng.randbytes(333)
    sections = {create(message, ASH1, rng.randbytes(64)).static_section for _ in range(50)}
    assert len(sections) == 1


def test_random_peppers_give_distinct_dynamic_sections():
    rng = random.Random(33)
    message = b"same message"
    d1 = create(message, ASH1, rng.randbytes(64))
    d2 = create(message, ASH1, rng.randbytes(64))
    assert d1.static_section == d2.static_section
    assert d1.dynamic_section != d2.dynamic_section


def test_create_supplied_pepper_must_fit():
    with pytest.raises(SizeMismatchError):
        create(b"x", ASH1, bytes(63))
    with pytest.raises(SizeMismatchError):
        create(b"x", ASH2, bytes(64))


def test_dynamic_section_matches_create():
    rng = random.Random(34)
    message, pepper = rng.randbytes(100), rng.randbytes(64)
    assert dynamic_section(message, ASH1, pepper) == create(message, ASH1, pepper).dynamic_section


def test_verify_round_trip():
    rng = random.Random(35)
    for _ in range(50):
        message = rng.randbytes(rng.randrange(0, 1000))
        assert verify(message, create(message, ASH1))
        assert verify(message, create(message, ASH2))


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_verify_rejects_message_bit_flips():
    rng = random.Random(36)
    for _ in range(50):
        message = rng.randbytes(rng.randrange(1, 500))
        d = create(message, ASH1)
        assert not verify(_flip_bit(message, rng.randrange(len(message) * 8)), d)


def test_verify_rejects_pepper_bit_flips():
    # static still matches, but the dynamic section no longer reproduces
    rng = random.Random(37)
    for _ in range(50):
        message = rng.randbytes(rng.randrange(0, 500))
        d = create(message, ASH1)
        tampered = AshDigest(
            d.variant,
            d.static_section,
            d.dynamic_section,
            _flip_bit(d.pepper, rng.randrange(64 * 8)),
        )
        recomputed = create(message, tampered.variant, tampered.pepper)
        assert recomputed.static_section == tampered.static_section
        assert not verify(message, tampered)


def test_verify_rejects_section_bit_flips():
    rng = random.Random(38)
    message = rng.randbytes(200)
    d = create(message, ASH1)
    bad_static = AshDigest(
        d.variant, _flip_bit(d.static_section, 5), d.dynamic_section, d.pepper
    )
    bad_dynamic = AshDigest(
        d.variant, d.static_section, _flip_bit(d.dynamic_section, 200), d.pepper
    )
    assert not verify(message, bad_static)
    assert not verify(message, bad_dynamic)


@pytest.mark.parametrize("as_stream", [False, True], ids=["bytes", "stream"])
@pytest.mark.parametrize("variant", [ASH1, ASH2])
def test_verify_fails_when_either_section_alone_is_flipped(variant, as_stream):
    def message():
        return io.BytesIO(MSG300) if as_stream else MSG300

    d = create(MSG300, variant)
    assert verify(message(), d) is True
    for bit in (0, 8 * variant.section_size - 1):
        static, dynamic = _flip_bit(d.static_section, bit), _flip_bit(d.dynamic_section, bit)
        assert verify(message(), AshDigest(variant, static, d.dynamic_section, d.pepper)) is False
        assert verify(message(), AshDigest(variant, d.static_section, dynamic, d.pepper)) is False


@pytest.mark.parametrize("variant", [ASH1, ASH2])
def test_sections_match_compares_both_sections_and_not_the_pepper(variant):
    d = create(MSG300, variant)
    zero_pepper = bytes(variant.pepper_size)
    assert sections_match(d, AshDigest(variant, d.static_section, d.dynamic_section, zero_pepper))
    bad_static = AshDigest(variant, _flip_bit(d.static_section, 5), d.dynamic_section, d.pepper)
    bad_dynamic = AshDigest(variant, d.static_section, _flip_bit(d.dynamic_section, 200), d.pepper)
    for bad in (bad_static, bad_dynamic):
        assert not sections_match(d, bad)
        assert not sections_match(bad, d)


def test_digest_binds_its_pepper():
    # a digest claiming a different pepper never verifies for the same message
    rng = random.Random(39)
    for _ in range(50):
        message = rng.randbytes(rng.randrange(0, 300))
        d = create(message, ASH1, rng.randbytes(64))
        other = rng.randbytes(64)
        claim = AshDigest(d.variant, d.static_section, d.dynamic_section, other)
        assert not verify(message, claim)


def test_create_pair_properties():
    rng = random.Random(40)
    for _ in range(20):
        message = rng.randbytes(rng.randrange(0, 400))
        public, secret = create_pair(message, ASH1)
        assert public.static_section == secret.static_section
        assert public.pepper != secret.pepper
        assert public.dynamic_section != secret.dynamic_section
        assert verify(message, public) and verify(message, secret)


def test_malformed_digest_cannot_be_constructed():
    d = create(b"x", ASH1)
    with pytest.raises(SizeMismatchError, match="^static section is 31 bytes, wanted 32$"):
        AshDigest(ASH1, d.static_section[:-1], d.dynamic_section, d.pepper)
    with pytest.raises(SizeMismatchError, match="^dynamic section is 33 bytes, wanted 32$"):
        AshDigest(ASH1, d.static_section, d.dynamic_section + b"\x00", d.pepper)
    with pytest.raises(SizeMismatchError, match="^pepper is 65 bytes, wanted 64$"):
        AshDigest(ASH1, d.static_section, d.dynamic_section, d.pepper + b"\x00")


def test_digest_equals_only_a_digest_with_the_same_fields():
    d = create(b"fields", ASH1, ZERO1)
    fields = (d.variant, d.static_section, d.dynamic_section, d.pepper)
    same = AshDigest(
        variant=ASH1,
        static_section=d.static_section,
        dynamic_section=d.dynamic_section,
        pepper=ZERO1,
    )
    assert same == d and not same != d and hash(same) == hash(d)
    assert {d: 1}[same] == 1 and pickle.loads(pickle.dumps(d)) == d
    # the same four values in a plain tuple are not a digest, from either side
    assert d != fields and fields != d and not d == fields and not fields == d
    other = AshDigest(ASH1, d.static_section, d.dynamic_section, bytes(range(64)))
    assert other != d and not other == d
    assert repr(d) == (
        f"AshDigest(variant={ASH1!r}, static_section={d.static_section!r}, "
        f"dynamic_section={d.dynamic_section!r}, pepper={ZERO1!r})"
    )


def test_digest_fields_are_read_only():
    d = create(b"read only", ASH1)
    for name in ("variant", "static_section", "dynamic_section", "pepper", "extra"):
        with pytest.raises(AttributeError):
            setattr(d, name, b"")
    assert d == create(b"read only", ASH1, d.pepper)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
@pytest.mark.parametrize("typecode", ["B", "I"])
def test_any_contiguous_buffer_is_hashed_as_its_raw_bytes(variant, typecode):
    pepper = bytes(range(variant.pepper_size))
    # one chunk and, at 160 KiB, more than one; an mmap of the same bytes has
    # seek as well, and is still hashed as a buffer
    for count in (7, 40000):
        items = array(typecode, (i % 251 for i in range(count)))
        expected = create(items.tobytes(), variant, pepper)
        with tempfile.TemporaryFile() as file:
            items.tofile(file)
            file.flush()
            with mmap.mmap(file.fileno(), 0) as mapped:
                for message in (items, mapped):
                    assert create(message, variant, pepper) == expected
                    assert verify(message, expected)
                    assert dynamic_section(message, variant, pepper) == expected.dynamic_section


@pytest.mark.parametrize("message", ["abc", 3, None], ids=["str", "int", "None"])
def test_a_message_neither_bytes_like_nor_a_stream_is_refused(message):
    with pytest.raises(TypeError, match=f"not {type(message).__name__}$"):
        create(message, ASH1)


def test_bytes_like_pepper_is_copied_into_the_digest():
    pepper = bytearray(range(64))
    d = create(b"pepper", ASH1, pepper)
    pepper[0] ^= 1
    assert d.pepper == bytes(range(64)) and type(d.pepper) is bytes
    assert hash(d) == hash(create(b"pepper", ASH1, bytes(range(64))))
    assert verify(b"pepper", d)


def test_memoryview_pepper_gives_the_bytes_digest():
    pepper = bytes(range(64))
    expected = create(b"pepper", ASH1, pepper)
    assert create(b"pepper", ASH1, memoryview(pepper)) == expected
    assert dynamic_section(b"pepper", ASH1, memoryview(pepper)) == expected.dynamic_section


@pytest.mark.parametrize(
    "kind",
    [bytearray, memoryview, lambda b: array("I", b)],
    ids=["bytearray", "memoryview", "array-I"],
)
@pytest.mark.parametrize("use", ["hash", "verify", "encode"])
def test_a_digest_built_from_bytes_like_fields_holds_bytes(kind, use):
    d = create(b"fields", ASH1, bytes(range(64)))
    buffers = [bytearray(field) for field in d[1:]]
    built = AshDigest(ASH1, *(kind(b) for b in buffers))
    if use == "hash":
        assert hash(built) == hash(d)
    elif use == "verify":
        assert verify(b"fields", built)
    else:
        assert encode(built, "binary") == encode(d, "binary")
    for b in buffers:
        b[0] ^= 1  # the digest keeps what it was built from
    assert built == d and all(type(field) is bytes for field in built[1:])


@pytest.mark.parametrize("field", [1, 2, 3], ids=["static", "dynamic", "pepper"])
def test_a_digest_field_that_is_not_bytes_like_is_refused(field):
    # bytes(n) is n zero bytes, which would pass as a field of the right size
    d = create(b"fields", ASH1)
    fields = list(d)
    for value in (len(d[field]), "x" * len(d[field]), None):
        fields[field] = value
        with pytest.raises(TypeError):
            AshDigest(*fields)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_encoding_round_trips(variant):
    d = create(b"round trip", variant)
    for form in ("binary", "hex", "tagged"):
        assert decode(encode(d, form)) == d


def test_binary_layout():
    d = create(b"layout", ASH1)
    raw = encode(d, "binary")
    assert isinstance(raw, bytes) and len(raw) == 128
    assert raw[:32] == d.static_section
    assert raw[32:64] == d.dynamic_section
    assert raw[64:] == d.pepper


def test_text_encodings():
    d1, d2 = create(b"t", ASH1), create(b"t", ASH2)
    assert len(encode(d1, "hex")) == 256
    assert len(encode(d2, "hex")) == 512
    assert encode(d1, "tagged").startswith("ash1:")
    tagged2 = encode(d2, "tagged")
    assert tagged2.startswith("ash2:") and len(tagged2) == 5 + 512
    assert encode(d1, "hex") == encode(d1, "hex").lower()


def test_decode_binary_infers_variant_from_length():
    d1, d2 = create(b"a", ASH1), create(b"a", ASH2)
    assert decode(encode(d1, "binary")).variant == ASH1
    assert decode(encode(d2, "binary")).variant == ASH2


def test_decode_reads_hex_bytes_as_text_before_binary():
    # 256 bytes of ASH-1 hex are also the size of a binary ASH-2 digest
    d = create(b"hex on disk", ASH1)
    as_bytes = encode(d, "hex").encode("ascii")
    assert len(as_bytes) == ASH2.total_size
    assert decode(as_bytes) == d
    assert decode(bytearray(as_bytes)) == d
    assert decode(encode(d, "tagged").encode("ascii")) == d


def test_decode_binary_digest_made_of_hex_digits_stays_binary():
    # 128 hex digits are no text digest, so those bytes are read as binary
    # ASH-1; 256 of them would be ASH-1 hex, which a random binary ASH-2
    # digest is with probability (22/256)**256
    raw = bytes(random.Random(41).choice(b"0123456789abcdef") for _ in range(128))
    d = decode(raw)
    assert d.variant == ASH1 and encode(d, "binary") == raw
    # 254 hex digits with two spaces between pairs are no ASH-1 hex either
    digits = bytes(random.Random(42).choice(b"0123456789abcdef") for _ in range(254))
    raw = digits[:100] + b" " + digits[100:200] + b" " + digits[200:]
    d = decode(raw)
    assert d.variant == ASH2 and encode(d, "binary") == raw


def test_decode_accepts_surrounding_whitespace():
    d = create(b"ws", ASH1)
    assert decode("  " + encode(d, "tagged") + "\n") == d


def test_decode_errors_name_the_problem():
    with pytest.raises(DigestFormatError, match="length"):
        decode(bytes(127))
    with pytest.raises(DigestFormatError, match="length"):
        decode("ab" * 100)
    with pytest.raises(DigestFormatError, match="tag"):
        decode("ash9:" + "00" * 128)
    with pytest.raises(DigestFormatError, match="hex"):
        decode("ash1:" + "zz" * 128)
    with pytest.raises(DigestFormatError, match="length"):
        decode("ash1:" + "00" * 100)
    with pytest.raises(DigestFormatError, match="bad length: 100 bytes is not a binary"):
        decode(b"\xff" * 100)
    # 256 characters, but two are spaces between pairs: 127 bytes of hex
    spaced = "ab" * 60 + " " + "ab" * 60 + " " + "ab" * 7
    for text in (spaced, "ash1:" + spaced):
        with pytest.raises(DigestFormatError, match="bad hex"):
            decode(text)


@pytest.mark.parametrize("count", [128, 256])
def test_decode_refuses_an_int(count):
    # bytes(n) is n zero bytes, which would pass as an all-zero digest
    with pytest.raises(TypeError):
        decode(count)


def test_encode_rejects_unknown_form():
    with pytest.raises(ValueError):
        encode(create(b"x", ASH1), "base64")
