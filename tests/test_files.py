"""Streaming file digests against the in-memory pipeline."""

import dataclasses
import errno
import gc
import hashlib
import io
import json
import mmap
import os
import pathlib
import platform
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ash.files
from ash import cli
from ash.digest import AshDigest, create, dynamic_section, encode, verify
from ash.errors import AshError
from ash.files import _CHUNK_HALVES, DEFAULT_MEMORY_BUDGET, spool_to_seekable
from ash.toyhash import toy_hash, toy_variant
from ash.variants import ASH1, ASH2

from oracle import oracle_digest, oracle_pad

TOY = toy_variant()
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


class _ToyOracleHash:
    """hashlib-style constructor over the toy hash, for the oracle."""

    def __init__(self, data: bytes):
        self._h = toy_hash().new()
        self._h.update(data)

    def digest(self) -> bytes:
        return self._h.digest()


ORACLE_HASH = {ASH1: hashlib.sha256, ASH2: hashlib.sha512, TOY: _ToyOracleHash}

# bytes in one ASH-1 chunk, and in one ASH-2 chunk
CHUNK_BYTES = _CHUNK_HALVES * ASH1.block_size
CHUNK_BYTES_ASH2 = _CHUNK_HALVES * ASH2.block_size

# sizes around block, half-chunk, and chunk boundaries, then several chunks of either variant
BOUNDARY_SIZES = [0, 1, 31, 32, 55, 56, 63, 64, 65, 127, 128, 129, 4096]
BOUNDARY_SIZES += [CHUNK_BYTES // 2 - 1, CHUNK_BYTES // 2, CHUNK_BYTES - 1, CHUNK_BYTES]
BOUNDARY_SIZES += [3 * CHUNK_BYTES_ASH2 + 1000]


def _create_on_open_file(path, variant, pepper=None):
    """``create`` on a file opened by path, as the CLI calls it."""
    with open(path, "rb") as stream:
        return create(stream, variant, pepper)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
def test_stream_matches_in_memory_at_boundaries(variant):
    rng = random.Random(70)
    pepper = rng.randbytes(variant.pepper_size)
    for size in BOUNDARY_SIZES:
        data = rng.randbytes(size)
        assert create(io.BytesIO(data), variant, pepper) == create(
            data, variant, pepper
        ), f"size {size}"


def test_stream_matches_in_memory_random_sizes():
    rng = random.Random(71)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 5000))
        pepper = rng.randbytes(64)
        assert create(io.BytesIO(data), ASH1, pepper) == create(data, ASH1, pepper)


def test_digest_file_round_trip(tmp_path):
    rng = random.Random(72)
    data = rng.randbytes(100_000)
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    pepper = rng.randbytes(64)
    assert _create_on_open_file(path, ASH1, pepper) == create(data, ASH1, pepper)


def test_digest_file_random_pepper_verifies(tmp_path):
    data = b"file with a random pepper"
    path = tmp_path / "f.bin"
    path.write_bytes(data)
    d = _create_on_open_file(path, ASH1)
    assert create(data, ASH1, d.pepper) == d


def test_stream_ignores_current_position():
    data = random.Random(73).randbytes(1000)
    pepper = bytes(64)
    handle = io.BytesIO(data)
    handle.seek(500)
    assert create(handle, ASH1, pepper) == create(data, ASH1, pepper)


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
    with spool_to_seekable(_Unseekable(data), memory_budget=DEFAULT_MEMORY_BUDGET) as spool:
        assert spool.read() == data
        spool.seek(0)
        assert create(spool, ASH1, bytes(64)) == create(data, ASH1, bytes(64))


def test_spool_spills_to_disk_below_budget():
    data = random.Random(75).randbytes(100_000)
    with spool_to_seekable(_Unseekable(data), memory_budget=1024) as spool:
        assert spool._rolled  # SpooledTemporaryFile went to disk
        assert create(spool, ASH1, bytes(64)) == create(data, ASH1, bytes(64))


@pytest.mark.parametrize("size", [0, 3 << 20])
def test_spool_with_a_zero_budget_spills_at_once(size):
    # SpooledTemporaryFile reads a max_size of 0 as "no limit", so a budget
    # of 0 once held the whole input in memory
    data = random.Random(90).randbytes(size)
    with spool_to_seekable(io.BytesIO(data), memory_budget=0) as spool:
        assert spool._rolled
        assert spool.read() == data


@pytest.mark.parametrize("budget", [0, 1 << 20, 2 << 20])
def test_a_spool_stays_within_its_memory_budget(budget):
    # the copy buffers count against the budget: two 1 MiB ones alive at
    # once would take the peak 2 MiB past it, shutil's default 64 KiB do not
    source = _Unseekable(random.Random(91).randbytes(4 << 20))
    tracemalloc.start()
    try:
        with spool_to_seekable(source, memory_budget=budget):
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget + (512 << 10)


class _FailsAfter(io.RawIOBase):
    """Gives ``size`` zero bytes, then fails every read with EIO."""

    def __init__(self, size):
        self.left = size

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.left:
            raise OSError(errno.EIO, "input/output error")
        count = min(len(buffer), self.left)
        buffer[:count] = bytes(count)
        self.left -= count
        return count


@pytest.mark.parametrize("budget", [0, 1 << 20])
def test_a_failed_spool_is_closed_before_the_error_propagates(budget):
    # 2 MiB is past either budget, so the spool is on disk when the read fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="input/output error"):
            spool_to_seekable(_FailsAfter(2 << 20), memory_budget=budget)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_tagged_encoding_identical_between_paths(tmp_path):
    rng = random.Random(76)
    data = rng.randbytes(300_000)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    pepper = rng.randbytes(64)
    assert encode(_create_on_open_file(path, ASH1, pepper), "tagged") == encode(
        create(data, ASH1, pepper), "tagged"
    )


def _check_against_oracle(variant, message, pepper, tmp_path=None):
    expected = oracle_digest(
        message, pepper, ORACLE_HASH[variant], variant.block_size, variant.length_field_size
    )
    s = variant.section_size
    claimed = AshDigest(variant, expected[:s], expected[s : 2 * s], pepper)
    # one chunk or less is hashed in a straight line and longer input by the
    # chunk loop, so every entry point runs on every kind of source
    for source in (message, bytearray(message), memoryview(message), io.BytesIO(message)):
        assert encode(create(source, variant, pepper), "binary") == expected
        assert verify(source, claimed)
        assert dynamic_section(source, variant, pepper) == expected[s : 2 * s]
    if tmp_path is not None:
        path = tmp_path / "message.bin"
        path.write_bytes(message)
        assert encode(_create_on_open_file(path, variant, pepper), "binary") == expected


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
    """A stream that loses its tail after some reads, as a truncated file does.

    With ``reads=0`` it loses it as soon as its size is taken.
    """

    def __init__(self, data: bytes, reads: int):
        super().__init__(data)
        self._reads = reads

    def seek(self, offset, whence=io.SEEK_SET):
        position = super().seek(offset, whence)
        if whence == io.SEEK_END and self._reads <= 0:
            self.truncate(1)
        return position

    def read(self, n=-1):
        out = super().read(n)
        self._reads -= 1
        if self._reads <= 0:
            self.truncate(1)
        return out


@pytest.mark.parametrize("size", [200, 3 * 512 * 1024])
def test_input_that_shrinks_mid_read_raises(size):
    # one chunk is read once, so it shrinks between its sizing and that
    # read; a multi-chunk input at its fifth read, in the third chunk,
    # while the worker thread hashes the earlier ones
    reads = 0 if size < CHUNK_BYTES else 5
    assert reads == 0 or size > 3 * CHUNK_BYTES
    threads = threading.active_count()
    stream = _Shrinking(random.Random(77).randbytes(size), reads)
    with pytest.raises(AshError, match="shrank"):
        create(stream, ASH1, bytes(64))
    assert threading.active_count() == threads


class _CountedReads(io.BytesIO):
    """An in-memory stream that counts the calls to its ``read``."""

    reads = 0

    def read(self, n=-1):
        self.reads += 1
        return super().read(n)


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
@pytest.mark.parametrize("entry", ["create", "verify", "dynamic_section"])
def test_a_one_chunk_stream_is_read_once(variant, entry):
    # One read is one snapshot: a stream rewritten at the same size between
    # two reads would get the digest of content it never held.
    pepper = random.Random(94).randbytes(variant.pepper_size)
    for pairs in (1, 2, 3, _CHUNK_HALVES):
        # the longest message that pads to `pairs` blocks
        length = pairs * variant.block_size - variant.length_field_size - 1
        message = random.Random(pairs).randbytes(length)
        expected = create(message, variant, pepper)
        stream = _CountedReads(message)
        if entry == "create":
            assert create(stream, variant, pepper) == expected
        elif entry == "verify":
            assert verify(stream, expected)
        else:
            assert dynamic_section(stream, variant, pepper) == expected.dynamic_section
        assert stream.reads == 1, pairs


class _FailingHash:
    """hashlib-style object whose update raises once it has taken ``ok`` chunks."""

    def __init__(self, ok: int):
        self._h = hashlib.sha256()
        self._ok = ok

    def update(self, data):
        if self._ok <= 0:
            raise RuntimeError("base hash failed")
        self._ok -= 1
        self._h.update(data)

    def digest(self):
        return self._h.digest()


def _failing_variant(ok):
    base = dataclasses.replace(ASH1.base, new=lambda: _FailingHash(ok))
    return dataclasses.replace(ASH1, base=base)


def _outcome_within(seconds, fn):
    """Run fn on a helper thread; fail if it has not returned or raised in time."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except BaseException as exc:
            outcome.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), "the digest hung"
    return outcome[0]


@pytest.mark.parametrize(
    "size", [200, 6 * CHUNK_BYTES - 100], ids=["one-chunk", "six-chunks"]  # pads to 6 chunks
)
@pytest.mark.parametrize("ok", [0, 2, 5], ids=["first-update", "third-update", "sixth-update"])
@pytest.mark.parametrize("which", ["dynamic_section", "create"])
def test_a_failing_base_hash_raises_instead_of_hanging(size, ok, which):
    # dynamic_section updates only the dynamic hash, on the worker for a
    # multi-chunk input; create also fails in the static hash, on the caller.
    # A failure on the last chunk is seen only when the worker is joined.
    variant = _failing_variant(ok)
    message = random.Random(78).randbytes(size)
    pepper = bytes(64)
    if which == "create":
        call = lambda: create(message, variant, pepper)
    else:
        call = lambda: dynamic_section(message, variant, pepper)
    threads = threading.active_count()
    outcome = _outcome_within(60, call)
    if size == 200 and ok > 0:  # one chunk, one update: nothing fails
        assert not isinstance(outcome, BaseException)
    else:
        assert isinstance(outcome, RuntimeError) and "base hash failed" in str(outcome)
    assert threading.active_count() == threads


def test_an_error_in_the_chunk_loop_wins_over_the_workers():
    # the worker fails its first update; the stream shrinks after the first
    # chunk's two reads, so the loop fails too, before its second hand-off
    stream = _Shrinking(random.Random(88).randbytes(3 * CHUNK_BYTES + 500), reads=2)
    threads = threading.active_count()
    outcome = _outcome_within(60, lambda: dynamic_section(stream, _failing_variant(0), bytes(64)))
    assert isinstance(outcome, AshError) and "shrank" in str(outcome)
    assert threading.active_count() == threads


class _Boom(Exception):
    pass


@pytest.mark.parametrize("size", [1000, 300_000], ids=["one-chunk", "chunks"])
def test_a_failed_digest_leaves_a_buffer_message_unpinned(monkeypatch, size):
    # The traceback keeps the digest's frame alive; its view of the message
    # must not outlive the digest, or the caller can neither resize a
    # bytearray nor close an mmap while the error propagates.
    def failing_zip(first, second, half_size):
        raise _Boom

    monkeypatch.setattr(ash.files, "interleave_runs", failing_zip)
    data = random.Random(size).randbytes(size)
    message = bytearray(data)
    try:
        create(message, ASH1)
    except _Boom:
        message.extend(b"!")  # BufferError while any view of it is exported
    assert message == data + b"!"
    with pytest.raises(_Boom):
        with mmap.mmap(-1, size) as mapped:
            mapped[:] = data
            create(mapped, ASH1)
    assert mapped.closed


def test_concurrent_multi_chunk_digests_match_the_oracle():
    # more digesting threads than cores, switching as often as possible: a
    # chunk lost or reordered on its way to the worker breaks the digest
    rng = random.Random(79)
    messages = [rng.randbytes(3 * CHUNK_BYTES + 97 * i) for i in range(4)]
    pepper = rng.randbytes(64)
    expected = [oracle_digest(m, pepper, hashlib.sha256, 64, 8) for m in messages]
    results = [None] * len(messages)

    def work(i):
        for _ in range(3):
            results[i] = encode(create(io.BytesIO(messages[i]), ASH1, pepper), "binary")
            if results[i] != expected[i]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(messages))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == expected


def _zero_chunk_message(variant, case):
    """A message of 2 * _CHUNK_HALVES + 100 padded pairs, zero except where ``case`` says.

    Chunk j reads half-blocks [j * step, (j + 1) * step) as its first run
    and [pairs + j * step, pairs + (j + 1) * step) as its second; chunk 2 is
    the short tail, whose second run ends in the length field.
    """
    step, half = _CHUNK_HALVES, variant.half_size
    pairs = 2 * step + 100
    message = bytearray(pairs * variant.block_size - variant.length_field_size - 1)
    rng = random.Random(f"{variant.name}-{case}")
    first_1 = step * half  # first byte of chunk 1's first run
    second_1 = (pairs + step) * half  # first byte of chunk 1's second run
    run = step * half

    def fill(start, stop):
        message[start:stop] = rng.randbytes(stop - start)

    if case == "only-first-half-zero":  # every first run zero, every second run not
        fill(pairs * half, len(message))
    elif case == "only-second-half-zero":  # every second run zero but the tail's
        fill(0, pairs * half)
        fill(len(message) - 10, len(message))
    elif case == "zero-chunk-before-tail":  # chunk 0 and the tail hold data
        fill(0, first_1)
        fill(pairs * half, second_1)
        fill(second_1 + run, len(message))
    elif case == "equal-runs":  # chunk 1's runs are the same data, not zeros
        fill(first_1, first_1 + run)
        message[second_1 : second_1 + run] = message[first_1 : first_1 + run]
    elif case != "all-zero":
        offset = {
            "first-run-first-byte": first_1,
            "first-run-last-byte": first_1 + run - 1,
            "second-run-first-byte": second_1,
            "second-run-last-byte": second_1 + run - 1,
        }[case]
        message[offset] = 0x01
    return bytes(message)


@pytest.mark.parametrize("variant", [ASH1, ASH2, TOY], ids=["ash1", "ash2", "toy"])
@pytest.mark.parametrize(
    "case",
    [
        "all-zero",
        "only-first-half-zero",
        "only-second-half-zero",
        "zero-chunk-before-tail",
        "equal-runs",
        "first-run-first-byte",
        "first-run-last-byte",
        "second-run-first-byte",
        "second-run-last-byte",
    ],
)
def test_zero_chunks_match_the_oracle(variant, case, tmp_path):
    message = _zero_chunk_message(variant, case)
    pepper = random.Random(80).randbytes(variant.pepper_size)
    _check_against_oracle(variant, message, pepper, tmp_path)


def _record_calls(monkeypatch, *names):
    """Wrap each named ``ash.files`` function to log (name, calling thread) per call."""
    calls = []

    def recorded(name):
        real = getattr(ash.files, name)

        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(ash.files, name, recorded(name))
    return calls


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
@pytest.mark.parametrize("source", ["bytes", "memoryview", "stream"])
def test_only_an_input_longer_than_one_chunk_starts_a_worker(monkeypatch, variant, source):
    # A padded stream of _CHUNK_HALVES pairs is hashed in a straight line on
    # the calling thread; one pair more takes the chunk loop and its worker.
    started, kept = [], []
    real_worker, real_keep = ash.files._HashWorker, ash.files._keep_chunk_pages

    def worker(*args):
        started.append(threading.get_ident())
        return real_worker(*args)

    def keep(chunk_bytes):
        kept.append(chunk_bytes)
        real_keep(chunk_bytes)

    monkeypatch.setattr(ash.files, "_HashWorker", worker)
    monkeypatch.setattr(ash.files, "_keep_chunk_pages", keep)
    pepper = random.Random(93).randbytes(variant.pepper_size)
    for pairs, workers in ((_CHUNK_HALVES, 0), (_CHUNK_HALVES + 1, 1)):
        # the longest message that pads to `pairs` blocks
        length = pairs * variant.block_size - variant.length_field_size - 1
        message = random.Random(pairs).randbytes(length)
        expected = create(message, variant, pepper)
        for fn in (create, dynamic_section):
            started.clear()
            kept.clear()
            kinds = {"bytes": bytes, "memoryview": memoryview, "stream": io.BytesIO}
            result = fn(kinds[source](message), variant, pepper)
            assert result == (expected if fn is create else expected.dynamic_section)
            assert started == [threading.get_ident()] * workers
            assert kept == [_CHUNK_HALVES * variant.block_size] * workers


@pytest.mark.parametrize("entry", ["create", "verify", "dynamic_section"])
@pytest.mark.parametrize("source", ["bytes", "stream"])
@pytest.mark.parametrize("size", [200, 3 * CHUNK_BYTES + 500], ids=["one-chunk", "four-chunks"])
def test_a_digest_pads_once_and_zips_and_peppers_each_chunk_once(
    monkeypatch, entry, source, size
):
    # The benchmark's spans wrap these three as ash.files globals, so the
    # chunked core must look each one up there at every call.
    message = random.Random(91).randbytes(size)
    claimed = create(message, ASH1, bytes(64))
    calls = _record_calls(monkeypatch, "pad_suffix", "interleave_runs", "apply_pepper")
    arg = message if source == "bytes" else io.BytesIO(message)
    if entry == "create":
        assert create(arg, ASH1, bytes(64)) == claimed
    elif entry == "verify":
        assert verify(arg, claimed)
    else:
        assert dynamic_section(arg, ASH1, bytes(64)) == claimed.dynamic_section
    chunks = 1 if size == 200 else 4
    names = [name for name, _ in calls]
    assert names.count("pad_suffix") == 1
    assert names.count("interleave_runs") == names.count("apply_pepper") == chunks


def test_zero_chunks_skip_the_permutation_and_the_xor(monkeypatch):
    # of the three chunks of the all-zero message only the tail is zipped
    # and peppered; "equal-runs" zips both chunk 1 and the tail. The zip
    # runs on the calling thread and the XOR on the worker, so the two
    # lists are checked apart.
    calls = _record_calls(monkeypatch, "interleave_runs", "apply_pepper")
    caller = threading.get_ident()
    for case, chunks in (("all-zero", 1), ("equal-runs", 2)):
        calls.clear()
        create(io.BytesIO(_zero_chunk_message(ASH1, case)), ASH1, bytes(64))
        zips = [thread for name, thread in calls if name == "interleave_runs"]
        xors = [thread for name, thread in calls if name == "apply_pepper"]
        assert zips == [caller] * chunks
        assert len(xors) == chunks and caller not in xors


@pytest.mark.parametrize(
    "entry, size, on_caller",
    [
        ("create", 3 * CHUNK_BYTES + 500, False),
        ("create", 200, True),
        ("dynamic_section", 3 * CHUNK_BYTES + 500, True),
        ("dynamic_section", 200, True),
    ],
    ids=["create-four-chunks", "create-one-chunk", "dynamic-four-chunks", "dynamic-one-chunk"],
)
def test_the_pepper_xor_runs_on_the_worker_only_beside_a_static_pass(
    monkeypatch, entry, size, on_caller
):
    # A multi-chunk create XORs on the worker while the caller runs the
    # static pass; with no static pass, or no worker, the caller XORs.
    calls = _record_calls(monkeypatch, "apply_pepper")
    message = random.Random(85).randbytes(size)
    pepper = random.Random(86).randbytes(64)
    fn = create if entry == "create" else dynamic_section
    result = fn(message, ASH1, pepper)
    if entry == "create":
        assert encode(result, "binary") == oracle_digest(message, pepper, hashlib.sha256, 64, 8)
    chunks = -(-len(oracle_pad(message, 64, 8)) // CHUNK_BYTES)
    threads = {thread for _, thread in calls}
    assert len(calls) == chunks
    if on_caller:
        assert threads == {threading.get_ident()}
    else:
        assert len(threads) == 1 and threading.get_ident() not in threads


@pytest.mark.parametrize("failing", ["first", "last"])
def test_a_failing_pepper_xor_on_the_worker_raises_and_joins_it(monkeypatch, failing):
    # five chunks: the first XOR fails while the caller still has chunks
    # to hand over; the last fails after the final hand-off, at the join
    real = ash.files.apply_pepper
    calls = []

    def failing_pepper(*args, **kwargs):
        calls.append(threading.get_ident())
        if failing == "first" or len(calls) == 5:
            raise RuntimeError("pepper XOR failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(ash.files, "apply_pepper", failing_pepper)
    message = random.Random(87).randbytes(5 * CHUNK_BYTES - 100)  # pads to 5 chunks
    threads = threading.active_count()
    outcome = _outcome_within(60, lambda: create(message, ASH1, bytes(64)))
    assert isinstance(outcome, RuntimeError) and "pepper XOR failed" in str(outcome)
    assert len(calls) == (1 if failing == "first" else 5)
    assert threading.active_count() == threads


class _GrowsAfterSizing(io.BytesIO):
    """A stream that gains bytes once its size has been taken with ``seek(0, SEEK_END)``."""

    def __init__(self, data: bytes, extra: bytes):
        super().__init__(data)
        self._extra = extra

    def seek(self, pos, whence=io.SEEK_SET):
        end = super().seek(pos, whence)
        if whence == io.SEEK_END and self._extra:
            self.write(self._extra)
            self._extra = b""
            super().seek(end)
        return end


class _GrowsWhileRead(io.BytesIO):
    """A stream that gains bytes at its end on every read, as a file being appended to."""

    def read(self, n=-1):
        out = super().read(n)
        position = self.tell()
        super().seek(0, io.SEEK_END)
        self.write(b"\xff" * 1000)
        super().seek(position)
        return out


@pytest.mark.parametrize("size", [200, 3 * CHUNK_BYTES + 500], ids=["one-chunk", "four-chunks"])
@pytest.mark.parametrize("stream_type", ["grows-after-sizing", "grows-while-read"])
def test_input_that_grows_is_hashed_at_its_snapshot_length(size, stream_type):
    data = random.Random(82).randbytes(size)
    if stream_type == "grows-after-sizing":
        stream = _GrowsAfterSizing(data, b"\xff" * 5000)
    else:
        stream = _GrowsWhileRead(data)
    pepper = random.Random(83).randbytes(64)
    result = encode(create(stream, ASH1, pepper), "binary")
    assert len(stream.getvalue()) > size  # it did grow while being hashed
    assert result == oracle_digest(data, pepper, hashlib.sha256, 64, 8)


def _change_at_first_zip(monkeypatch, path, change):
    """Have the first ``interleave_runs`` call rewrite the file in place or append to it."""
    real = ash.files.interleave_runs
    changed = []

    def changing(*args):
        if not changed:
            time.sleep(0.02)  # past a coarse file clock's tick, so the times move
            with open(path, "r+b") as other:
                if change == "rewritten":
                    other.write(random.Random(90).randbytes(path.stat().st_size))
                else:
                    other.seek(0, os.SEEK_END)
                    other.write(b"\xff")
            changed.append(change)
        return real(*args)

    monkeypatch.setattr(ash.files, "interleave_runs", changing)


@pytest.mark.parametrize("change", ["rewritten", "appended"])
@pytest.mark.parametrize("entry", ["create", "verify", "ash hash", "ash verify"])
def test_a_file_changed_while_it_is_hashed_is_refused(
    monkeypatch, tmp_path, capsys, entry, change
):
    # a snapshot of a file read by descriptor would mix two versions of it
    path = tmp_path / "input.bin"
    old = random.Random(88).randbytes(1 << 20)
    path.write_bytes(old)
    claimed = create(old, ASH1)
    _change_at_first_zip(monkeypatch, path, change)
    if entry.startswith("ash "):
        argv = ["hash", str(path)]
        if entry == "ash verify":
            argv = ["verify", encode(claimed), str(path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "ash: input changed while it was being hashed\n")
    else:
        with open(path, "rb") as stream, pytest.raises(AshError, match="changed while"):
            create(stream, ASH1) if entry == "create" else verify(stream, claimed)


@pytest.mark.parametrize("kind", ["spool", "buffered-bytesio"])
def test_an_in_memory_stream_is_hashed_without_a_descriptor(kind):
    # a SpooledTemporaryFile's fileno() would roll it over to disk, and a
    # BufferedReader over BytesIO has no descriptor to give
    data = random.Random(89).randbytes(3 * CHUNK_BYTES + 500)
    if kind == "spool":
        stream = spool_to_seekable(io.BytesIO(data))
    else:
        stream = io.BufferedReader(io.BytesIO(data))
    with stream:
        assert create(stream, ASH1, bytes(64)) == create(data, ASH1, bytes(64))
        if kind == "spool":
            assert not stream._rolled


class _Interrupted(io.BytesIO):
    """A stream whose read raises KeyboardInterrupt after some reads, as Ctrl-C does."""

    def __init__(self, data: bytes, reads: int):
        super().__init__(data)
        self._reads = reads

    def read(self, n=-1):
        self._reads -= 1
        if self._reads <= 0:
            raise KeyboardInterrupt
        return super().read(n)


def test_interrupt_mid_digest_joins_the_worker():
    # the fifth read is in the third chunk, after the worker has started
    threads = threading.active_count()
    stream = _Interrupted(random.Random(84).randbytes(3 * CHUNK_BYTES + 500), reads=5)
    with pytest.raises(KeyboardInterrupt):
        create(stream, ASH1, bytes(64))
    assert threading.active_count() == threads


# In-memory input that is not exactly bytes: a bytearray, and a memoryview
# of 8-byte items, which is hashed as its raw bytes.
_BUFFERS = {
    "": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(data).cast("Q"),
}


@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
@pytest.mark.parametrize(
    "entry",
    ["create", "verify", "dynamic_section", "digest_file"]
    + [
        f"{entry}-{kind}"
        for kind in ("bytearray", "memoryview")
        for entry in ("create", "verify", "dynamic_section")
    ],
)
def test_memory_stays_flat_for_every_entry_point(variant, entry, tmp_path):
    # the traced peak covers both threads: a few chunk buffers, whatever
    # the input size, and never a copy of the input. How far the worker
    # lags moves a peak by a chunk or so, at times in all three runs of a
    # size, so each size keeps its lowest peak of three and the two may
    # differ by up to two chunks.
    entry, _, kind = entry.partition("-")
    chunk = _CHUNK_HALVES * variant.block_size
    pepper = random.Random(88).randbytes(variant.pepper_size)
    peaks = []
    for size in (4 << 20, 8 << 20):
        data = random.Random(89).randbytes(size)
        message = _BUFFERS[kind](data)
        path = tmp_path / "message.bin"
        path.write_bytes(data)
        claimed = create(message, variant, pepper)
        assert claimed == create(data, variant, pepper)
        calls = {
            "create": lambda: create(message, variant, pepper),
            "verify": lambda: verify(message, claimed),
            "dynamic_section": lambda: dynamic_section(message, variant, pepper),
            "digest_file": lambda: _create_on_open_file(path, variant, pepper),
        }
        runs = []
        for _ in range(3):
            tracemalloc.start()
            try:
                calls[entry]()
                runs.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(runs) < 10 * chunk, [p / chunk for p in runs]
        peaks.append(min(runs))
    assert peaks[1] < peaks[0] + 2 * chunk, [p / chunk for p in peaks]


_FAULTS_PER_DIGEST = """
import os, resource, sys
from ash.digest import create, dynamic_section
from ash.variants import get_variant
variant = get_variant(sys.argv[1])
fn = create if sys.argv[2] == "create" else dynamic_section
# os.urandom fills its result in place: no large block is freed before the
# first digest, which could change glibc's thresholds by itself
message = os.urandom(4 << 20)
pepper = bytes(variant.pepper_size)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    fn(message, variant, pepper)
    faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
# the first digest sets glibc up, and a later one can still grow the heap
# once; buffers trimmed and faulted in again show in every digest
print(min(faults[1:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="about glibc's heap trimming")
@pytest.mark.parametrize("variant", [ASH1, ASH2], ids=["ash1", "ash2"])
@pytest.mark.parametrize("entry", ["create", "dynamic_section"])
def test_chunk_buffers_are_not_faulted_in_afresh_for_each_chunk(variant, entry):
    # Once a process has run a multi-chunk digest, glibc keeps the freed
    # chunk buffers instead of trimming them, so the calling thread of a
    # later digest takes fewer page faults than it has chunks (4-90 per
    # chunk when they are trimmed). It runs in a fresh process, as the
    # first digest sets this up. The worker's faults are left out: a new
    # worker can start on a fresh heap of its own before the last one's
    # heap is free again.
    tag = variant.name.replace("-", "").lower()
    result = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_DIGEST, tag, entry],
        capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True,
    )
    faults = int(result.stdout)
    assert faults < (4 << 20) // (_CHUNK_HALVES * variant.block_size), faults


def test_the_benchmark_tracer_sees_every_digest_seam():
    # perfbench/spans.py times pad_suffix, interleave_runs and apply_pepper
    # by wrapping them as ash.files globals, so a rename, or a call that
    # goes round one, silently zeroes its span. The traced smoke run pads,
    # permutes and peppers once per create, verify and dynamic_section.
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "small_mem",
         "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    calls = {
        name: metrics[f"{name}.calls"]["value"]
        for name in ("restructure.pad", "restructure.permute", "seasoning.pepper_xor",
                     "digest.create", "digest.verify", "digest.dynamic_section")
    }
    seams = calls["restructure.pad"]
    assert seams > 0, calls
    assert calls["restructure.permute"] == calls["seasoning.pepper_xor"] == seams, calls
    entries = calls["digest.create"] + calls["digest.verify"] + calls["digest.dynamic_section"]
    assert entries == seams, calls
