"""End-to-end runs of the command-line tool."""

import contextlib
import errno
import io
import os
import pathlib
import resource
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ash import cli, files
from ash.digest import create, encode
from ash.files import _CHUNK_HALVES
from ash.protocol import FrameType, ProtocolFrame, encode_frame
from ash.variants import ASH1, get_variant
from oracle import oracle_ash1, oracle_ash2

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _cli_env():
    """The caller's environment with ``src`` on the path and stdout buffered.

    A caller may set PYTHONUNBUFFERED; an unbuffered stdout would hide a
    missing flush, so the CLI runs buffered, as a user's shell runs it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*args, stdin=None, check=False, timeout=None):
    result = subprocess.run(
        [sys.executable, "-m", "ash.cli", *args],
        input=stdin,
        capture_output=True,
        env=_cli_env(),
        timeout=timeout,
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.returncode} {result.stderr!r}")
    return result


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(b"some file contents worth hashing\n" * 10)
    return path


def test_hash_tagged_output(sample):
    result = run_cli("hash", "--variant", "ash1", str(sample), check=True)
    text = result.stdout.decode().strip()
    assert text.startswith("ash1:")
    assert len(text) == 5 + 256
    int(text[5:], 16)  # well-formed hex


def test_hash_ash2_output(sample):
    text = run_cli("hash", "--variant", "ash2", str(sample), check=True).stdout.decode().strip()
    assert text.startswith("ash2:") and len(text) == 5 + 512


def test_hash_twice_same_static_different_dynamic(sample):
    first = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    second = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    assert first != second
    assert first[5 : 5 + 64] == second[5 : 5 + 64]


def test_hash_zero_pepper_degeneracy(sample):
    text = run_cli(
        "hash", "--pepper", "00" * 64, str(sample), check=True
    ).stdout.decode().strip()
    body = text[5:]
    assert body[:64] == body[64:128]


def test_hash_fixed_pepper_is_deterministic(sample):
    pepper = "ab" * 64
    first = run_cli("hash", "--pepper", pepper, str(sample), check=True).stdout
    second = run_cli("hash", "--pepper", pepper, str(sample), check=True).stdout
    assert first == second


def test_hash_formats(sample):
    pepper = "cd" * 64
    binary = run_cli("hash", "--pepper", pepper, "--format", "binary", str(sample), check=True).stdout
    hexed = run_cli("hash", "--pepper", pepper, "--format", "hex", str(sample), check=True).stdout
    assert len(binary) == 128
    assert hexed.decode().strip() == binary.hex()


def test_hash_stdin_matches_file(sample):
    pepper = "ef" * 64
    from_file = run_cli("hash", "--pepper", pepper, str(sample), check=True).stdout
    from_stdin = run_cli("hash", "--pepper", pepper, "-", stdin=sample.read_bytes(), check=True).stdout
    assert from_file == from_stdin


def test_hash_stdin_with_tiny_memory_budget(sample):
    pepper = "12" * 64
    spooled = run_cli(
        "hash", "--pepper", pepper, "--memory-budget", "64", "-",
        stdin=sample.read_bytes(), check=True,
    ).stdout
    direct = run_cli("hash", "--pepper", pepper, str(sample), check=True).stdout
    assert spooled == direct


def _piped_hash_peak_kib(mib):
    """The peak memory (VmHWM, KiB) of an ``ash hash -`` child fed mib MiB by a pipe.

    Read by the child from /proc/self/status: ru_maxrss of a child started
    with vfork counts the parent's peak too.
    """
    code = (
        "import sys, ash.cli\n"
        "code = ash.cli.main(['hash', '-'])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
        "print(peak[0], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", code], stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_cli_env(),
    )
    block = bytes(range(256)) * 4096
    for _ in range(mib):
        proc.stdin.write(block)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return int(err.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_a_large_pipe_peaks_no_higher_than_a_small_one_at_the_default_budget():
    # the default budget spills a large pipe to disk: memory stays flat
    small, large = _piped_hash_peak_kib(1), _piped_hash_peak_kib(64)
    assert large <= small + 512, (small, large)  # two ASH-2 chunks


@pytest.mark.parametrize("command", ["hash", "verify"])
def test_a_negative_memory_budget_is_refused(sample, command):
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    argv = {"hash": ["hash"], "verify": ["verify", digest]}[command]
    result = run_cli(*argv, "--memory-budget", "-1", str(sample))
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"--memory-budget: must be 0 or more, got -1" in result.stderr


def test_hash_bad_pepper_hex(sample):
    assert run_cli("hash", "--pepper", "zz", str(sample)).returncode == 2
    assert run_cli("hash", "--pepper", "00" * 63, str(sample)).returncode == 2


def test_hash_empty_pepper_is_refused(sample):
    # an empty --pepper is a malformed pepper, not a request for a random one
    result = run_cli("hash", "--pepper", "", str(sample))
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"ash: --pepper must be 64 bytes (128 hex chars) for ASH-1, got 0\n"


def test_hash_missing_file():
    result = run_cli("hash", "/does/not/exist")
    assert result.returncode == 2
    assert result.stderr


def test_verify_fresh_digest(sample):
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    result = run_cli("verify", digest, str(sample))
    assert result.returncode == 0


@pytest.mark.parametrize("where", ["before", "between", "after"])
def test_verify_takes_its_options_anywhere_among_the_operands(sample, where):
    # plain argparse gives FILE its default at DIGEST when an option follows
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    option = ["--memory-budget", "5"]
    argv = {
        "before": [*option, digest, str(sample)],
        "between": [digest, *option, str(sample)],
        "after": [digest, str(sample), *option],
    }[where]
    result = run_cli("verify", *argv)
    assert (result.returncode, result.stderr) == (0, b"ash: match\n")


def test_verify_detects_appended_byte(sample):
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    sample.write_bytes(sample.read_bytes() + b"!")
    assert run_cli("verify", digest, str(sample)).returncode == 1


def test_verify_detects_changed_byte(sample):
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    data = bytearray(sample.read_bytes())
    data[7] ^= 0x01
    sample.write_bytes(bytes(data))
    assert run_cli("verify", digest, str(sample)).returncode == 1


def test_verify_malformed_digest_is_usage_error(sample):
    digest = run_cli("hash", str(sample), check=True).stdout.decode().strip()
    hexpart = digest[5:]
    # the last: 256 characters, two of them spaces between hex pairs
    spaced = "ash1:" + hexpart[:100] + " " + hexpart[100:200] + " " + hexpart[200:254]
    for malformed in (digest[:-2], "ash9:" + hexpart, spaced):
        result = run_cli("verify", malformed, str(sample))
        assert result.returncode == 2
        assert result.stderr.startswith(b"ash: malformed digest: ")


def test_verify_digest_from_file(sample, tmp_path):
    digest = run_cli("hash", str(sample), check=True).stdout
    digest_path = tmp_path / "sample.ash"
    digest_path.write_bytes(digest)
    assert run_cli("verify", f"@{digest_path}", str(sample)).returncode == 0


def test_verify_binary_digest_from_file(sample, tmp_path):
    raw = run_cli("hash", "--format", "binary", str(sample), check=True).stdout
    digest_path = tmp_path / "sample.ash"
    digest_path.write_bytes(raw)
    assert run_cli("verify", f"@{digest_path}", str(sample)).returncode == 0


def test_verify_hex_digest_file_without_newline(sample, tmp_path):
    # 256 hex characters are also the size of a binary ASH-2 digest
    hexed = run_cli("hash", "--format", "hex", str(sample), check=True).stdout.strip()
    digest_path = tmp_path / "sample.hex"
    digest_path.write_bytes(hexed)
    assert len(hexed) == 256
    assert run_cli("verify", f"@{digest_path}", str(sample)).returncode == 0


@pytest.mark.parametrize("kind", ["sparse_100mb", "dev_zero"])
def test_verify_refuses_an_oversized_digest_file_after_a_bounded_read(sample, tmp_path, kind):
    if kind == "dev_zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        digest_path = "/dev/zero"  # endless: a whole-file read would never return
    else:
        digest_path = tmp_path / "huge.ash"
        with open(digest_path, "wb") as handle:
            handle.truncate(100_000_000)
    result = run_cli("verify", f"@{digest_path}", str(sample), timeout=60)
    assert result.returncode == 2
    lines = result.stderr.decode().strip().splitlines()
    assert len(lines) == 1 and "larger than 4096 bytes" in lines[0]


def test_verify_ash2_round_trip(sample):
    digest = run_cli("hash", "--variant", "ash2", str(sample), check=True).stdout.decode().strip()
    assert run_cli("verify", digest, str(sample)).returncode == 0


def test_pepper_gen_sizes():
    out1 = run_cli("pepper", "gen", "--variant", "ash1", check=True).stdout.decode().strip()
    out2 = run_cli("pepper", "gen", "--variant", "ash2", check=True).stdout.decode().strip()
    assert len(out1) == 128 and len(out2) == 256
    int(out1, 16), int(out2, 16)


def test_pepper_combine_identities():
    line = "a1" * 64
    doubled = run_cli("pepper", "combine", stdin=f"{line}\n{line}\n".encode(), check=True)
    assert doubled.stdout.decode().strip() == "00" * 64
    single = run_cli("pepper", "combine", stdin=f"{line}\n".encode(), check=True)
    assert single.stdout.decode().strip() == line


def test_pepper_combine_mixed_lengths_fails():
    stdin = ("aa" * 64 + "\n" + "bb" * 63 + "\n").encode()
    assert run_cli("pepper", "combine", stdin=stdin).returncode == 2


def test_pepper_combine_takes_a_full_ash2_share_and_refuses_one_character_more():
    share = "c3" * 128  # 256 characters, the longest share
    argv = ("pepper", "combine", "--variant", "ash2")
    for ending in ("\n", "\r\n", ""):
        result = run_cli(*argv, stdin=f"{share}{ending}".encode(), check=True)
        assert result.stdout.decode().strip() == share
    for line in (share + "0\n", share + "0\r\n"):
        result = run_cli(*argv, stdin=line.encode())
        assert result.returncode == 2
        assert result.stderr.decode().splitlines() == [
            "ash: share lines must be at most 256 characters"
        ]


@pytest.mark.parametrize("variant, size", [("ash1", 64), ("ash2", 128)])
def test_pepper_combine_takes_only_shares_of_the_variants_pepper_size(variant, size):
    argv = ("pepper", "combine", "--variant", variant)
    right = "5a" * size
    result = run_cli(*argv, stdin=f"{right}\n{right}\n".encode(), check=True)
    assert result.stdout.decode() == "00" * size + "\n"
    for wrong in (size - 1, size + 1):
        # all shares wrong, or one wrong share after a right one
        for stdin in (f"{'5a' * wrong}\n", f"{right}\n{'5a' * wrong}\n"):
            result = run_cli(*argv, stdin=stdin.encode())
            assert result.returncode == 2
            assert result.stdout == b""
            lines = result.stderr.decode().splitlines()
            # an ASH-2 share one byte too long is over the line limit as well
            reason = "share lines must be" if 2 * wrong > 256 else f"a share must be {size} bytes"
            assert len(lines) == 1 and lines[0].startswith(f"ash: {reason}"), lines


@pytest.mark.parametrize("source", ["dev-zero", "10-MB-line"])
def test_pepper_combine_refuses_endless_input_in_bounded_memory(source, tmp_path):
    if source == "dev-zero":
        path = "/dev/zero"
    else:
        path = tmp_path / "line.txt"
        path.write_bytes(b"a" * 10_000_000)
    # capped address space: a reader that holds its input fails at once
    # instead of growing for as long as the input lasts
    argv = ["/bin/sh", "-c", 'ulimit -v 400000 && exec "$@"', "sh"]
    argv += [sys.executable, "-m", "ash.cli", "pepper", "combine"]
    with open(path, "rb") as stdin:
        result = subprocess.run(argv, stdin=stdin, capture_output=True, env=_cli_env(), timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr.decode().splitlines() == [
        "ash: share lines must be at most 256 characters"
    ]


def _run_challenge_pair(file_challenger, file_responder, variant="ash1"):
    env = _cli_env()
    base = [sys.executable, "-m", "ash.cli", "challenge", "--variant", variant]
    c2r_read, c2r_write = os.pipe()
    r2c_read, r2c_write = os.pipe()
    challenger = subprocess.Popen(
        base + ["--role", "challenger", str(file_challenger)],
        stdin=r2c_read, stdout=c2r_write, stderr=subprocess.PIPE, env=env,
    )
    responder = subprocess.Popen(
        base + ["--role", "responder", str(file_responder)],
        stdin=c2r_read, stdout=r2c_write, stderr=subprocess.PIPE, env=env,
    )
    for fd in (c2r_read, c2r_write, r2c_read, r2c_write):
        os.close(fd)
    for proc in (challenger, responder):
        # communicate() closes the pipe; callers read the text from memory
        _, err = proc.communicate(timeout=60)
        proc.stderr = io.BytesIO(err)
    return challenger, responder


def test_challenge_identical_files_accept(sample):
    challenger, responder = _run_challenge_pair(sample, sample)
    assert challenger.returncode == 0, challenger.stderr.read()
    assert responder.returncode == 0, responder.stderr.read()


def test_challenge_corrupted_file_rejects(sample, tmp_path):
    corrupted = tmp_path / "corrupted.bin"
    data = bytearray(sample.read_bytes())
    data[3] ^= 0x10
    corrupted.write_bytes(bytes(data))
    challenger, responder = _run_challenge_pair(sample, corrupted)
    assert challenger.returncode == 1
    assert responder.returncode == 1


def test_challenge_reads_a_non_seekable_path(sample, tmp_path):
    fifo = tmp_path / "sample.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(sample.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    challenger, responder = _run_challenge_pair(sample, fifo)
    writer.join(timeout=60)
    assert challenger.returncode == 0, challenger.stderr.read()
    assert responder.returncode == 0, responder.stderr.read()


def test_challenge_refuses_standard_input_as_its_file():
    result = run_cli("challenge", "--role", "responder", "-", stdin=b"")
    assert result.returncode == 2
    assert b"path" in result.stderr


def test_challenge_malformed_first_frame(sample):
    result = run_cli(
        "challenge", "--role", "responder", str(sample), stdin=b"JUNKJUNKJUNKJUNK"
    )
    assert result.returncode == 2


def test_usage_error_exit_code():
    assert run_cli("hash", "--variant", "ash3", "x").returncode == 2


@pytest.mark.parametrize("variant", ["ash1", "ash2"])
def test_hash_sparse_file_matches_the_oracle(tmp_path, variant):
    # mostly whole zero chunks, which skip the permutation and the XOR, with
    # islands of data in both halves of the padded stream and in the tail
    block = 64 if variant == "ash1" else 128
    size = 5 * _CHUNK_HALVES * block + 1000
    path = tmp_path / "sparse.bin"
    with open(path, "wb") as handle:
        handle.truncate(size)
        for offset in (70_000, size // 2 + 3000, size - 10):
            handle.seek(offset)
            handle.write(b"island")
    pepper = bytes(range(block))
    text = run_cli(
        "hash", "--variant", variant, "--pepper", pepper.hex(), "--format", "hex", str(path),
        check=True,
    ).stdout.decode().strip()
    oracle = oracle_ash1 if variant == "ash1" else oracle_ash2
    assert bytes.fromhex(text) == oracle(path.read_bytes(), pepper)


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))


@pytest.mark.parametrize(
    "command, device", [("hash", "/dev/zero"), ("hash", "/dev/urandom"), ("verify", "/dev/zero")]
)
def test_an_endless_device_is_spooled_not_read_as_empty(tmp_path, command, device):
    # A seekable device reports size 0, so read in place it gave the empty
    # message's digest. Spooled, it spills at once with a budget of 0 and
    # fails at the 1 MiB file-size limit: Python ignores SIGXFSZ, so the
    # write fails with EFBIG, and the spill file has no name to leave behind.
    if not os.path.exists(device):
        pytest.skip(f"no {device} on this system")
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    digest = run_cli("hash", str(empty), check=True).stdout.decode().strip()
    argv = {"hash": [], "verify": [digest]}[command]
    env = _cli_env()
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "ash.cli", command, "--memory-budget", "0", *argv, device],
        capture_output=True, env=env, timeout=60, preexec_fn=_limit_file_size,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == ["ash: [Errno 27] File too large"]
    assert os.listdir(tmp_path) == ["empty"]


def test_a_proc_file_is_hashed_by_its_contents():
    # a /proc file reports size 0, and some cannot even seek to their end
    path = pathlib.Path("/proc/version")
    if not path.exists():
        pytest.skip("no /proc/version on this system")
    pepper = "6d" * 64
    by_path = run_cli("hash", "--pepper", pepper, str(path), check=True).stdout
    piped = run_cli("hash", "--pepper", pepper, "-", stdin=path.read_bytes(), check=True).stdout
    assert by_path == piped


# Stable sysfs files whose contents are much shorter than the page sysfs reports.
_SYSFS_FILES = ("/sys/kernel/mm/transparent_hugepage/enabled", "/sys/devices/system/cpu/online")


def test_a_sysfs_file_is_hashed_by_its_contents():
    # sysfs reports a size of one page whatever a file holds; read in place,
    # the file would come up short and the CLI exit 2 ("input shrank")
    path = next((pathlib.Path(p) for p in _SYSFS_FILES if os.path.exists(p)), None)
    if path is None:
        pytest.skip("no sysfs on this system")
    pepper = "5c" * 64
    result = run_cli("hash", "--pepper", pepper, str(path))
    assert result.returncode == 0, result.stderr
    expected = create(path.read_bytes(), ASH1, bytes.fromhex(pepper))
    assert result.stdout == f"{encode(expected)}\n".encode()


@pytest.fixture
def sample_over_a_page(tmp_path):
    path = tmp_path / "large.bin"
    lines = os.sysconf("SC_PAGE_SIZE") // 33 + 1
    path.write_bytes(b"some file contents worth hashing\n" * lines)
    return path


def test_redirected_standard_input_is_hashed_in_place(sample_over_a_page, monkeypatch):
    def refuse(*args):
        raise AssertionError("a regular file larger than a page was spooled")

    monkeypatch.setattr(files, "spool_to_seekable", refuse)
    pepper = "7e" * 64
    stdout = io.TextIOWrapper(io.BytesIO())
    with open(sample_over_a_page, "rb") as handle:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(handle))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["hash", "--pepper", pepper, "-"]) == 0
    expected = create(sample_over_a_page.read_bytes(), ASH1, bytes.fromhex(pepper))
    assert stdout.buffer.getvalue() == f"{encode(expected)}\n".encode()


def test_start_up_and_an_in_place_hash_leave_tempfile_unloaded(sample_over_a_page):
    # -S: site can load tempfile itself (a certifi .pth does), which would
    # hide an import of it by ash. The file is more than a page and at most
    # one chunk, so it is hashed in place and starts no worker thread. No
    # module of ash imports typing, the ones off the CLI's path included.
    code = (
        "import sys, ash.cli\n"
        "ash.cli.build_parser()\n"
        "loaded = ['tempfile' in sys.modules]\n"
        "assert ash.cli.main(['hash', sys.argv[1]]) == 0\n"
        "loaded += [name in sys.modules for name in ('tempfile', 'threading', 'queue')]\n"
        "import ash.protocol, ash.toyhash\n"
        "loaded += ['typing' in sys.modules]\n"
        "print(loaded, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(sample_over_a_page)],
        capture_output=True, env=_cli_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.decode().strip() == "[False, False, False, False, False]"


def test_standard_input_part_way_into_its_file_is_hashed_from_there(sample):
    pepper = "8f" * 64
    with open(sample, "rb") as stdin:
        stdin.seek(100)
        result = subprocess.run(
            [sys.executable, "-m", "ash.cli", "hash", "--pepper", pepper, "-"],
            stdin=stdin, capture_output=True, env=_cli_env(), timeout=60,
        )
    assert result.returncode == 0, result.stderr
    expected = create(sample.read_bytes()[100:], ASH1, bytes.fromhex(pepper))
    assert result.stdout == f"{encode(expected)}\n".encode()


@pytest.mark.parametrize("redirected", [False, True], ids=["path", "redirected"])
@pytest.mark.parametrize("kind", ["empty-file", "dev-null"])
def test_empty_inputs_give_the_empty_messages_digest(tmp_path, kind, redirected):
    path = tmp_path / "empty" if kind == "empty-file" else pathlib.Path(os.devnull)
    if kind == "empty-file":
        path.write_bytes(b"")
    pepper = "9a" * 64
    if redirected:
        with open(path, "rb") as stdin:
            result = subprocess.run(
                [sys.executable, "-m", "ash.cli", "hash", "--pepper", pepper, "-"],
                stdin=stdin, capture_output=True, env=_cli_env(), timeout=60,
            )
    else:
        result = run_cli("hash", "--pepper", pepper, str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{encode(create(b'', ASH1, bytes.fromhex(pepper)))}\n".encode()


def _open_writer(fifo, proc, timeout=30):
    """FIFO's write end once a reader has opened it, or None if ``proc`` ends first.

    A blocking open would wait forever for a child that exits, or fails,
    before it opens the FIFO.
    """
    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:  # ENXIO: no reader yet
                raise
            time.sleep(0.01)
            continue
        os.set_blocking(fd, True)
        return open(fd, "wb")
    return None


def _start_on_fifo(fifo, *args, sigint=signal.SIG_DFL, env=None):
    """Start ``ash ARGS FIFO`` with SIGINT at ``sigint`` and wait until it opens FIFO.

    The child's SIGINT is set outright: a child inherits an ignored SIGINT
    from a test run that a shell started in the background. Returns the
    process and the FIFO's write end; the child has by then set up its
    signals and is spooling the input.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "ash.cli", *args, str(fifo)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env or _cli_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, sigint),
    )
    writer = _open_writer(fifo, proc)
    if writer is None:
        _, err = _finish(proc)
        raise AssertionError(f"ash never opened its input: {err!r}")
    return proc, writer


def _finish(proc, timeout=10):
    try:
        return proc.communicate(timeout=timeout)
    finally:
        proc.kill()
        proc.wait()


def test_ctrl_c_on_a_blocked_read_ends_ash_by_sigint_at_once(tmp_path):
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    proc, writer = _start_on_fifo(fifo, "hash")
    with writer:
        writer.write(b"part of the input" * 1000)
        writer.flush()
        proc.send_signal(signal.SIGINT)
        # the writer stays open, so only the signal can end the child's read
        out, err = _finish(proc)
    assert proc.returncode == -signal.SIGINT
    assert (out, err) == (b"", b"")


def test_one_ctrl_c_stops_a_shell_loop_of_ash_runs(tmp_path):
    # bash ends a loop on SIGINT only when the child it waits for dies of it
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    loop = f'for i in 1 2 3; do echo run >&2; "$@" "{fifo}"; done'
    proc = subprocess.Popen(
        ["bash", "-c", loop, "bash", sys.executable, "-m", "ash.cli", "hash"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        start_new_session=True,
    )
    try:
        writer = _open_writer(fifo, proc)
        assert writer is not None, "ash never opened its input"
        with writer:
            writer.write(b"part of the input")
            writer.flush()
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=10)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGINT
    assert err.decode().splitlines() == ["run"]


def test_an_ignored_ctrl_c_stays_ignored(tmp_path):
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    pepper = "3c" * 64
    data = b"part of the input" * 1000
    proc, writer = _start_on_fifo(fifo, "hash", "--pepper", pepper, sigint=signal.SIG_IGN)
    with writer:
        writer.write(data)
        writer.flush()
        proc.send_signal(signal.SIGINT)
    out, err = _finish(proc)
    assert proc.returncode == 0, err
    assert out == f"{encode(create(data, ASH1, bytes.fromhex(pepper)))}\n".encode()


def test_ctrl_c_during_a_spill_to_disk_leaves_no_file(tmp_path):
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    env = dict(_cli_env(), TMPDIR=str(spill_dir))
    proc, writer = _start_on_fifo(fifo, "hash", "--memory-budget", "0", env=env)
    with writer:
        # a write this much larger than the pipe returns only once the child
        # has copied most of it to its spill file
        writer.write(bytes(1 << 20))
        writer.flush()
        fds = pathlib.Path(f"/proc/{proc.pid}/fd")
        if fds.is_dir():
            targets = [os.readlink(fd) for fd in fds.iterdir()]
            assert any(t.startswith(str(spill_dir)) for t in targets), targets
        proc.send_signal(signal.SIGINT)
        _finish(proc)
    assert proc.returncode == -signal.SIGINT
    assert list(spill_dir.iterdir()) == []


def test_main_with_argv_leaves_the_sigint_handler_alone(sample, capsys):
    before = signal.getsignal(signal.SIGINT)
    assert cli.main(["hash", str(sample)]) == 0
    assert signal.getsignal(signal.SIGINT) is before
    assert capsys.readouterr().out.startswith("ash1:")


def test_start_up_leaves_signal_unloaded():
    code = "import sys, ash.cli; ash.cli.build_parser(); print('signal' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=_cli_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().strip() == "False"


OUTPUT_COMMANDS = {
    "hash-tagged": ["hash", "{file}"],
    "hash-binary": ["hash", "--format", "binary", "{file}"],
    "pepper-gen": ["pepper", "gen"],
    "pepper-combine": ["pepper", "combine"],
    "challenger": ["challenge", "--role", "challenger", "{file}"],
}


def _run_with_stdout(command, sample, stdout):
    """Run one command whose standard output is closed, full or a broken pipe."""
    env = _cli_env()
    argv = [sys.executable, "-m", "ash.cli"] + [
        a.format(file=sample) for a in OUTPUT_COMMANDS[command]
    ]
    stdin = ("aa" * 64 + "\n").encode() if command == "pepper-combine" else b""
    if stdout == "closed":
        argv = ["/bin/sh", "-c", 'exec "$@" >&-', "sh", *argv]
        return subprocess.run(argv, input=stdin, capture_output=True, env=env, timeout=60)
    if stdout == "full":
        with open("/dev/full", "wb") as full:
            return subprocess.run(
                argv, input=stdin, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
            )
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read: every write fails with EPIPE
    try:
        return subprocess.run(
            argv, input=stdin, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("stdout", ["closed", "full", "broken-pipe"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_stdout_exits_2_with_one_line(sample, command, stdout):
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    result = _run_with_stdout(command, sample, stdout)
    assert result.returncode == 2, result.stderr
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ash: "), lines


def test_importing_the_cli_leaves_the_protocol_unloaded():
    env = _cli_env()
    code = "import sys, ash.cli; print('ash.protocol' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True
    )
    assert result.stdout.decode().strip() == "False"


CLOSED_STDIN_COMMANDS = {
    "hash": ["hash", "-"],
    "pepper-combine": ["pepper", "combine"],
    "challenger": ["challenge", "--role", "challenger", "{file}"],
    "responder": ["challenge", "--role", "responder", "{file}"],
}


@pytest.mark.parametrize("command", sorted(CLOSED_STDIN_COMMANDS))
def test_closed_stdin_exits_2_with_one_line(sample, command):
    argv = [sys.executable, "-m", "ash.cli"] + [
        a.format(file=sample) for a in CLOSED_STDIN_COMMANDS[command]
    ]
    result = subprocess.run(
        ["/bin/sh", "-c", 'exec "$@" <&-', "sh", *argv],
        capture_output=True, env=_cli_env(), timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == b""
    assert result.stderr.decode().splitlines() == ["ash: standard input is closed"]


def _run_with_stderr(argv, stderr):
    """Run the CLI with standard error closed, or a pipe nobody will ever read."""
    argv = [sys.executable, "-m", "ash.cli", *argv]
    if stderr == "closed":
        return subprocess.run(
            argv, stdout=subprocess.PIPE, env=_cli_env(), timeout=60,
            preexec_fn=lambda: os.close(2),
        )
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write fails with EPIPE
    try:
        return subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=write_end, env=_cli_env(), timeout=60
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("stderr", ["closed", "broken-pipe"])
def test_unwritable_stderr_changes_neither_exit_code_nor_stdout(sample, tmp_path, stderr):
    # the "ash: ..." lines are dropped: none turns a match into exit 1 or
    # falls back to standard output
    pepper = bytes(range(64))
    digest = encode(create(sample.read_bytes(), ASH1, pepper))
    other = encode(create(b"other contents", ASH1, pepper))
    runs = [
        (["verify", digest, str(sample)], 0, b""),
        (["verify", other, str(sample)], 1, b""),
        (["hash", str(tmp_path / "missing")], 2, b""),
        (["hash", "--pepper", pepper.hex(), str(sample)], 0, f"{digest}\n".encode()),
    ]
    for argv, code, stdout in runs:
        result = _run_with_stderr(argv, stderr)
        assert (result.returncode, result.stdout) == (code, stdout), argv


EXHAUSTION_COMMANDS = {
    "hash": ["hash", "{file}"],
    "verify": ["verify", "{digest}", "{file}"],
    "challenge": ["challenge", "--role", "responder", "{file}"],
}


def _fail_with(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize("exhausted", ["memory", "threads"])
@pytest.mark.parametrize("command", sorted(EXHAUSTION_COMMANDS))
def test_running_out_of_memory_or_threads_exits_2_with_one_line(
    tmp_path, monkeypatch, command, exhausted
):
    # in process: exit 1 would read as a mismatch, and a traceback as a crash
    path = tmp_path / "big.bin"
    data = bytes(range(256)) * 1200  # 300 kB: more than one chunk, so a worker starts
    path.write_bytes(data)
    claimed = encode(create(data, ASH1))
    challenge = encode_frame(ProtocolFrame(FrameType.CHALLENGE, bytes(ASH1.pepper_size)))
    if exhausted == "memory":
        monkeypatch.setattr("ash.digest._sections", _fail_with(MemoryError()))
        expected = "ash: out of memory"
    else:
        monkeypatch.setattr(
            threading.Thread, "start", _fail_with(RuntimeError("can't start new thread"))
        )
        expected = "ash: cannot start a hashing thread: can't start new thread"
    stdout = io.TextIOWrapper(io.BytesIO())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(challenge)))
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    argv = [a.format(file=path, digest=claimed) for a in EXHAUSTION_COMMANDS[command]]
    assert cli.main(argv) == 2
    assert sys.stderr.getvalue().splitlines() == [expected]
    assert stdout.buffer.getvalue() == b""


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Paths for the fuzzed argv: a file, an empty file, a directory, a missing path.

    Where present, /dev/null and /proc/version add a device and a file that
    reports size 0. /dev/zero is left out: it never ends.
    """
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.bin"
    data.write_bytes(b"fuzzed cli input\n" * 9)
    (root / "empty").write_bytes(b"")
    digest = run_cli("hash", "--pepper", "5a" * 64, str(data), check=True).stdout
    (root / "data.ash").write_bytes(digest)
    devices = [p for p in (os.devnull, "/proc/version") if os.path.exists(p)]
    return {
        "paths": [str(data), str(root / "empty"), str(root), str(root / "missing"), "-"] + devices,
        "digest": digest.decode().strip(),
        "digest_file": str(root / "data.ash"),
    }


# Words of argv: any character but NUL, which argv cannot hold, and the lone
# surrogates that stand for bytes of argv that are not UTF-8. No word starts
# with "-", so none asks argparse for --help (which exits 0); option-like
# words come from _STRAY only.
_CHARACTER = st.characters(exclude_characters="\0") | st.characters(
    min_codepoint=0xDC80, max_codepoint=0xDCFF
)
_WORD = st.text(_CHARACTER, max_size=12).filter(lambda w: not w.startswith("-"))
_STRAY = st.sampled_from(["--bogus", "-x", "--", "--variant", "--pepper", "--format"])


def _choice_or_word(*choices):
    """One of the choices, or now and then a random word."""
    choice = st.sampled_from(choices + (None,))
    return choice.flatmap(lambda c: _WORD if c is None else st.just(c))


def _hex(max_bytes):
    return st.binary(max_size=max_bytes).map(bytes.hex)


@st.composite
def _digest_argument(draw, paths):
    """Valid, damaged and random digests, inline or as @ paths."""
    good = paths["digest"]
    tag = draw(_choice_or_word("ash1", "ash2", "ASH1", "sha1", ""))
    body = draw(_hex(300) | st.sampled_from([good[5:], good[5:-1], good[5:] + "0"]) | _WORD)
    return draw(
        st.sampled_from([good, good[:-1] + ("0" if good[-1] != "0" else "1")])
        | st.just(f"{tag}:{body}")
        | st.just(body)
        | st.sampled_from(["@" + p for p in paths["paths"] + [paths["digest_file"]]])
        | _WORD
    )


@st.composite
def _cli_case(draw, paths):
    """An argv for one of the four subcommands, and the bytes on standard input."""
    path = st.sampled_from(paths["paths"])
    command = draw(st.sampled_from(["hash", "verify", "pepper", "challenge"]))
    options = {
        "hash": {
            "--variant": _choice_or_word("ash1", "ash2"),
            "--pepper": _hex(130) | st.sampled_from(["", "zz", "5a" * 64]) | _WORD,
            "--format": _choice_or_word("binary", "hex", "tagged"),
            "--memory-budget": st.integers(-2, 1 << 20).map(str) | _WORD,
        },
        "verify": {"--memory-budget": st.integers(-2, 1 << 20).map(str) | _WORD},
        "pepper": {"--variant": _choice_or_word("ash1", "ash2")},
        "challenge": {"--variant": _choice_or_word("ash1", "ash2")},
    }[command]
    argv = [command]
    if command == "challenge":  # its one required option
        argv += ["--role", draw(_choice_or_word("challenger", "responder"))]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [flag, draw(options[flag])]
    argv += {
        "hash": lambda: draw(st.lists(path, max_size=1)),
        "verify": lambda: [draw(_digest_argument(paths)), draw(path)],
        "pepper": lambda: [draw(_choice_or_word("gen", "combine"))],
        "challenge": lambda: [draw(path)],
    }[command]()
    for stray in draw(st.lists(_STRAY | _WORD, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), stray)
    share_lines = st.lists(_hex(130), max_size=3).map(lambda s: "\n".join(s).encode())
    payload = st.sampled_from([0, 1, 2, 32, 64, 128, 129]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    )
    frame = st.builds(
        lambda kind, body: b"ASHP\x01" + bytes((kind,)) + len(body).to_bytes(4, "big") + body,
        st.integers(0, 5),
        payload,
    )
    frames = st.lists(frame, max_size=3).map(b"".join)
    stdin = draw(st.binary(max_size=300) | share_lines | frames | frames.map(lambda f: f[:-1]))
    return argv, stdin


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_cli_exits_0_1_or_2_with_no_traceback(fuzz_paths, data):
    # In process, with the standard streams swapped for in-memory buffers.
    # FIFOs are left out: opening one that has no writer blocks.
    argv, stdin = data.draw(_cli_case(fuzz_paths))
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    sys.stderr = io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        code = None
        assert exc.code == 2
    finally:
        stderr = sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = streams
    if code is not None:
        assert code in (0, 1, 2)
        lines = stderr.splitlines()
        assert all(line.startswith("ash: ") for line in lines), (argv, stderr)
        assert len(lines) == 1 if code else len(lines) <= 1, (argv, stderr)


@pytest.fixture(scope="module")
def fuzz_fifo(tmp_path_factory):
    fifo = tmp_path_factory.mktemp("fifo") / "input.fifo"
    os.mkfifo(fifo)
    return fifo


@st.composite
def _fifo_case(draw):
    """An argv that reads its FILE from a FIFO, the bytes to feed it, and stdin."""
    payload = draw(st.binary(max_size=4096))
    variant = draw(st.sampled_from(["ash1", "ash2"]))
    command = draw(st.sampled_from(["hash", "verify", "challenge"]))
    budget = ["--memory-budget", str(draw(st.integers(0, 4096)))]
    if command == "hash":
        argv = ["hash", "--variant", variant] + budget
    elif command == "verify":
        digest = draw(
            st.sampled_from([payload, payload + b"\0"]).map(
                lambda m: encode(create(m, get_variant(variant)))
            )
            | _WORD
        )
        argv = ["verify", digest] + budget
    else:
        argv = ["challenge", "--variant", variant, "--role"]
        argv.append(draw(st.sampled_from(["challenger", "responder"])))
    return argv, payload, draw(st.binary(max_size=300))


@settings(max_examples=25, deadline=None)
@given(case=_fifo_case())
def test_fuzzed_fifo_input_exits_0_1_or_2_with_no_traceback(fuzz_fifo, case):
    # A child process per case: opening a FIFO blocks until its writer
    # comes, so the in-process fuzz above leaves FIFOs out.
    argv, payload, stdin = case
    proc = subprocess.Popen(
        [sys.executable, "-m", "ash.cli", *argv, str(fuzz_fifo)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )

    def feed():  # none at all if the child exits before it opens the FIFO
        with contextlib.suppress(BrokenPipeError):
            writer = _open_writer(fuzz_fifo, proc)
            if writer is not None:
                with writer:
                    writer.write(payload)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        _, err = proc.communicate(stdin, timeout=20)
    finally:
        proc.kill()
        proc.wait()
        feeder.join(timeout=20)
    assert not feeder.is_alive()
    assert proc.returncode in (0, 1, 2), (argv, err)
    assert b"Traceback" not in err, (argv, err)
    lines = err.decode().splitlines()
    assert len(lines) <= 1 and all(line.startswith("ash: ") for line in lines), (argv, err)
