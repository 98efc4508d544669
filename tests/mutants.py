"""Hand mutants of the core, the CLI and the frame parser; a runner checks each is killed.

Run from the repository root, with the test dependencies installed:

    python tests/mutants.py [NAME ...]

Each mutant replaces one exact snippet of a file under ``src/ash``. The
runner copies ``src`` and ``tests`` to a temporary directory (the checkout
is never written), applies one mutant there and runs only the tests named
to kill it, so a mutant costs seconds, not a full suite. The named tests
first run once on the unmutated copy, which must pass. The run exits 1 if
a snippet is no longer in its file, so the list has gone stale, or if a
mutant not marked equivalent survives. An equivalent mutant hashes the
same bytes as the code it replaces; it is listed so that it is not tried
again, and skipped.

Add a mutant for each bug fixed in ``_sections``, ``decode``, the byte
intake ``record._as_bytes``, the CLI's standard input, the spool or the
frame parser and its reader, and run this after changing them.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name: (file under src/ash, old snippet, replacement, tests expected to kill it);
# an empty test tuple marks an equivalent mutant
MUTANTS = {
    "zero-chunk-first-run-only": (
        "files.py",
        "if first == zero and second == zero:",
        "if first == zero:",
        ("tests/test_files.py::test_zero_chunks_match_the_oracle",),
    ),
    "one-chunk-path-below-the-chunk": (
        "files.py",
        "if pairs <= _CHUNK_HALVES:",
        "if pairs < _CHUNK_HALVES:",
        ("tests/test_files.py::test_a_one_chunk_stream_is_read_once",),
    ),
    "zero-run-one-byte-long": (
        "files.py",
        "zero = bytes(step * half)",
        "zero = bytes(step * half + 1)",
        ("tests/test_files.py::test_zero_chunks_skip_the_permutation_and_the_xor",),
    ),
    "verify-static-only": (
        "digest.py",
        "return ok_static and ok_dynamic",
        "return ok_static",
        ("tests/test_digest.py::test_verify_fails_when_either_section_alone_is_flipped",),
    ),
    "decode-any-binary-size-as-binary": (
        "digest.py",
        "if binary is not None and raw.translate(None, _HEX_TEXT):",
        "if binary is not None:",
        ("tests/test_digest.py::test_decode_reads_hex_bytes_as_text_before_binary",),
    ),
    "in-place-from-one-page": (
        "cli.py",
        "info.st_size > _PAGE",
        "info.st_size >= _PAGE",
        (
            "tests/test_cli.py::test_a_sysfs_file_is_hashed_by_its_contents",
            "tests/test_cli.py::"
            "test_standard_input_of_one_page_is_spooled_and_of_a_byte_more_is_not",
        ),
    ),
    "non-blocking-standard-input-taken": (
        "cli.py",
        "if not os.get_blocking(fd) and",
        "if False and",
        ("tests/test_cli.py::test_a_non_blocking_standard_input_pipe_exits_2_with_one_line",),
    ),
    "non-blocking-regular-file-refused": (
        "cli.py",
        " and not stat.S_ISREG(os.fstat(fd).st_mode):",
        ":",
        (
            "tests/test_cli.py::"
            "test_a_non_blocking_regular_file_as_standard_input_is_hashed_in_place",
        ),
    ),
    "digest-file-read-one-byte-short": (
        "cli.py",
        "handle.read(_DIGEST_FILE_LIMIT + 1)",
        "handle.read(_DIGEST_FILE_LIMIT)",
        ("tests/test_cli.py::test_verify_refuses_an_oversized_digest_file_after_a_bounded_read",),
    ),
    "digest-file-limit-taken-as-too-large": (
        "cli.py",
        "if len(raw) > _DIGEST_FILE_LIMIT:",
        "if len(raw) >= _DIGEST_FILE_LIMIT:",
        ("tests/test_cli.py::test_verify_takes_a_digest_file_of_exactly_the_size_limit",),
    ),
    "change-check-on-size-only": (
        "files.py",
        'fields = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")',
        'fields = ("st_size",)',
        ("tests/test_files.py::test_a_file_changed_while_it_is_hashed_is_refused",),
    ),
    "change-check-without-ctime": (
        "files.py",
        'fields = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")',
        'fields = ("st_dev", "st_ino", "st_size", "st_mtime_ns")',
        ("tests/test_files.py::test_a_same_size_rewrite_with_its_mtime_restored_is_refused",),
    ),
    "strided-buffer-view-kept": (
        "files.py",
        "with view:  # the cast holds the buffer by itself",
        "if True:",
        (
            "tests/test_files.py::"
            "test_a_strided_buffer_is_refused_as_not_c_contiguous_and_left_unpinned",
        ),
    ),
    "would-block-taken-for-the-end": (
        "files.py",
        "if piece is None:",
        "if False:",
        (
            "tests/test_protocol.py::test_read_frame_takes_a_read_that_would_block_for_no_end",
            "tests/test_files.py::test_a_non_blocking_pipe_is_never_spooled_in_part",
        ),
    ),
    "spool-reads-the-stream-directly": (
        "files.py",
        "while piece := _read_exactly(source, 64 << 10):",
        "while piece := source.read(64 << 10):",
        ("tests/test_files.py::test_a_non_blocking_pipe_is_never_spooled_in_part",),
    ),
    "payload-cap-taken-as-too-long": (
        "protocol.py",
        "if length > _MAX_PAYLOAD[frame_type]:",
        "if length >= _MAX_PAYLOAD[frame_type]:",
        (
            "tests/test_protocol.py::test_read_frame_bounds_each_frame_type",
            "tests/test_protocol.py::test_both_parsers_share_one_payload_bound",
        ),
    ),
    "whole-frame-taken-as-truncated": (
        "protocol.py",
        "if len(data) < end:",
        "if len(data) <= end:",
        (
            "tests/test_protocol.py::test_codec_round_trip_large_payloads",
            "tests/test_protocol.py::test_read_frame_bounds_each_frame_type",
        ),
    ),
    "payload-read-before-the-header-check": (
        "protocol.py",
        "raw += _read_exactly(stream, _check_header(raw)[1])",
        "raw += _read_exactly(stream, _HEADER.unpack_from(raw)[3])",
        (
            "tests/test_protocol.py::"
            "test_read_frame_refuses_oversized_length_before_reading_payload",
            "tests/test_protocol.py::test_every_type_byte_is_checked_against_the_frame_types",
        ),
    ),
    "header-version-unchecked": (
        "protocol.py",
        "if version != VERSION:",
        "if False:",
        (
            "tests/test_protocol.py::test_decode_errors_are_distinct",
            "tests/test_protocol.py::test_frame_checks_run_in_wire_order",
        ),
    ),
    "intake-takes-bytes-of-an-int": (
        "record.py",
        "value = memoryview(value).tobytes()",
        "value = bytes(value)",
        (
            "tests/test_digest.py::test_a_digest_field_that_is_not_bytes_like_is_refused",
            "tests/test_protocol.py::"
            "test_a_payload_that_is_not_bytes_like_is_refused_when_the_frame_is_built",
            "tests/test_seasoning.py::test_make_salt_refuses_a_half_that_is_not_bytes_like",
        ),
    ),
    "intake-size-unchecked": (
        "record.py",
        "if size is not None and len(value) != size:",
        "if False:",
        (
            "tests/test_digest.py::test_malformed_digest_cannot_be_constructed",
            "tests/test_seasoning.py::test_make_salt_rejects_wrong_half_size",
        ),
    ),
    "zero-chunk-one-static-update": (
        "files.py",
        "static_hash.update(first)\n                            static_hash.update(second)",
        "static_hash.update(first + second)",
        (),
    ),
    "struct-path-for-long-runs": (
        "restructure.py",
        "if half_size % 8 or pairs",
        "if half_size % 8 or pairs > 4000 or pairs",
        (),
    ),
}


def _run_tests(root: pathlib.Path, tests) -> bool:
    """Whether the named tests all pass against the copy of ``src`` under root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def main(names) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ash-mutants-") as tmp:
        root = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        sources = {}
        for name, (path, old, _, _) in chosen.items():
            text = sources.setdefault(path, (ROOT / "src" / "ash" / path).read_text())
            if text.count(old) != 1:
                print(f"stale     {name}: the snippet is not once in src/ash/{path}")
                failed += 1
        if failed:
            return 1
        tests = sorted({test for *_, kill in chosen.values() for test in kill})
        if not _run_tests(root, tests):
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 1
        for name, (path, old, new, kill) in chosen.items():
            if not kill:
                print(f"skipped   {name}: equivalent")
                continue
            target = root / "src" / "ash" / path
            target.write_text(sources[path].replace(old, new))
            try:
                survived = _run_tests(root, kill)
            finally:
                target.write_text(sources[path])
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}")
            failed += survived
    print(f"{len(chosen)} mutants, {failed} survived")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
