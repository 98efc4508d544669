"""Command-line front end.

Standard output carries only digests, peppers and protocol frames; anything
meant for a human goes to standard error, so the tool can sit in a pipeline.
Those lines are best effort: a closed or broken standard error drops them,
and never changes the exit code.
Exit codes: 0 success/match/accept, 1 mismatch/reject, 2 usage, format,
I/O or protocol errors, or no memory or thread left. Run as a program,
``ash`` leaves SIGINT (Ctrl-C) to its default action: it ends the process
at once, wherever it waits, and prints nothing, so a shell sees the
process killed by SIGINT and stops a loop that ran it. A SIGINT that
``ash`` inherits as ignored, as a background job does, stays ignored.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from collections.abc import Iterator

from . import digest as digestmod
from . import files
from .errors import AshError, DigestFormatError
from .seasoning import combine_shares, generate_pepper
from .variants import ASH2, AshVariant, get_variant

# Largest digest file read for ``verify @FILE``: an ASH-2 tagged digest is
# 5 + 512 characters, so anything longer than this is not one.
_DIGEST_FILE_LIMIT = 4096

# Regular files of at most this many bytes are spooled rather than read in
# place: sysfs reports this size for every file, whatever its content.
_PAGE = os.sysconf("SC_PAGE_SIZE")

# Longest share line, line ending aside: an ASH-2 pepper in hex.
_SHARE_LINE_LIMIT = 2 * ASH2.pepper_size


def _stdin() -> io.IOBase:
    """Standard input as bytes; a closed standard input is an I/O error (exit 2).

    So is a non-blocking one that is not a regular file: the share
    reader's ``readline`` would take a read that would block for the end
    of the input, and ``challenge`` would write a frame before the frame
    reader refused it. O_NONBLOCK stays set, as the parent shares it.
    """
    if sys.stdin is None:
        raise AshError("standard input is closed")
    stream = sys.stdin.buffer
    try:
        fd = stream.fileno()
    except OSError:  # no descriptor: an in-memory standard input
        return stream
    if not os.get_blocking(fd) and not stat.S_ISREG(os.fstat(fd).st_mode):
        raise AshError("standard input is non-blocking and not a regular file")
    return stream


def _open_input(path: str, memory_budget: int = files.DEFAULT_MEMORY_BUDGET) -> io.IOBase:
    """The input, by path or ``-``, as a seekable stream for the caller to close.

    A regular file larger than one page, read from its start, is hashed in
    place. All else is spooled: a pipe, a device, a /proc file (size 0), a
    sysfs file (size 4096 whatever it holds), a part-read stdin, and any
    file of a page or less, which costs one short copy.
    """
    stream = _stdin() if path == "-" else open(path, "rb")
    try:
        info = os.fstat(stream.fileno())
    except OSError:  # no descriptor: an in-memory standard input
        info = None
    if info and stat.S_ISREG(info.st_mode) and info.st_size > _PAGE and not stream.tell():
        return stream
    try:
        return files.spool_to_seekable(stream, memory_budget)
    finally:
        stream.close()


def _to_null(stream) -> None:
    """Point a standard stream that failed a write at the null device.

    What the write left in its buffer then goes there, so the interpreter's
    own flush at exit does not fail a second time.
    """
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _write_stdout(data: bytes) -> None:
    """Write data to standard output and flush it.

    A closed or failing standard output is an I/O error (exit 2).
    """
    if sys.stdout is None:
        raise AshError("standard output is closed")
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except OSError as exc:
        _to_null(sys.stdout)
        raise AshError(f"cannot write to standard output: {exc.strerror or exc}") from None


def _write_stderr(line: str) -> None:
    """Write one line for a human to standard error, best effort.

    The line is dropped if standard error is closed or the write fails, as
    argparse drops its own messages: it never changes the exit code, and
    never goes to standard output, where ``print`` would send it.
    """
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            _to_null(sys.stderr)


def _memory_budget(text: str) -> int:
    """An argparse type: a byte count of 0 or more (0 spills at once)."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {budget}")
    return budget


def _parse_pepper(hex_text: str, variant: AshVariant, what: str = "--pepper") -> bytes:
    """One ``variant`` pepper in hex; the messages name it as ``what``."""
    try:
        pepper = bytes.fromhex(hex_text)
    except ValueError:
        raise AshError(f"{what} is not valid hex") from None
    if len(pepper) != variant.pepper_size:
        raise AshError(
            f"{what} must be {variant.pepper_size} bytes "
            f"({2 * variant.pepper_size} hex chars) for {variant.name}, got {len(pepper)}"
        )
    return pepper


def _cmd_hash(args: argparse.Namespace) -> int:
    variant = get_variant(args.variant)
    pepper = _parse_pepper(args.pepper, variant) if args.pepper is not None else None
    with _open_input(args.path, args.memory_budget) as stream:
        result = digestmod.create(stream, variant, pepper)
    encoded = digestmod.encode(result, args.format)
    _write_stdout(encoded if args.format == "binary" else f"{encoded}\n".encode())
    return 0


def _read_digest_argument(argument: str) -> digestmod.AshDigest:
    if argument.startswith("@"):
        with open(argument[1:], "rb") as handle:
            raw = handle.read(_DIGEST_FILE_LIMIT + 1)
        if len(raw) > _DIGEST_FILE_LIMIT:
            raise DigestFormatError(
                f"digest file is larger than {_DIGEST_FILE_LIMIT} bytes; no digest is that long"
            )
        return digestmod.decode(raw)
    return digestmod.decode(argument)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        claimed = _read_digest_argument(args.digest)
    except DigestFormatError as exc:
        raise AshError(f"malformed digest: {exc}") from None
    with _open_input(args.path) as stream:
        matched = digestmod.verify(stream, claimed)
    _write_stderr("ash: match" if matched else "ash: mismatch")
    return 0 if matched else 1


def _read_shares(stream: io.IOBase, variant: AshVariant) -> Iterator[bytes]:
    """Each non-blank line of ``stream`` as a hex share of one ``variant`` pepper.

    Lines are read one bounded line at a time, and each is parsed as
    ``--pepper`` is, so a share of any other length is refused.
    """
    # room for a "\r\n" ending; a longer line is still longer once it is stripped
    while line := stream.readline(_SHARE_LINE_LIMIT + 2):
        text = line.rstrip(b"\r\n")
        if len(text) > _SHARE_LINE_LIMIT:
            raise AshError(f"share lines must be at most {_SHARE_LINE_LIMIT} characters")
        if text.strip():
            # a non-ASCII byte becomes U+FFFD, which is not hex either
            yield _parse_pepper(text.decode("ascii", "replace"), variant, "a share")


def _cmd_pepper(args: argparse.Namespace) -> int:
    variant = get_variant(args.variant)
    if args.action == "gen":
        _write_stdout(f"{generate_pepper(variant).hex()}\n".encode())
        return 0
    try:
        combined = combine_shares(_read_shares(_stdin(), variant))
    except ValueError:  # the one ValueError combine_shares raises: no share at all
        raise AshError("no shares on standard input") from None
    _write_stdout(f"{combined.hex()}\n".encode())
    return 0


def _cmd_challenge(args: argparse.Namespace) -> int:
    # imported here, so hash, verify and pepper never load the protocol
    from . import protocol

    variant = get_variant(args.variant)
    if args.file == "-":
        raise AshError("challenge carries its frames on standard input; give the file by path")
    stdin = _stdin()

    def receive(awaited: str) -> protocol.ProtocolFrame:
        frame = protocol.read_frame(stdin)
        if frame is None:
            raise AshError(f"peer closed the stream before {awaited}")
        return frame

    with _open_input(args.file) as message:
        if args.role == "challenger":
            session = protocol.Challenger(variant)
            _write_stdout(protocol.encode_frame(session.issue()))
            verdict = session.check(receive("responding"), message)
            _write_stdout(protocol.encode_frame(verdict))
            _write_stderr("ash: accept" if session.accepted else "ash: reject")
            return 0 if session.accepted else 1

        session = protocol.Responder(variant)
        _write_stdout(protocol.encode_frame(session.answer(receive("challenging"), message)))
        accepted = protocol.verdict_accepted(receive("the verdict"))
        _write_stderr("ash: accepted" if accepted else "ash: rejected")
        return 0 if accepted else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ash",
        description="Seasoned hashing: restructured, peppered digests over SHA-2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant", choices=("ash1", "ash2"), default="ash1")

    p_hash = sub.add_parser("hash", help="hash a file (or - for standard input)")
    add_common(p_hash)
    p_hash.add_argument("--pepper", metavar="HEX", help="fixed pepper instead of a random one")
    p_hash.add_argument("--format", choices=("binary", "hex", "tagged"), default="tagged")
    p_hash.add_argument(
        "--memory-budget",
        type=_memory_budget,
        default=files.DEFAULT_MEMORY_BUDGET,
        metavar="BYTES",
        help="in-memory limit for spooled input (pipes, devices) before spilling to disk",
    )
    p_hash.add_argument("path", nargs="?", default="-")
    p_hash.set_defaults(func=_cmd_hash)

    p_verify = sub.add_parser("verify", help="verify a file against a digest")
    p_verify.add_argument("digest", help="encoded digest, or @path to read it from a file")
    p_verify.add_argument("path", nargs="?", default="-")
    p_verify.set_defaults(func=_cmd_verify)

    p_pepper = sub.add_parser("pepper", help="generate or combine pepper material")
    p_pepper.add_argument("action", choices=("gen", "combine"))
    add_common(p_pepper)
    p_pepper.set_defaults(func=_cmd_pepper)

    p_chal = sub.add_parser(
        "challenge", help="run one challenge-response session over standard streams"
    )
    p_chal.add_argument("--role", choices=("challenger", "responder"), required=True)
    add_common(p_chal)
    p_chal.add_argument("file", help="local copy of the data being proven")
    p_chal.set_defaults(func=_cmd_challenge)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # as the program (module docstring); a caller's handler stays
        import signal

        if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AshError, OSError) as exc:
        _write_stderr(f"ash: {exc}")
        return 2
    except MemoryError:  # exit 1 would read as a mismatch
        _write_stderr("ash: out of memory")
        return 2


if __name__ == "__main__":
    sys.exit(main())
