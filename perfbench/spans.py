"""Spans around the public functions of each ash layer, recorded from outside.

Each wrapper replaces a function at the module attribute its callers look
up at call time (``ash.digest.apply_pepper``, ``ash.files.interleave_runs``
...), so the package carries no tracing of its own. A name that a later
version no longer has is skipped, and its span reports zero calls. SHA time
comes through the package's own black-box seam: traced variants whose
``BlockHashFunction.new`` returns a timing proxy around the hashlib object.

Spans stay in memory as one flat int64 array and are written out when the
traced process ends.

Run as a script, ``spans.py OUT ARGV...`` runs ``ash.cli.main(ARGV)`` with
every span installed and writes the spans to OUT.
"""

from __future__ import annotations

import array
import dataclasses
import importlib
import json
import sys
import time
from typing import Any, Callable

_FIELDS = 5  # name id, start ns, end ns, parent index (-1 for none), bytes
_WCHAR = "wchar"  # marker: a span's bytes are the bytes this process wrote meanwhile


def _out_len(args: tuple, out: Any) -> int:
    return len(out)


def _decoded_len(args: tuple, out: Any) -> int:
    return len(args[0]) - len(out[1])


def _frame_len(args: tuple, out: Any) -> int:
    return 0 if out is None else 10 + len(out.payload)  # 10-byte ASHP header


# (module, attribute, span name, bytes of one call from (args, result))
WRAPS: tuple[tuple[str, str, str, Any], ...] = (
    ("ash.restructure", "pad_message", "restructure.pad", None),
    ("ash.files", "pad_suffix", "restructure.pad", None),
    ("ash.restructure", "interleave_block_aligned", "restructure.permute", _out_len),
    ("ash.files", "interleave_runs", "restructure.permute", _out_len),
    ("ash.digest", "apply_pepper", "seasoning.pepper_xor", _out_len),
    ("ash.files", "apply_pepper", "seasoning.pepper_xor", _out_len),
    ("ash.digest", "generate_pepper", "seasoning.pepper_gen", None),
    ("ash.files", "generate_pepper", "seasoning.pepper_gen", None),
    ("ash.protocol", "generate_pepper", "seasoning.pepper_gen", None),
    ("ash.digest", "create", "digest.create", None),
    ("ash.digest", "verify", "digest.verify", None),
    ("ash.digest", "dynamic_section", "digest.dynamic_section", None),
    ("ash.protocol", "dynamic_section", "digest.dynamic_section", None),
    ("ash.digest", "encode", "digest.encode", None),
    ("ash.digest", "decode", "digest.decode", None),
    ("ash.files", "digest_stream", "files.digest_stream", None),
    ("ash.files", "spool_to_seekable", "files.spool", _WCHAR),
    ("ash.protocol", "encode_frame", "protocol.frame", _out_len),
    ("ash.protocol", "decode_frame", "protocol.frame", _decoded_len),
    ("ash.protocol", "read_frame", "protocol.read_frame", _frame_len),
    ("ash.protocol", "Challenger.issue", "protocol.session", None),
    ("ash.protocol", "Challenger.check", "protocol.session", None),
    ("ash.protocol", "Responder.answer", "protocol.session", None),
)


def proc_io() -> dict[str, int]:
    """This process's I/O counters (rchar, wchar, syscr ...); empty where /proc is missing."""
    try:
        with open("/proc/self/io") as f:
            return {k: int(v) for k, v in (line.split(":") for line in f if ":" in line)}
    except OSError:
        return {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array.array("q")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.rows) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.rows.extend((nid, time.perf_counter_ns(), 0, parent, 0))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, nbytes: int = 0) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.rows[_FIELDS * idx + 2] = end
        self.rows[_FIELDS * idx + 4] = nbytes

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path + ".json", "w") as f:
            json.dump({"names": self.names, "extra": extra or {}}, f)
        with open(path + ".bin", "wb") as f:
            self.rows.tofile(f)


def load(path: str) -> tuple[list[str], array.array, dict]:
    with open(path + ".json") as f:
        head = json.load(f)
    rows = array.array("q")
    with open(path + ".bin", "rb") as f:
        rows.frombytes(f.read())
    return head["names"], rows, head["extra"]


def aggregate(span_sets) -> dict[str, dict[str, int]]:
    """Per span name: calls, busy ns, bytes, and self ns (busy minus direct children)."""
    out: dict[str, dict[str, int]] = {}
    for names, rows, _ in span_sets:
        ids, starts, ends, parents, nbytes = (rows[i::_FIELDS] for i in range(_FIELDS))
        durs = [e - s for s, e in zip(starts, ends)]
        children = [0] * len(durs)
        for p, d in zip(parents, durs):
            if p >= 0:
                children[p] += d
        for nid, d, c, b in zip(ids, durs, children, nbytes):
            a = out.setdefault(names[nid], {"calls": 0, "busy_ns": 0, "bytes": 0, "self_ns": 0})
            a["calls"] += 1
            a["busy_ns"] += d
            a["bytes"] += b
            a["self_ns"] += d - c
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable, nbytes: Any) -> Callable:
    def traced(*args, **kwargs):
        before = proc_io() if nbytes is _WCHAR else None
        idx = tracer.open(name)
        count = 0
        try:
            out = fn(*args, **kwargs)
            if nbytes is _WCHAR:
                count = proc_io().get("wchar", 0) - before.get("wchar", 0)
            elif nbytes is not None:
                count = nbytes(args, out)
            return out
        finally:
            tracer.close(idx, count)

    traced.__wrapped__ = fn
    return traced


class _TimedHash:
    """hashlib-style object whose update and digest calls are spans."""

    __slots__ = ("_tracer", "_h")

    def __init__(self, tracer: Tracer, h: Any):
        self._tracer = tracer
        self._h = h

    def update(self, data) -> None:
        idx = self._tracer.open("hashes.sha")
        try:
            self._h.update(data)
        finally:
            self._tracer.close(idx, memoryview(data).nbytes)

    def digest(self) -> bytes:
        idx = self._tracer.open("hashes.sha")
        try:
            return self._h.digest()
        finally:
            self._tracer.close(idx)


def traced_variants(tracer: Tracer) -> dict[str, Any]:
    from ash import variants

    out = {}
    for v in (variants.ASH1, variants.ASH2):
        factory = v.base.new
        base = dataclasses.replace(v.base, new=lambda f=factory: _TimedHash(tracer, f()))
        out[v.tag] = dataclasses.replace(v, base=base)
    return out


def install(tracer: Tracer) -> dict[str, Any]:
    """Wrap every layer's public functions; return the traced variants by tag.

    The standard variants are also replaced where the package looks them up
    by name (``ash.digest`` for decoding, ``ash.cli.get_variant``), so
    digests decoded from text are hashed through the timing proxy as well.
    """
    variants = traced_variants(tracer)
    for modname, attr, name, nbytes in WRAPS:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if callable(fn):
            setattr(owner, leaf, _wrap(tracer, name, fn, nbytes))
    digest = importlib.import_module("ash.digest")
    for tag, v in variants.items():
        if hasattr(digest, tag.upper()):
            setattr(digest, tag.upper(), v)
    cli = importlib.import_module("ash.cli")
    lookup = getattr(cli, "get_variant", None)
    if callable(lookup):
        def get_variant(name: str):
            v = lookup(name)
            return variants.get(v.tag, v)

        cli.get_variant = get_variant
    return variants


def _cli_main(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("ash.cli")
    before = proc_io()
    idx = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(idx)
        after = proc_io()
        io = {k: after[k] - before[k] for k in ("rchar", "syscr") if k in after and k in before}
        tracer.dump(out_path, {"io": io})


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1], sys.argv[2:]))
