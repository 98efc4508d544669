"""Seeded inputs and the operation plans of the in-process workloads.

Every process of a run rebuilds the same inputs from the seed, so only the
seed crosses process boundaries. A plan is one cycle of operations that a
run goes round and round, so every seed measures the same mix of
operations and the seed only picks contents, exact lengths and the fixed
peppers.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time

KiB = 1 << 10
MiB = 1 << 20
TAGS = ("ash1", "ash2")
# Published parameters of each variant: base hash, block size, length-field bytes.
PARAMS = {"ash1": ("sha256", 64, 8), "ash2": ("sha512", 128, 16)}
FORMS = ("binary", "hex", "tagged")
# Operations that hash the whole message once; they make up ashN.mb_per_s.
HASH_KINDS = ("create_fixed", "create_os", "verify_true", "verify_false", "dyn_fixed")

# Lengths around the padding boundaries of both block sizes (the tail needs
# 9 or 17 bytes), plus whole and off-by-one blocks.
BOUNDARY_LENGTHS = (
    0, 1, 55, 56, 57, 63, 64, 65, 111, 112, 113, 119, 120, 127, 128, 129,
    191, 192, 239, 240, 255, 256, 1024, 4096,
)


def rng(seed: int, label: str) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{seed}:{label}")


def message(seed: int, key: str, size: int) -> bytes:
    return rng(seed, f"msg:{key}").randbytes(size)


def fixed_pepper(seed: int, tag: str) -> bytes:
    return rng(seed, f"pepper:{tag}").randbytes(PARAMS[tag][1])


def pad_suffix(length: int, tag: str) -> bytes:
    """0x80, zero fill, big-endian bit length: the padding of the paper."""
    _, block, field = PARAMS[tag]
    zeros = -(length + 1 + field) % block
    return b"\x80" + bytes(zeros) + (8 * length).to_bytes(field, "big")


def off_boundary(r: random.Random, base: int) -> int:
    """A length near ``base`` that is off every block and every chunk boundary."""
    return base + 128 * r.randrange(32) + r.randrange(1, 48)


def bulk_plan(seed: int, smoke: bool) -> tuple[dict[str, int], list[tuple]]:
    unit = 4 * KiB if smoke else MiB
    r = rng(seed, "sizes")
    sizes = {k: off_boundary(r, n * unit) for k, n in (("A", 64), ("B", 4), ("C", 16), ("D", 1))}
    ops: list[tuple] = []
    for tag in TAGS:
        ops += [
            ("create_fixed", tag, "A"),
            ("create_os", tag, "B"),
            ("verify_true", tag, "B"),
            ("verify_false", tag, "B"),
            ("dyn_fixed", tag, "C"),
            ("create_fixed", tag, "D"),
        ]
    return sizes, ops


def small_plan(seed: int, smoke: bool) -> tuple[dict[str, int], list[tuple]]:
    r = rng(seed, "sizes")
    # One random length in each eighth of 0-4 KiB: the seed moves lengths, not the size mix.
    lengths = list(BOUNDARY_LENGTHS) + [512 * i + r.randrange(512) for i in range(8)]
    sizes = {f"m{i}": n for i, n in enumerate(lengths)}
    ops: list[tuple] = []
    for i, key in enumerate(sizes):
        for j, tag in enumerate(TAGS):
            form = FORMS[(i + j) % len(FORMS)]
            ops += [
                ("create_fixed", tag, key),
                ("create_os", tag, key),
                ("verify_true", tag, key),
                ("verify_false", tag, key),
                ("encode", tag, key, form),
                ("decode", tag, key, form),
                ("session", tag, key, i % 8 == 7),
            ]
    return sizes, ops


PLANS = {"bulk_mem": bulk_plan, "small_mem": small_plan}


def refs_to_json(refs: dict) -> dict:
    """{(tag, key): (static, dynamic)} as JSON: {"tag:key": [static hex, dynamic hex]}."""
    return {f"{tag}:{key}": [s.hex(), d.hex()] for (tag, key), (s, d) in refs.items()}


def refs_from_json(doc: dict) -> dict:
    return {tuple(k.split(":")): (bytes.fromhex(s), bytes.fromhex(d)) for k, (s, d) in doc.items()}


def new_tally(plan: list[tuple]) -> dict:
    """Per position of the plan: fastest time and sample count; plus totals.

    Only these are kept, not every latency, so that the bookkeeping of a
    long or fast run does not grow the worker's peak RSS, which is a metric.
    """
    return {"best_ns": [0] * len(plan), "samples": [0] * len(plan), "ops": 0, "failed": 0, "notes": []}


def run_ops(ops, plan: list[tuple], seconds: float, count: int | None, tally: dict) -> None:
    """Run the plan round and round: exactly ``count`` operations, or else
    until ``seconds`` have passed and at least one whole cycle is done."""
    start = time.perf_counter()
    n = len(plan)
    while tally["ops"] < count if count is not None else (tally["ops"] < n or time.perf_counter() - start < seconds):
        j = tally["ops"] % n
        try:
            ns, ok = ops.run(plan[j])
            note = "wrong output"
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            ok, note = False, repr(exc)
        tally["ops"] += 1
        if ok:
            if tally["samples"][j] == 0 or ns < tally["best_ns"][j]:
                tally["best_ns"][j] = ns
            tally["samples"][j] += 1
        else:
            tally["failed"] += 1
            if len(tally["notes"]) < 20:
                tally["notes"].append(f"{plan[j]}: {note}")


def reap(proc) -> int:
    """Wait for ``proc`` with wait4; return its peak RSS in KiB from the OS.

    On Linux that figure is at least the peak RSS of the process that
    started the child (exec records it), which is why the benchmark's main
    process stays small.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def _kill_running(procs) -> None:
    for p in procs:
        if p.returncode is None:
            p.kill()


@contextlib.contextmanager
def deadline(procs: list, seconds: float):
    """Kill the processes still running after ``seconds``; on the way out, kill and reap them all."""
    timer = threading.Timer(seconds, _kill_running, (procs,))
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        _kill_running(procs)
        for p in procs:
            if p.returncode is None:
                reap(p)
