"""The in-process workloads, bulk_mem and small_mem, run in a worker process.

``python3 inproc.py JOB.json`` reads the job the parent wrote, runs one
untimed warm-up cycle and then the plan round and round until the time is
up (or, for a traced pass, the given number of operations), and writes the
per-operation latencies and every gate failure to the job's result path.
The worker is the single client of a closed loop; the parent reads its
peak RSS from the OS once it has ended.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
import tracemalloc
from typing import Any

import common


def _tamper(message: bytes) -> bytes:
    return message[:-1] + bytes([message[-1] ^ 1]) if message else b"\x00"


class Ops:
    """One method per operation kind; each times only the call into ash."""

    def __init__(self, seed: int, sizes: dict[str, int], expected: dict, variants: dict, sessions: set):
        self.D = importlib.import_module("ash.digest")
        self.P = importlib.import_module("ash.protocol")
        self.msgs = {k: common.message(seed, k, n) for k, n in sizes.items()}
        self.tampered = {k: _tamper(self.msgs[k]) for k in sessions}
        self.peppers = {t: common.fixed_pepper(seed, t) for t in common.TAGS}
        self.expected = expected
        self.variants = variants
        self.flips = common.rng(seed, "flip")
        self.made: dict = {}
        self.encoded: dict = {}

    def run(self, op: tuple) -> tuple[int, bool]:
        return getattr(self, op[0])(*op[1:])

    def create_fixed(self, tag, key):
        msg, pepper = self.msgs[key], self.peppers[tag]
        t0 = time.perf_counter_ns()
        d = self.D.create(msg, self.variants[tag], pepper)
        t1 = time.perf_counter_ns()
        static, dynamic = self.expected[tag, key]
        return t1 - t0, (d.static_section, d.dynamic_section, d.pepper) == (static, dynamic, pepper)

    def create_os(self, tag, key):
        msg = self.msgs[key]
        t0 = time.perf_counter_ns()
        d = self.D.create(msg, self.variants[tag])
        t1 = time.perf_counter_ns()
        self.made[tag, key] = d
        ok = d.static_section == self.expected[tag, key][0] and len(d.pepper) == len(self.peppers[tag])
        return t1 - t0, ok

    def verify_true(self, tag, key):
        msg, d = self.msgs[key], self.made[tag, key]
        t0 = time.perf_counter_ns()
        result = self.D.verify(msg, d)
        t1 = time.perf_counter_ns()
        return t1 - t0, result is True

    def verify_false(self, tag, key):
        msg, d = self.msgs[key], self.made[tag, key]
        raw = bytearray(d.static_section + d.dynamic_section)
        bit = self.flips.randrange(8 * len(raw))
        raw[bit // 8] ^= 1 << (bit % 8)
        s = len(d.static_section)
        bad = self.D.AshDigest(d.variant, bytes(raw[:s]), bytes(raw[s:]), d.pepper)
        t0 = time.perf_counter_ns()
        result = self.D.verify(msg, bad)
        t1 = time.perf_counter_ns()
        return t1 - t0, result is False

    def dyn_fixed(self, tag, key):
        msg, pepper = self.msgs[key], self.peppers[tag]
        t0 = time.perf_counter_ns()
        section = self.D.dynamic_section(msg, self.variants[tag], pepper)
        t1 = time.perf_counter_ns()
        return t1 - t0, section == self.expected[tag, key][1]

    def encode(self, tag, key, form):
        d = self.made[tag, key]
        t0 = time.perf_counter_ns()
        enc = self.D.encode(d, form)
        t1 = time.perf_counter_ns()
        self.encoded[tag, key] = enc
        return t1 - t0, isinstance(enc, bytes if form == "binary" else str)

    def decode(self, tag, key, form):
        d, enc = self.made[tag, key], self.encoded[tag, key]
        t0 = time.perf_counter_ns()
        back = self.D.decode(enc)
        t1 = time.perf_counter_ns()
        fields = (back.static_section, back.dynamic_section, back.pepper)
        return t1 - t0, back.variant.tag == tag and fields == (d.static_section, d.dynamic_section, d.pepper)

    def session(self, tag, key, tamper):
        """One challenge-response session; every frame crosses the wire codec."""
        P, v = self.P, self.variants[tag]
        mine = self.msgs[key]
        theirs = self.tampered[key] if tamper else mine
        t0 = time.perf_counter_ns()
        challenger = P.Challenger(v)
        challenge, _ = P.decode_frame(P.encode_frame(challenger.issue()))
        response, _ = P.decode_frame(P.encode_frame(P.Responder(v).answer(challenge, theirs)))
        verdict, _ = P.decode_frame(P.encode_frame(challenger.check(response, mine)))
        accepted = P.verdict_accepted(verdict)
        t1 = time.perf_counter_ns()
        return t1 - t0, accepted is (not tamper)


def floor_mb_s(msgs: list[bytes], tag: str, min_seconds: float = 0.2) -> float:
    """Message MB/s of two plain hashlib passes over each padded message."""
    new = getattr(hashlib, common.PARAMS[tag][0])
    total = busy = 0.0
    while busy < min_seconds:
        for m in msgs:
            padded = m + common.pad_suffix(len(m), tag)
            start = time.perf_counter()
            new(padded).digest()
            new(padded).digest()
            busy += time.perf_counter() - start
            total += len(m)
    return total / busy / 1e6


def mem_amplification(create, message: bytes, variant: Any) -> float:
    """tracemalloc peak of one ``create`` divided by the message length."""
    tracemalloc.start()
    try:
        create(message, variant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / max(1, len(message))


def execute(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    variants_mod = importlib.import_module("ash.variants")
    plain = {v.tag: v for v in (variants_mod.ASH1, variants_mod.ASH2)}
    sizes, plan = common.PLANS[job["workload"]](job["seed"], job["smoke"])
    expected = common.refs_from_json(job["refs"])
    sessions = {op[2] for op in plan if op[0] == "session"}
    ops = Ops(job["seed"], sizes, expected, plain, sessions)
    warm = common.new_tally(plan)
    t0 = time.perf_counter()
    common.run_ops(ops, plan, 0.0, len(plan), warm)
    warmup_s = time.perf_counter() - t0

    tracer = None
    if job["traced"]:
        import spans

        tracer = spans.Tracer()
        ops.variants = spans.install(tracer)
    out = common.new_tally(plan)
    common.run_ops(ops, plan, job["seconds"], job["count"], out)
    out.update(warmup_s=warmup_s, warmup_ops=warm["ops"], failed=out["failed"] + warm["failed"],
               notes=warm["notes"] + out["notes"])
    if tracer is not None:
        tracer.dump(job["spans"])
        largest = max(sizes, key=sizes.get)
        out["mem_amplification"] = mem_amplification(ops.D.create, ops.msgs[largest], plain["ash1"])
        out["floor_mb_s"] = {t: floor_mb_s(list(ops.msgs.values()), t) for t in common.TAGS}
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        job = json.load(f)
    result = execute(job)
    with open(job["result"], "w") as f:
        json.dump(result, f)
