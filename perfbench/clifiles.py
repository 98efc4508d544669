"""The cli_files workload: real runs of ``python -m ash.cli`` on files and pipes.

The benchmark process is the single client of a closed loop: it starts one
CLI process per operation and waits for it, except for ``challenge``, whose
two ends run together, joined by two ``os.pipe`` pairs. Inputs are files of
64 B, 64 KiB, 4 MiB and 64 MiB plus a sparse file of at least 256 MiB,
written once per run into the run's temporary directory. Reads come from
the warm page cache: the benchmark does not drop caches.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time

import common
from common import KiB, MiB

CHILD_TIMEOUT = 150
SPANS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")
MALFORMED = "ash1:" + "zz" * 128  # right length, not hex: the CLI must exit 2
# Kinds whose bytes count towards ashN.mb_per_s (challenge ends run concurrently, so not those).
THROUGHPUT_KINDS = ("hash_fixed", "hash_pipe", "hash_random", "verify_made", "verify_file", "verify_ref")


def plan(smoke: bool) -> list[tuple]:
    """One cycle: (group, kind, tag, file, *extra); group small is <= 64 KiB, large is >= 1 MiB."""
    budget = 16 * KiB if smoke else MiB  # below the 4 MiB input, so the spool spills to disk
    small = [
        ("hash_fixed", "ash1", "f64B", "hex"),
        ("hash_fixed", "ash2", "f64K", "tagged"),
        ("hash_random", "ash1", "f64K"),
        ("verify_made", "ash1", "f64K", False),
        ("verify_made", "ash1", "f64K", True),
        ("verify_malformed", "ash1", "f64B"),
        ("hash_pipe", "ash2", "f64B", "binary", None),
        ("challenge", "ash1", "f64K", False),
        ("verify_file", "ash2", "f64K"),
    ]
    large = [
        ("hash_fixed", "ash1", "f4M", "tagged"),
        ("hash_pipe", "ash2", "f4M", "hex", budget),
        ("challenge", "ash2", "f4M", False),
        ("challenge", "ash1", "f4M", True),
        ("hash_random", "ash2", "f64M"),
        ("verify_ref", "ash1", "f4M"),
        ("hash_fixed", "ash1", "sparse", "hex"),
    ]
    # Small operations are cheap; repeating them gives the latency percentiles enough samples.
    repeats = 1 if smoke else 5
    return [("small", *op) for op in small] * repeats + [("large", *op) for op in large]


def make_inputs(tmp: str, seed: int, smoke: bool) -> dict:
    """Write the input files and compute the reference sections the plan needs."""
    import reference

    sizes = {"f64B": 64, "f64K": 4 * KiB, "f4M": 64 * KiB, "f64M": 256 * KiB} if smoke else {
        "f64B": 64, "f64K": 64 * KiB, "f4M": 4 * MiB, "f64M": 64 * MiB}
    paths = {k: os.path.join(tmp, k) for k in (*sizes, "f4M_t", "sparse")}
    for key, size in sizes.items():
        with open(paths[key], "wb") as f:
            f.write(common.message(seed, key, size))
    data = bytearray(common.message(seed, "f4M", sizes["f4M"]))
    bit = common.rng(seed, "tamper").randrange(8 * len(data))
    data[bit // 8] ^= 1 << (bit % 8)
    with open(paths["f4M_t"], "wb") as f:
        f.write(data)
    r = common.rng(seed, "sparse")
    sparse_size = common.off_boundary(r, (1 if smoke else 256) * MiB)
    with open(paths["sparse"], "wb") as f:
        f.truncate(sparse_size)
        for i in range(8):
            f.seek(r.randrange(sparse_size - 4 * KiB))
            f.write(common.message(seed, f"island{i}", 4 * KiB))
    peppers = {t: common.fixed_pepper(seed, t) for t in common.TAGS}
    needed = {(op[2], op[3]) for op in plan(smoke) if op[1] not in ("challenge", "verify_malformed")}
    refs = {(tag, key): reference.of_file(paths[key], tag, peppers[tag]) for tag, key in needed}
    sizes = {k: os.path.getsize(p) for k, p in paths.items()}
    return {"paths": paths, "sizes": sizes, "refs": common.refs_to_json(refs)}


def _copy_into(path: str, pipe) -> None:
    # In chunks, so that this process never holds a whole input: see prepare.py.
    try:
        with open(path, "rb") as f, pipe:
            while chunk := f.read(256 * KiB):
                pipe.write(chunk)
    except BrokenPipeError:
        pass  # the child exited early; its exit code and output go through the gate


def _encoded(raw: bytes, tag: str, form: str) -> bytes | str:
    if form == "binary":
        return raw
    return raw.hex() if form == "hex" else f"{tag}:{raw.hex()}"


class CliFiles:
    def __init__(self, tmp: str, seed: int, smoke: bool, env: dict, prepared: dict):
        self.tmp = tmp
        self.env = env
        self.plan = plan(smoke)
        self.peppers = {t: common.fixed_pepper(seed, t) for t in common.TAGS}
        self.flips = common.rng(seed, "flip")
        self.made: dict = {}
        self.trace_dir: str | None = None
        self.op_spans: list[list[str]] = []  # span files of each traced operation
        self.peak_kib = 0  # largest ru_maxrss of any CLI process so far

        self.paths, self.sizes = prepared["paths"], prepared["sizes"]
        self.ref = common.refs_from_json(prepared["refs"])

    # -- running children --------------------------------------------------

    def _argv(self, args: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "ash.cli", *args]
        out = os.path.join(self.trace_dir, f"p{sum(map(len, self.op_spans))}")
        self.op_spans[-1].append(out)
        return [sys.executable, SPANS_PY, out, *args]

    def _run(self, args: list[str], feed: str | None = None) -> tuple[int, bytes, int]:
        """Run one CLI process; ``feed`` names a file piped into its stdin."""
        argv = self._argv(args)
        writer = None
        t0 = time.perf_counter_ns()
        p = subprocess.Popen(argv, stdin=subprocess.PIPE if feed else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        try:
            with common.deadline([p], CHILD_TIMEOUT):
                if feed:
                    writer = threading.Thread(target=_copy_into, args=(feed, p.stdin))
                    writer.start()
                out = p.stdout.read()
                self.peak_kib = max(self.peak_kib, common.reap(p))
                t1 = time.perf_counter_ns()
        finally:
            if writer is not None:
                writer.join()
            p.stdout.close()
        return p.returncode, out, t1 - t0

    def _pair(self, tag: str, mine: str, theirs: str) -> tuple[list[int], int]:
        to_responder = os.pipe()
        to_challenger = os.pipe()
        procs: list[subprocess.Popen] = []
        t0 = time.perf_counter_ns()
        with common.deadline(procs, CHILD_TIMEOUT):
            try:
                for role, path, (rd, wr) in (
                    ("challenger", mine, (to_challenger[0], to_responder[1])),
                    ("responder", theirs, (to_responder[0], to_challenger[1])),
                ):
                    argv = self._argv(["challenge", "--role", role, "--variant", tag, path])
                    procs.append(subprocess.Popen(
                        argv, stdin=rd, stdout=wr, stderr=subprocess.DEVNULL, env=self.env))
            finally:
                for fd in (*to_responder, *to_challenger):
                    os.close(fd)
            for p in procs:
                self.peak_kib = max(self.peak_kib, common.reap(p))
            t1 = time.perf_counter_ns()
        return [p.returncode for p in procs], t1 - t0

    # -- operations ---------------------------------------------------------

    def run(self, op: tuple) -> tuple[int, bool]:
        if self.trace_dir is not None:
            self.op_spans.append([])
        _, kind, *args = op
        return getattr(self, kind)(*args)

    def _ref_raw(self, tag: str, key: str) -> bytes:
        static, dynamic = self.ref[tag, key]
        return static + dynamic + self.peppers[tag]

    def hash_fixed(self, tag, key, form):
        args = ["hash", "--variant", tag, "--pepper", self.peppers[tag].hex(), "--format", form, self.paths[key]]
        rc, out, ns = self._run(args)
        got = out if form == "binary" else out.decode().strip()
        return ns, rc == 0 and got == _encoded(self._ref_raw(tag, key), tag, form)

    def hash_pipe(self, tag, key, form, budget):
        args = ["hash", "--variant", tag, "--pepper", self.peppers[tag].hex(), "--format", form]
        if budget is not None:
            args += ["--memory-budget", str(budget)]
        rc, out, ns = self._run(args + ["-"], feed=self.paths[key])
        got = out if form == "binary" else out.decode().strip()
        return ns, rc == 0 and got == _encoded(self._ref_raw(tag, key), tag, form)

    def hash_random(self, tag, key):
        rc, out, ns = self._run(["hash", "--variant", tag, self.paths[key]])
        prefix, _, hexpart = out.decode().strip().partition(":")
        raw = bytes.fromhex(hexpart)
        self.made[tag, key] = raw
        static = self.ref[tag, key][0]
        ok = rc == 0 and prefix == tag and raw[: len(static)] == static
        return ns, ok and len(raw) == 2 * len(static) + len(self.peppers[tag])

    def verify_made(self, tag, key, tamper):
        raw = bytearray(self.made.pop((tag, key)) if tamper else self.made[tag, key])
        if tamper:
            bit = self.flips.randrange(8 * len(raw))
            raw[bit // 8] ^= 1 << (bit % 8)
        rc, _, ns = self._run(["verify", _encoded(bytes(raw), tag, "tagged"), self.paths[key]])
        return ns, rc == (1 if tamper else 0)

    def verify_malformed(self, tag, key):
        rc, _, ns = self._run(["verify", MALFORMED, self.paths[key]])
        return ns, rc == 2

    def verify_file(self, tag, key):
        path = os.path.join(self.tmp, f"digest-{tag}-{key}.txt")
        with open(path, "w") as f:
            f.write(_encoded(self._ref_raw(tag, key), tag, "tagged") + "\n")
        rc, _, ns = self._run(["verify", "@" + path, self.paths[key]])
        return ns, rc == 0

    def verify_ref(self, tag, key):
        rc, _, ns = self._run(["verify", _encoded(self._ref_raw(tag, key), tag, "tagged"), self.paths[key]])
        return ns, rc == 0

    def challenge(self, tag, key, tamper):
        theirs = self.paths[key + "_t" if tamper else key]
        codes, ns = self._pair(tag, self.paths[key], theirs)
        want = 1 if tamper else 0  # both ends: 0 accept/accepted, 1 reject/rejected
        return ns, codes == [want, want]

    def input_bytes(self, op: tuple) -> int:
        """Bytes of input the processes of one operation read (both ends for challenge)."""
        _, kind, _, key, *_ = op
        if kind == "verify_malformed":
            return 0
        return self.sizes[key] * (2 if kind == "challenge" else 1)

    def floor_mb_s(self, tag: str) -> float:
        """Message MB/s of two plain hashlib passes over the padded large files."""
        name = common.PARAMS[tag][0]
        total = 0
        start = time.perf_counter()
        for key in ("f4M", "f64M"):
            a, b = hashlib.new(name), hashlib.new(name)
            with open(self.paths[key], "rb") as f:
                while chunk := f.read(MiB):
                    a.update(chunk)
                    b.update(chunk)
                    total += len(chunk)
            tail = common.pad_suffix(self.sizes[key], tag)
            a.update(tail)
            b.update(tail)
            a.digest()
            b.digest()
        return total / (time.perf_counter() - start) / 1e6
