"""The ash benchmark: one command per workload run, with a correctness gate.

    python3 perfbench/run.py --workload {bulk_mem,small_mem,cli_files} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is a closed loop with one client. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the same operations
twice, untraced and then traced, and prints the per-layer metrics. Every output
is checked against the benchmark's own reference (``reference.py``) or
against the 0/1/2 exit-code contract; a wrong output fails the run.
``--smoke`` runs every workload on tiny inputs in a few seconds.

stdout ends with two JSON lines: a record of the machine, the sample counts
and any failures, then the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every output was right, 1 when the gate failed and 2 when there is no
program to run. Generated files and spool spills live in a per-run
directory under ``.perfbench_tmp/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("bulk_mem", "small_mem", "cli_files")
WORKER_TIMEOUT = 170
# A traced pass repeats at most this many cycles: enough spans for every
# layer, few enough (about half a million on small_mem) to keep in memory.
MAX_TRACED_CYCLES = 100

END_TO_END = {
    "ash1.mb_per_s": "MB/s",
    "ash2.mb_per_s": "MB/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Span name -> fields reported for it, in the order they are printed.
SPAN_FIELDS = {
    "restructure.pad": ("calls", "busy_s"),
    "restructure.permute": ("calls", "bytes", "busy_s", "mb_per_s"),
    "seasoning.pepper_xor": ("calls", "bytes", "busy_s", "mb_per_s"),
    "seasoning.pepper_gen": ("calls", "busy_s"),
    "hashes.sha": ("bytes", "busy_s", "mb_per_s"),
    "digest.create": ("calls", "busy_s", "self_s"),
    "digest.verify": ("calls", "busy_s", "self_s"),
    "digest.dynamic_section": ("calls", "busy_s", "self_s"),
    "digest.encode": ("busy_s",),
    "digest.decode": ("busy_s",),
    "files.digest_stream": ("calls", "busy_s", "self_s"),
    "files.spool": ("calls", "busy_s", "bytes_written"),
    "protocol.read_frame": ("busy_s",),
    "protocol.session": ("busy_s", "self_s"),
    "cli.main": ("busy_s",),
}
FIELD_UNITS = {"calls": "count", "bytes": "B", "bytes_written": "B", "busy_s": "s", "self_s": "s", "mb_per_s": "MB/s"}
DERIVED = {
    "hashes.floor_mb_s.ash1": "MB/s",
    "hashes.floor_mb_s.ash2": "MB/s",
    "hashes.floor_ratio.ash1": "ratio",
    "hashes.floor_ratio.ash2": "ratio",
    "digest.mem_amplification": "ratio",
    "files.read.syscalls": "count",
    "files.read.bytes": "B",
    "files.read.amplification": "ratio",
    "protocol.frames": "count",
    "protocol.frame_bytes": "B",
    "cli.overhead_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {
    **{f"{span}.{f}": FIELD_UNITS[f] for span, fields in SPAN_FIELDS.items() for f in fields},
    **DERIVED,
}


def _child_env(tmp: str) -> dict:
    env = dict(os.environ, TMPDIR=tmp)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env: dict, runs: int) -> list[float]:
    """Wall times of fresh interpreters that import ash and ash.cli and build the parser."""
    code = "import ash, ash.cli; getattr(ash.cli, 'build_parser', lambda: None)()"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-c", code], env=env)
        with common.deadline([p], 60):
            common.reap(p)  # a blocking wait; Popen.wait(timeout) polls and rounds times up
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise RuntimeError(f"importing ash failed with exit code {p.returncode}")
    return times


def p50_p90(samples: list[int]) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=10, method="inclusive")[8]


def _run_child(script: str, job: dict, name: str, env: dict) -> int:
    """Run ``script JOB.json`` in a child process; return its peak RSS in KiB."""
    path = os.path.join(job["tmp"], f"{name}-job.json")
    with open(path, "w") as f:
        json.dump(job, f)
    child = subprocess.Popen([sys.executable, os.path.join(HERE, script), path], env=env)
    with common.deadline([child], WORKER_TIMEOUT):
        peak_kib = common.reap(child)
    if child.returncode != 0:
        raise RuntimeError(f"{script} exited with {child.returncode}")
    return peak_kib


class Inproc:
    """bulk_mem and small_mem: the ops run in a worker process, in ash's own address space."""

    def __init__(self, args, tmp: str, env: dict, prepared: dict):
        self.args, self.tmp, self.env = args, tmp, env
        self.sizes, self.plan = common.PLANS[args.workload](args.seed, args.smoke)
        self.refs = prepared["refs"]

    def classify(self, op: tuple) -> tuple[str, int | None, bool]:
        """(variant, message bytes if it counts for throughput, counts for latency)."""
        return op[1], (self.sizes[op[2]] if op[0] in common.HASH_KINDS else None), True

    def run_pass(self, traced: bool, seconds: float = 0.0, count: int | None = None) -> dict:
        name = "traced" if traced else "plain"
        job = {
            "src": SRC, "tmp": self.tmp, "workload": self.args.workload, "seed": self.args.seed,
            "smoke": self.args.smoke, "seconds": seconds, "count": count, "traced": traced,
            "refs": self.refs, "result": os.path.join(self.tmp, f"{name}-result.json"),
            "spans": os.path.join(self.tmp, f"{name}-spans"),
        }
        peak_kib = _run_child("inproc.py", job, name, self.env)
        with open(job["result"]) as f:
            out = json.load(f)
        out["peak_kib"] = peak_kib
        out["attempted"] = out["warmup_ops"] + out["ops"]
        if traced:
            import spans

            out["spans"] = [spans.load(job["spans"])]
        return out

    def layer_extras(self, traced: dict, plain: dict) -> dict:
        return {"mem_amplification": traced["mem_amplification"], "floor_mb_s": traced["floor_mb_s"],
                "read": (0, 0, 0), "cli_share": 0.0}


class Cli:
    """cli_files: the ops are real CLI processes started from this one."""

    def __init__(self, args, tmp: str, env: dict, prepared: dict):
        import clifiles

        self.args = args
        self.w = clifiles.CliFiles(tmp, args.seed, args.smoke, env, prepared)
        self.plan = self.w.plan
        self.throughput_kinds = clifiles.THROUGHPUT_KINDS
        # Every distinct operation once, but for the 64 MiB and sparse files:
        # prepare.py has just written those, so they are in the page cache already.
        warm = [op for op in dict.fromkeys(self.plan) if op[3] not in ("f64M", "sparse")]
        self.warmup = common.new_tally(warm)
        t0 = time.perf_counter()
        common.run_ops(self.w, warm, 0.0, len(warm), self.warmup)
        self.warmup["warmup_s"] = time.perf_counter() - t0

    def classify(self, op: tuple) -> tuple[str, int | None, bool]:
        group, kind, tag, key = op[:4]
        counted = group == "large" and kind in self.throughput_kinds
        return tag, (self.w.sizes[key] if counted else None), group == "small"

    def run_pass(self, traced: bool, seconds: float = 0.0, count: int | None = None) -> dict:
        import spans

        out = common.new_tally(self.plan)
        if traced:
            self.w.trace_dir = self.w.tmp
            self.w.op_spans = []
        self.w.peak_kib = 0
        try:
            common.run_ops(self.w, self.plan, seconds, count, out)
        finally:
            self.w.trace_dir = None
        out["attempted"] = out["ops"]
        out["peak_kib"] = self.w.peak_kib
        if not traced:
            out["attempted"] += self.warmup["ops"]
            out["failed"] += self.warmup["failed"]
            out["notes"] += self.warmup["notes"]
            out["warmup_s"] = self.warmup["warmup_s"]
            return out
        out["op_spans"] = [[spans.load(p) for p in paths if os.path.exists(p + ".bin")] for paths in self.w.op_spans]
        out["spans"] = [s for sets in out["op_spans"] for s in sets]
        return out

    def layer_extras(self, traced: dict, plain: dict) -> dict:
        import spans
        import inproc

        sys.path.insert(0, SRC)
        from ash import digest, variants

        with open(self.w.paths["f4M"], "rb") as f:
            amplification = inproc.mem_amplification(digest.create, f.read(), variants.ASH1)
        rchar = syscr = inputs = 0
        main_ns: dict[int, int] = {}  # plan position -> fastest cli.main, the slower end of a pair
        for i, sets in enumerate(traced["op_spans"]):
            j = i % len(self.plan)
            inputs += self.w.input_bytes(self.plan[j])
            mains = [0]
            for s in sets:
                rchar += s[2]["io"].get("rchar", 0)
                syscr += s[2]["io"].get("syscr", 0)
                mains.append(spans.aggregate([s]).get("cli.main", {}).get("busy_ns", 0))
            main_ns[j] = min(main_ns.get(j, max(mains)), max(mains))
        wall = sum(plain["best_ns"][j] for j in main_ns)
        main = sum(main_ns.values())
        return {"mem_amplification": amplification,
                "floor_mb_s": {t: self.w.floor_mb_s(t) for t in common.TAGS},
                "read": (syscr, rchar, rchar / inputs if inputs else 0.0),
                "cli_share": (wall - main) / wall if wall else 0.0}


def _prepare(args, tmp: str, env: dict) -> dict:
    job = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "tmp": tmp,
           "root": ROOT, "src": SRC, "result": os.path.join(tmp, "prepared.json")}
    _run_child("prepare.py", job, "prepare", env)
    with open(job["result"]) as f:
        return json.load(f)


def end_to_end(wl, tally: dict) -> tuple[dict, dict]:
    """Throughput per variant and latency percentiles of one untraced pass.

    Every distinct operation of the cycle is summarised by its fastest time
    over the run. On a shared machine, slow moments only ever add time, and
    the fastest of many repeats is the steadiest estimate of what the
    program itself costs. Throughput is the message bytes of the counted
    operations over the sum of their fastest times; the latency percentiles
    are taken over the fastest times of the latency operations.
    """
    best_of: dict[tuple, int] = {}
    samples_of: dict[tuple, int] = {}
    for op, best, samples in zip(wl.plan, tally["best_ns"], tally["samples"]):
        if samples:
            best_of[op] = min(best, best_of.get(op, best))
            samples_of[op] = samples_of.get(op, 0) + samples
    lat, moved = [], {t: [0, 0] for t in common.TAGS}  # bytes, ns
    for op, best in best_of.items():
        tag, nbytes, latency = wl.classify(op)
        if latency:
            lat.append(best)
        if nbytes is not None:
            moved[tag][0] += nbytes
            moved[tag][1] += best
    p50, p90 = p50_p90(lat)
    values = {f"{t}.mb_per_s": (b * 1e3 / ns if ns else 0.0) for t, (b, ns) in moved.items()}
    values.update(op_p50_us=p50 / 1e3, op_p90_us=p90 / 1e3)
    record = {"cycles": round(tally["ops"] / len(wl.plan), 2), "latency_ops": len(lat),
              "latency_samples": sum(k for op, k in samples_of.items() if wl.classify(op)[2]),
              "estimator": "fastest time of each distinct operation over the run",
              "percentiles": "p50 median, p90 inclusive decile of statistics.quantiles"}
    return values, record


def per_layer(wl, plain: dict, traced: dict, throughput: dict) -> dict:
    import spans

    agg = spans.aggregate(traced["spans"])
    extras = wl.layer_extras(traced, plain)
    zero = {"calls": 0, "busy_ns": 0, "bytes": 0, "self_ns": 0}
    values = {}
    for span, fields in SPAN_FIELDS.items():
        a = agg.get(span, zero)
        for f in fields:
            values[f"{span}.{f}"] = {
                "calls": a["calls"], "bytes": a["bytes"], "bytes_written": a["bytes"],
                "busy_s": a["busy_ns"] / 1e9, "self_s": a["self_ns"] / 1e9,
                "mb_per_s": a["bytes"] * 1e3 / a["busy_ns"] if a["busy_ns"] else 0.0,
            }[f]
    for tag in common.TAGS:
        floor = extras["floor_mb_s"][tag]
        values[f"hashes.floor_mb_s.{tag}"] = floor
        values[f"hashes.floor_ratio.{tag}"] = throughput[f"{tag}.mb_per_s"] / floor if floor else 0.0
    values["digest.mem_amplification"] = extras["mem_amplification"]
    values["files.read.syscalls"], values["files.read.bytes"], values["files.read.amplification"] = extras["read"]
    frames = [agg.get(n, zero) for n in ("protocol.frame", "protocol.read_frame")]
    values["protocol.frames"] = sum(a["calls"] for a in frames)
    values["protocol.frame_bytes"] = sum(a["bytes"] for a in frames)
    values["cli.overhead_share"] = extras["cli_share"]
    both = [j for j, k in enumerate(traced["samples"]) if k and plain["samples"][j]]
    plain_ns = sum(plain["best_ns"][j] for j in both)
    traced_ns = sum(traced["best_ns"][j] for j in both)
    values["trace.overhead_ratio"] = traced_ns / plain_ns - 1 if plain_ns else 0.0
    return values


def run(args, tmp: str) -> tuple[dict, dict]:
    env = _child_env(tmp)
    t0 = time.perf_counter()
    prepared = _prepare(args, tmp, env)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": prepared.pop("machine")}
    if args.workload == "cli_files":
        record["page_cache"] = "warm: the benchmark cannot drop caches, so file reads hit the page cache"
    wl = (Cli if args.workload == "cli_files" else Inproc)(args, tmp, env, prepared)
    record["prepare_s"] = time.perf_counter() - t0  # inputs, references and (cli_files) warm-up

    # Set-up is sampled before and after the measured pass, so that its median
    # spans the whole run rather than one moment of a shared machine.
    batch = 2 if args.smoke else 11
    setup = [] if args.trace else setup_times(env, batch)
    # A trace run splits its time: half untraced, then the same operations traced.
    plain = wl.run_pass(traced=False, seconds=args.seconds / 2 if args.trace else args.seconds)
    if not args.trace:
        setup += setup_times(env, batch)
    throughput, samples = end_to_end(wl, plain)
    record.update(samples=samples, warmup_s=plain["warmup_s"])
    attempted, failed, notes = plain["attempted"], plain["failed"], plain["notes"]
    if args.trace:
        count = min(plain["ops"], MAX_TRACED_CYCLES * len(wl.plan))
        traced = wl.run_pass(traced=True, count=count)
        attempted += traced["attempted"]
        failed += traced["failed"]
        notes += traced["notes"]
        values = per_layer(wl, plain, traced, throughput)
        units = PER_LAYER
    else:
        values = {**throughput, "peak_rss_mib": plain["peak_kib"] / 1024,
                  "setup_s": statistics.median(setup)}
        units = END_TO_END
    record.update(error_rate=failed / attempted, failures=notes[:20])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ash", "cli.py")):
        print(f"perfbench: no ash package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result, record = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
