"""Tests of the benchmark itself: its reference, its smoke mode, and its gate.

The gate tests run the benchmark on a copy of the checkout in which either
the program or the benchmark's reference has been broken on purpose; the
run must then report ``correct: false`` and exit 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import reference  # noqa: E402


def _byte_loop_sections(message: bytes, tag: str, pepper: bytes) -> tuple[bytes, bytes]:
    """The construction written out byte by byte, to check the gate's reference."""
    name, block, field = common.PARAMS[tag]
    padded = bytearray(message) + b"\x80"
    while (len(padded) + field) % block:
        padded.append(0)
    padded += (8 * len(message)).to_bytes(field, "big")
    half = block // 2
    halves = [bytes(padded[i : i + half]) for i in range(0, len(padded), half)]
    n = len(halves) // 2
    stream = b"".join(halves[k] + halves[n + k] for k in range(n))
    peppered = bytes(b ^ pepper[i % block] for i, b in enumerate(stream))
    return hashlib.new(name, stream).digest(), hashlib.new(name, peppered).digest()


@pytest.mark.parametrize("tag", common.TAGS)
def test_reference_matches_byte_loop(tag):
    r = random.Random(7)
    pepper = r.randbytes(common.PARAMS[tag][1])
    for length in (*common.BOUNDARY_LENGTHS, 5000, 70001):
        message = r.randbytes(length)
        assert reference.of_bytes(message, tag, pepper) == _byte_loop_sections(message, tag, pepper), length


def test_reference_reads_files_like_bytes(tmp_path):
    message = random.Random(8).randbytes(3 * 65536 + 77)
    path = tmp_path / "m"
    path.write_bytes(message)
    pepper = bytes(range(64))
    assert reference.of_file(str(path), "ash1", pepper) == reference.of_bytes(message, "ash1", pepper)


def _bench(root: str, workload: str, trace: int, seed: int = 3) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return p.returncode, p.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ("bulk_mem", "small_mem", "cli_files"))
def test_smoke_prints_every_declared_metric(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    runs = os.path.join(ROOT, ".perfbench_tmp")
    before = set(os.listdir(runs)) if os.path.isdir(runs) else set()
    rc, lines = _bench(ROOT, workload, trace)
    assert rc == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1
    after = set(os.listdir(runs)) if os.path.isdir(runs) else set()
    assert after <= before, "run directory left behind"


def _copy_checkout(dest) -> str:
    root = str(dest / "checkout")
    ignore = shutil.ignore_patterns("__pycache__", "tests", ".perfbench_tmp")
    shutil.copytree(os.path.join(ROOT, "src", "ash"), os.path.join(root, "src", "ash"), ignore=ignore)
    shutil.copytree(BENCH, os.path.join(root, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def _mutate(path: str, old: str, new: str) -> None:
    with open(path) as f:
        text = f.read()
    assert old in text, f"{old!r} not in {path}"
    with open(path, "w") as f:
        f.write(text.replace(old, new, 1))


def _assert_gate_fails(root: str, workload: str) -> None:
    rc, lines = _bench(root, workload, 0)
    assert rc == 1, lines
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert json.loads(lines[-2])["record"]["failures"]


@pytest.mark.parametrize("workload", ("small_mem", "cli_files"))
def test_gate_fails_on_a_mutated_digest(tmp_path, workload):
    root = _copy_checkout(tmp_path)
    # A wrong bit-length field: every digest changes, yet the program still
    # agrees with itself, so only the comparison with the reference catches it.
    _mutate(os.path.join(root, "src", "ash", "restructure.py"), "bits = message_length * 8", "bits = message_length * 8 + 1")
    _assert_gate_fails(root, workload)


def test_gate_fails_on_a_wrong_reference(tmp_path):
    root = _copy_checkout(tmp_path)
    _mutate(os.path.join(root, "perfbench", "reference.py"), "np.stack((first, second)", "np.stack((second, first)")
    _assert_gate_fails(root, "bulk_mem")


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path)
    shutil.rmtree(os.path.join(root, "src"))
    rc, lines = _bench(root, "bulk_mem", 0)
    assert rc == 2 and lines == []
