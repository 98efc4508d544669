"""Builds a run's inputs and the gate's expected outputs, in a child process.

``python3 prepare.py JOB.json`` writes the prepared inputs as JSON to the
job's result path. This runs outside the benchmark's main process on
purpose: on Linux a child's ``ru_maxrss`` starts from the peak RSS of the
process that started it, so the main process must never hold a large
message, numpy, or the reference's buffers. The machine record is taken
here for the same reason.
"""

from __future__ import annotations

import json
import sys

import clifiles
import common
import machine
import reference


def prepare(workload: str, seed: int, smoke: bool, tmp: str) -> dict:
    """The run's inputs: files and reference sections for cli_files, reference sections otherwise."""
    if workload == "cli_files":
        return clifiles.make_inputs(tmp, seed, smoke)
    sizes, _ = common.PLANS[workload](seed, smoke)
    refs = {}
    for key, size in sizes.items():
        msg = common.message(seed, key, size)
        for tag in common.TAGS:
            refs[tag, key] = reference.of_bytes(msg, tag, common.fixed_pepper(seed, tag))
    return {"refs": common.refs_to_json(refs)}


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        job = json.load(f)
    prepared = prepare(job["workload"], job["seed"], job["smoke"], job["tmp"])
    prepared["machine"] = machine.record(job["root"], job["src"], common.PARAMS)
    with open(job["result"], "w") as f:
        json.dump(prepared, f)
