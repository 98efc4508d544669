"""Facts about the machine and the program version, printed with every result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import ssl
import subprocess
import time


def _cpuinfo() -> dict:
    model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {"cpu_model": model, "sha_ni": "sha_ni" in flags, "avx2": "avx2" in flags}


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_digest(src: str) -> str:
    """SHA-256 over the package's source files, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "ash", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def floor_mb_s(tag_params: dict, size: int = 8 << 20) -> dict:
    """MB/s of two plain hashlib passes over an 8 MiB buffer, per variant."""
    data = bytes(range(256)) * (size // 256)
    out = {}
    for tag, (name, _, _) in tag_params.items():
        start = time.perf_counter()
        hashlib.new(name, data).digest()
        hashlib.new(name, data).digest()
        out[tag] = size / (time.perf_counter() - start) / 1e6
    return out


def record(root: str, src: str, tag_params: dict) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        **_cpuinfo(),
        "caches": _caches(),
        "python": platform.python_version(),
        "openssl": ssl.OPENSSL_VERSION,
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "floor_mb_s": floor_mb_s(tag_params),
    }
