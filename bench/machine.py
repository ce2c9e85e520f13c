"""Environment record, BLAS/OpenMP thread pinning and copy bandwidth.

pin_threads() must run before numpy is imported.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Cap every BLAS/OpenMP thread count at nproc (unset counts become nproc),
    so both sides of a comparison run the same number of threads."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    """Size of the highest cache level of cpu0 (0 when not reported)."""
    best_level, best_size = 0, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        size = _read(index / "size").strip()
        if not (level.isdigit() and size):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if int(level) >= best_level:
            best_level, best_size = int(level), value
    return best_size


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = _read(root / ".git" / "HEAD").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref).strip()
    if direct:
        return direct
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "llc_mb": round(llc_bytes() / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "commit": git_commit(root),
        "seed": seed,
    }


def copy_bandwidth(llc: int, repeats: int = 5) -> tuple[float, float]:
    """Copy bandwidth in GB/s (bytes read + written) and the array size in MB.

    One array of max(4 x LLC, 64 MiB) is allocated; each pass copies its
    first half onto its second half, so every pass streams the whole array.
    """
    import numpy as np

    nbytes = max(4 * llc, 64 << 20)
    a = np.ones(nbytes // 8)
    half = a.size // 2
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.copyto(a[half:2 * half], a[:half])
        times.append(time.perf_counter() - t)
    del a
    return 2 * half * 8 / statistics.median(times) / 1e9, nbytes / 1e6
