"""Environment record stored with every benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Hash of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return sizes


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root / "src" / "singheat"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
