"""What the benchmark's numbers depend on: thread pinning, paths, the record.

Importing this module imports no NumPy, so :func:`pin_threads` can run
before anything starts a BLAS or OpenMP thread pool.  Child processes
(the set-up probes, the service and its pool workers) inherit the pinned
environment.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE_DIR = os.path.join(ROOT, "src")
#: Scratch space of one benchmark process (ignored by git).
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Thread-pool sizes of the numerical libraries; one thread each, so the
#: producer and consumer threads are the only parallelism in a run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


#: ``prctl`` option (Linux) that re-parents orphaned descendants to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of every process it starts.

    A grandchild whose parent ends first (the service's pool workers or its
    multiprocessing resource tracker) is then re-parented here rather than
    to init, so :func:`reap_children` waits for it too.  A no-op where
    ``prctl`` is not available.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop and wait for multiprocessing's resource tracker, if it runs.

    The first spawned process starts it, and it otherwise ends only after
    the process that owns it has ended, so it would outlive its owner.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    own, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == own:
            pids.append(int(entry))
    return pids


def reap_children(timeout: float = 10.0) -> None:
    """Wait until every child, own or adopted, has ended.

    Children still running after ``timeout`` seconds are killed first.
    """
    stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` (also in children).

    Raises:
        FileNotFoundError: if the checkout has no ``src/repro``.
    """
    if not os.path.isdir(os.path.join(SOURCE_DIR, "repro")):
        raise FileNotFoundError(f"no repro package under {SOURCE_DIR}")
    if SOURCE_DIR not in sys.path:
        sys.path.insert(0, SOURCE_DIR)
    paths = [SOURCE_DIR, BENCH_DIR]
    current = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([current] if current
                                                        else []))


def environment_record() -> Dict[str, object]:
    import numpy

    try:
        # the ceiling keeps git from searching above the checkout
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=
                                      os.path.dirname(ROOT))
                             ).stdout.strip() or None
    except OSError:
        rev = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev,
            "REPRO_TELEMETRY": os.environ.get("REPRO_TELEMETRY"),
            **{name: os.environ.get(name) for name in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live process from ``/proc``, MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    import numpy

    return float(numpy.percentile(values, q))


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    notes: List[str] = field(default_factory=list)
    #: span rows (``tracer.span_record``) of a traced run
    spans: List[Dict[str, object]] = field(default_factory=list)
