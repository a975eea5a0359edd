"""Machine facts, the BLAS thread pin and a fixed calibration kernel.

The pin has to be in the environment before numpy is first imported, because
OpenBLAS sizes its thread pool when it loads.  The count is then read back
from the loaded library, so a pin that did not take effect fails the run
instead of silently measuring a multi-threaded BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


class MachineError(RuntimeError):
    """The machine is not in the state the benchmark requires."""


def pin_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise MachineError("numpy was imported before the BLAS thread pin was set")
    for var in THREAD_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)


def blas_thread_count(np) -> int:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(lib_dir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _GET_THREADS_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    raise MachineError(f"no bundled OpenBLAS with a thread-count query under {lib_dir}")


def check_blas_pin(np) -> int:
    threads = blas_thread_count(np)
    if threads != BLAS_THREADS:
        raise MachineError(f"BLAS runs {threads} threads, the benchmark pins {BLAS_THREADS}")
    return threads


def facts(np, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
    }


def calibrate(np, reps: int = 5) -> float:
    """Median ms of a fixed numpy kernel: a float32 GEMM plus elementwise work.

    Taken at the start and end of every run so a drifting host can be told
    apart from a change in the code.  Not a metric.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    x = rng.standard_normal((16, 128, 128)).astype(np.float32)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(48):
            b = a @ a
            y = np.exp(-x * x).sum(axis=0)
        times.append((time.perf_counter() - t0) * 1e3)
    if not (np.isfinite(b).all() and np.isfinite(y).all()):
        raise MachineError("calibration kernel produced non-finite values")
    return statistics.median(times)
