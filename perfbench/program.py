"""Locating the program under test and recording the environment it ran in.

The benchmark runs from the root of a source checkout and imports
``descriptorsim`` from ``src/`` there, never from an installed copy, so the
numbers always belong to the checked-out code.  BLAS threads are pinned
before numpy is first imported: the load is one process with a fixed thread
count, the same on every commit.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One thread: the machine is shared, and a single-threaded BLAS keeps
# run-to-run spread low; the count is recorded with every result.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The cores are shared with other machines' work, and their speed drifts by
# up to 2x over seconds to minutes, alike for every code path.  A fixed
# kernel, timed next to each measurement, tracks that drift: timings are
# rescaled to the speed at which the kernel takes REFERENCE_NOMINAL_S, its
# typical time on an idle core of the 2-core Xeon the benchmark was tuned on.
REFERENCE_NOMINAL_S = 1.4e-3


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``descriptorsim`` source tree."""


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; call before numpy is imported.  Child
    processes inherit the setting through the environment."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import ``descriptorsim`` from this checkout's ``src/``; return the
    package module."""
    if not (SRC / "descriptorsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no descriptorsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import descriptorsim

    location = Path(descriptorsim.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ProgramMissing(f"descriptorsim was imported from {location}, not {SRC}")
    return descriptorsim


def _openblas_runtime() -> tuple[str, int | None]:
    """Version string and live thread count of the OpenBLAS numpy bundles,
    read through its C API; ("unknown", None) when that library is absent."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode(), int(threads())
    return "unknown", None


def environment_record() -> dict:
    """Versions, BLAS build and threads, and core count for a result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime, threads = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Reference:
    """The fixed machine-speed kernel: small complex BLAS products and an
    interpreter loop, the two kinds of work the program does."""

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self._matrix @ self._matrix
        total = 0
        for i in range(3000):
            total += i * i
        return time.perf_counter() - start


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    """A timing made while the reference kernel took ``reference_s``,
    rescaled to the nominal machine speed."""
    return seconds * REFERENCE_NOMINAL_S / reference_s
